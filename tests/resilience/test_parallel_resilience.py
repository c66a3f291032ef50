"""Pool-level resilience: retry generations, deadlines, crashed workers.

These tests exercise the real :class:`ProcessPoolExecutor` fan-out, so
they are kept few and small — worker faults are staged either through
the injector (inherited by forked workers) or through detectors that
misbehave only inside a pool worker, the same technique as
``tests/eval/test_parallel.py``.
"""

import multiprocessing
import os
import time

from repro import obs
from repro.baselines import NaiveDetector
from repro.eval import run_suite
from repro.eval.parallel import MP_CONTEXT_ENV, run_suite_parallel
from repro.resilience import RetryPolicy, injecting

from .conftest import canonical, make_detector


class _FirstAttemptKiller:
    """Kills its pool worker once, then behaves; marker file = attempt log.

    Reproduces a genuinely *transient* substrate failure (the retryable
    kind), unlike an injector inherited by every forked worker, which
    re-fires identically in every pool generation.
    """

    name = "FirstAttemptKiller"

    def __init__(self, marker_path):
        self.marker = str(marker_path)

    def detect(self, graph):
        if multiprocessing.parent_process() is not None and not os.path.exists(
            self.marker
        ):
            with open(self.marker, "w") as handle:
                handle.write("died")
            os._exit(3)
        return NaiveDetector().detect(graph)


class _WorkerHanger:
    """Hangs inside a pool worker; instant in the parent's serial fallback."""

    name = "WorkerHanger"

    def __init__(self, seconds: float):
        self.seconds = seconds

    def detect(self, graph):
        if multiprocessing.parent_process() is not None:
            time.sleep(self.seconds)
        return NaiveDetector().detect(graph)


class TestRetryGenerations:
    def test_transient_crash_is_fixed_by_one_retry(self, tiny, tmp_path):
        detectors = [NaiveDetector(), _FirstAttemptKiller(tmp_path / "attempt")]
        recorder = obs.Recorder()
        with obs.recording(recorder):
            runs = run_suite_parallel(
                detectors,
                tiny,
                None,
                jobs=2,
                retry=RetryPolicy(max_retries=1, base_delay=0.0, jitter=0.0),
            )
        assert [run.name for run in runs] == ["Naive", "FirstAttemptKiller"]
        assert recorder.counters["resilience.retries"] >= 1
        # The retry succeeded on a fresh pool: nothing fell back serially.
        assert not any(run.degraded for run in runs)
        assert "parallel.broken_pool_recoveries" not in recorder.counters

    def test_zero_retries_reproduces_the_old_serial_fallback(self, tiny, tmp_path):
        detectors = [_FirstAttemptKiller(tmp_path / "attempt")]
        recorder = obs.Recorder()
        with obs.recording(recorder):
            runs = run_suite_parallel(detectors, tiny, None, jobs=2, retry=None)
        assert runs[0].degraded
        assert recorder.counters["parallel.broken_pool_recoveries"] == 1
        assert recorder.counters["resilience.fallbacks"] == 1


class TestDeadline:
    def test_hung_worker_is_abandoned_and_recovered_serially(self, tiny):
        from repro.resilience import Deadline

        detectors = [NaiveDetector(), _WorkerHanger(seconds=20.0)]
        recorder = obs.Recorder()
        start = time.monotonic()
        with obs.recording(recorder):
            runs = run_suite_parallel(
                detectors, tiny, None, jobs=2, deadline=Deadline(1.0)
            )
        elapsed = time.monotonic() - start
        assert elapsed < 15.0  # did not wait out the hang
        assert [run.name for run in runs] == ["Naive", "WorkerHanger"]
        assert runs[1].degraded
        assert recorder.counters["resilience.deadline_hits"] >= 1
        assert recorder.counters["resilience.fallbacks"] >= 1


class TestPoolWorkerFaults:
    def test_crashed_workers_degrade_to_equal_output(self, tiny):
        detectors = [make_detector(), make_detector(variant="ricd-i")]
        reference = [detector.detect(tiny.graph) for detector in detectors]
        assert reference[0].groups  # non-vacuous
        recorder = obs.Recorder()
        with obs.recording(recorder):
            # Every worker (fork-inherited or spawn-booted via the env
            # spec) carries crash=1.0 and dies at task start in every
            # pool generation; the retry exhausts and the parent recovers
            # each detector serially (the parent-side "crash" path never
            # fires: recovery skips the worker site).
            with injecting("crash=1.0,sites=worker"):
                runs = run_suite_parallel(
                    detectors, tiny, None, jobs=2, retry=RetryPolicy(max_retries=1)
                )
        assert [canonical(run.result) for run in runs] == [
            canonical(result) for result in reference
        ]
        assert all(run.degraded for run in runs)
        assert recorder.counters["resilience.retries"] >= 1
        assert recorder.counters["resilience.fallbacks"] >= 1


class TestSpawnContext:
    def test_spawn_pool_matches_serial_output(self, tiny, monkeypatch):
        """Determinism pin for the spawn start method.

        Spawned workers boot a fresh interpreter, so the parent's hash
        seed is shipped explicitly through the environment + initializer;
        the fan-out's output must stay byte-identical to the serial path.
        """
        monkeypatch.setenv(MP_CONTEXT_ENV, "spawn")
        detectors = [
            NaiveDetector(),
            make_detector(),
        ]
        serial = run_suite(detectors, tiny, simulate_labels=False, jobs=1)
        parallel = run_suite(detectors, tiny, simulate_labels=False, jobs=2)
        assert [canonical(run.result) for run in serial] == [
            canonical(run.result) for run in parallel
        ]

    def test_spawn_workers_receive_the_hash_seed(self, tiny, monkeypatch):
        monkeypatch.setenv(MP_CONTEXT_ENV, "spawn")
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        run_suite(
            [NaiveDetector(), NaiveDetector()], tiny, simulate_labels=False, jobs=2
        )
        # The fan-out pinned the seed before the first spawn started.
        assert os.environ.get("PYTHONHASHSEED") == "0"
