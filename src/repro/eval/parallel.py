"""Process-pool fan-out for the evaluation harness.

The Fig. 8 suite evaluates seven detectors and the Fig. 9 sweeps evaluate
five values per parameter, all embarrassingly parallel: every run reads
one shared scenario and writes an independent result.  This module fans
those runs out over a :class:`~concurrent.futures.ProcessPoolExecutor`
with three invariants:

* **one scenario transfer per worker** — the (snapshot-stripped) scenario
  is pickled into each worker once through the pool initializer, not with
  every task; tasks carry only a detector or a parameter value;
* **deterministic results** — tasks are indexed and reassembled in input
  order, and workers are forked so they inherit the parent's hash seed;
  the parallel output is byte-identical to the serial path (pinned by
  ``tests/eval/test_parallel.py`` and the differential suite);
* **no lost runs** — a worker that dies mid-task (OOM kill, hard crash)
  breaks the whole pool, which used to surface as a bare
  :class:`~concurrent.futures.process.BrokenProcessPool`.  Lost tasks
  are now retried on a *fresh* pool per the caller's
  :class:`~repro.resilience.RetryPolicy` (bounded attempts, exponential
  backoff with deterministic jitter); tasks still failing after the
  retry budget — and every task once a
  :class:`~repro.resilience.Deadline` expires — are re-run serially in
  the parent.  Recovered runs are marked ``degraded=True`` (their
  wall-clock is not pool-comparable) and every retry, deadline hit and
  fallback is counted on the active :mod:`repro.obs` recorder under
  ``resilience.*``.

Observability: when the caller has a recorder active (``--trace``), each
worker records into its own :class:`~repro.obs.Recorder` and ships the
exported dict back with its result; the parent merges them (spans and
counters add) and keeps per-worker task counts under
``parallel.worker<N>.tasks``, with worker slots numbered by order of
first result so traces are stable run to run.

Pass ``jobs=`` to :func:`repro.eval.harness.run_suite` or
:func:`repro.eval.sweeps.sensitivity_sweep` (or ``--jobs`` on
``ricd run``), which delegate here when ``jobs > 1`` and keep the serial
fallback otherwise; call :func:`run_suite_parallel` directly to set a
retry policy or deadline.  Wall-clock wins require actual cores; on a
single-CPU host the fork/pickle overhead makes ``jobs=1`` the right
setting, which is why it stays the default.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Sequence

from .. import obs
from ..errors import TransientWorkerError
from ..resilience import Deadline, RetryPolicy
from ..resilience.faults import inject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines import Detector
    from ..config import RICDParams, ScreeningParams
    from ..datagen.scenario import Scenario
    from .groundtruth import KnownLabels
    from .harness import DetectorRun
    from .sweeps import SweepPoint

__all__ = ["run_suite_parallel", "sensitivity_sweep_parallel"]

#: Per-worker shared state, installed once by the pool initializer.
_WORKER_STATE: dict = {}

#: Environment override for the pool start method (``fork`` / ``spawn``);
#: used by the CI spawn-context job and the spawn determinism tests.
MP_CONTEXT_ENV = "RICD_MP_CONTEXT"


def _context_name() -> str:
    """The pool start method: forced by env, else fork where available."""
    forced = os.environ.get(MP_CONTEXT_ENV)
    if forced:
        return forced
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"  # pragma: no cover - non-POSIX platforms


def _init_worker(hash_seed: str | None, initializer, initargs) -> None:
    """Pool initializer shim: records the pinned hash seed, then delegates."""
    _WORKER_STATE["hash_seed"] = hash_seed
    initializer(*initargs)


def _pool(jobs: int, initializer, initargs) -> ProcessPoolExecutor:
    """A process pool that prefers ``fork``, falling back to ``spawn``.

    Forked workers inherit the parent's str-hash seed with the rest of
    the process image.  Spawned workers start a fresh interpreter that
    re-randomizes hashing, so the seed is shipped explicitly: it is
    pinned in the environment *before* the first worker starts (spawn
    children read ``PYTHONHASHSEED`` at interpreter startup — an
    initializer would run too late) and echoed through the initializer
    for verification.  Detection output is hash-order independent either
    way (canonical sorts everywhere), which the spawn determinism tests
    pin.
    """
    name = _context_name()
    hash_seed = os.environ.get("PYTHONHASHSEED")
    if name != "fork":
        if hash_seed is None:
            hash_seed = "0"
            os.environ["PYTHONHASHSEED"] = hash_seed
    context = multiprocessing.get_context(name)
    return ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=context,
        initializer=_init_worker,
        initargs=(hash_seed, initializer, initargs),
    )


def _run_traced(task: Callable[[], object]) -> tuple[object, dict | None, int]:
    """Run ``task`` in a worker, recording when the parent asked for a trace.

    Returns ``(result, trace_dict_or_None, worker_pid)`` — the shape every
    worker task ships back to the parent.  The ``worker`` fault-injection
    site fires first, so the resilience suite can crash/hang/fail a task
    exactly where a real worker death would occur.
    """
    inject("worker")
    if not _WORKER_STATE.get("trace"):
        return task(), None, os.getpid()
    recorder = obs.Recorder()
    with obs.recording(recorder):
        result = task()
    recorder.count("parallel.tasks")
    return result, recorder.report().to_dict(), os.getpid()


class _TraceMerger:
    """Folds worker traces into the parent recorder with stable worker slots."""

    def __init__(self) -> None:
        self._recorder = obs.current()
        self._slots: dict[int, int] = {}

    @property
    def tracing(self) -> bool:
        return self._recorder is not None

    def absorb(self, trace: dict | None, pid: int) -> None:
        if self._recorder is None or trace is None:
            return
        slot = self._slots.setdefault(pid, len(self._slots))
        self._recorder.merge(trace)
        self._recorder.count(f"parallel.worker{slot}.tasks")

    def finish(self) -> None:
        if self._recorder is not None:
            self._recorder.gauge("parallel.workers_used", len(self._slots))


def _fan_out(
    tasks: Sequence,
    worker_fn,
    initializer,
    initargs: tuple,
    jobs: int,
    serial_fallback,
    retry: "RetryPolicy | None" = None,
    deadline: "Deadline | None" = None,
) -> list:
    """Common scatter/gather: submit every task, survive a broken pool.

    ``worker_fn`` receives ``(index, task)`` and returns
    ``(index, result, trace, pid)``.  Failure handling, in order:

    1. A task lost to a :class:`BrokenProcessPool` or raising a
       :class:`TransientWorkerError` is re-submitted to a *fresh* pool,
       up to ``retry.max_retries`` times with the policy's backoff
       (``resilience.retries`` counts each re-submission).  The default
       policy performs no retries — the pre-resilience behaviour.
    2. When ``deadline`` expires, in-flight stragglers are abandoned
       (``resilience.deadline_hits``) and every unfinished task joins
       the serial fallback; no retries are attempted past the deadline.
    3. Tasks still unfinished after 1–2 are recovered by calling
       ``serial_fallback(task)`` in the parent
       (``resilience.fallbacks``); a fallback that *also* raises
       propagates.

    Genuine (non-transient) exceptions from the task body always
    propagate: retrying a deterministic failure cannot fix it.
    """
    merger = _TraceMerger()
    results: list = [None] * len(tasks)
    policy = retry if retry is not None else RetryPolicy()
    workers = max(1, min(jobs, len(tasks)))

    def pool_round(indices: "list[int]") -> "tuple[list[int], list[int]]":
        """One pool generation: submit ``indices``, classify the losses."""
        broken: list[int] = []
        timed_out: list[int] = []
        abandoned = False
        pool = _pool(workers, initializer, initargs)
        try:
            futures = [
                (index, pool.submit(worker_fn, (index, tasks[index])))
                for index in indices
            ]
            for index, future in futures:
                if abandoned:
                    timed_out.append(index)
                    continue
                try:
                    timeout = deadline.remaining() if deadline is not None else None
                    task_index, result, trace, pid = future.result(timeout=timeout)
                    results[task_index] = result
                    merger.absorb(trace, pid)
                except FuturesTimeoutError:
                    obs.count("resilience.deadline_hits")
                    abandoned = True
                    timed_out.append(index)
                except BrokenProcessPool:
                    broken.append(index)
                except TransientWorkerError:
                    broken.append(index)
        finally:
            # On deadline abandonment, don't wait for hung stragglers —
            # cancel what never started and let orphans finish unobserved.
            pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
        return broken, timed_out

    pending = list(range(len(tasks)))
    lost_broken: list[int] = []
    lost_timed_out: list[int] = []
    attempt = 0
    while pending:
        lost_broken, timed_out = pool_round(pending)
        lost_timed_out.extend(timed_out)
        if not lost_broken:
            break
        if timed_out or attempt >= policy.max_retries:
            break
        if deadline is not None and deadline.expired:
            break
        attempt += 1
        obs.count("resilience.retries", len(lost_broken))
        policy.sleep(attempt)
        pending = lost_broken
        lost_broken = []

    lost = sorted(lost_broken + lost_timed_out)
    for index in lost:
        if index not in lost_timed_out:
            obs.count("parallel.broken_pool_recoveries")
        obs.count("resilience.fallbacks")
        results[index] = serial_fallback(tasks[index])
    if lost and merger.tracing:
        obs.gauge("parallel.degraded", True)
    merger.finish()
    return results


# ----------------------------------------------------------------------
# run_suite fan-out: one worker task per detector
# ----------------------------------------------------------------------
def _init_suite_worker(
    scenario: "Scenario", known: "KnownLabels | None", trace: bool
) -> None:
    _WORKER_STATE["scenario"] = scenario
    _WORKER_STATE["known"] = known
    _WORKER_STATE["trace"] = trace


def _evaluate_one_detector(
    payload: tuple[int, "Detector"],
) -> tuple[int, "DetectorRun", dict | None, int]:
    from .harness import evaluate_detector

    index, detector = payload
    run, trace, pid = _run_traced(
        lambda: evaluate_detector(
            detector, _WORKER_STATE["scenario"], _WORKER_STATE["known"]
        )
    )
    return index, run, trace, pid


def run_suite_parallel(
    detectors: "list[Detector]",
    scenario: "Scenario",
    known: "KnownLabels | None",
    jobs: int,
    retry: "RetryPolicy | None" = None,
    deadline: "Deadline | None" = None,
) -> "list[DetectorRun]":
    """Evaluate ``detectors`` on ``scenario`` across ``jobs`` processes.

    Labels are resolved by the caller (:func:`repro.eval.harness.run_suite`)
    so the simulation seed is consumed exactly once, identically to the
    serial path.  Results come back in input order.  A detector whose
    worker died is retried per ``retry`` (none by default), then
    re-evaluated serially and its run marked ``degraded=True``; the
    detection output is identical either way.
    """
    from .harness import evaluate_detector

    def recover(detector: "Detector") -> "DetectorRun":
        run = evaluate_detector(detector, scenario, known)
        run.degraded = True
        return run

    return _fan_out(
        detectors,
        _evaluate_one_detector,
        _init_suite_worker,
        (scenario, known, obs.current() is not None),
        jobs,
        recover,
        retry=retry,
        deadline=deadline,
    )


# ----------------------------------------------------------------------
# sensitivity_sweep fan-out: one worker task per parameter value
# ----------------------------------------------------------------------
def _init_sweep_worker(
    scenario: "Scenario",
    parameter: str,
    base_params: "RICDParams",
    screening: "ScreeningParams",
    known: "KnownLabels | None",
    trace: bool,
) -> None:
    _WORKER_STATE["scenario"] = scenario
    _WORKER_STATE["parameter"] = parameter
    _WORKER_STATE["base_params"] = base_params
    _WORKER_STATE["screening"] = screening
    _WORKER_STATE["known"] = known
    _WORKER_STATE["trace"] = trace


def _evaluate_one_value(
    payload: tuple[int, float],
) -> tuple[int, "SweepPoint", dict | None, int]:
    from .sweeps import evaluate_sweep_point

    index, value = payload
    point, trace, pid = _run_traced(
        lambda: evaluate_sweep_point(
            _WORKER_STATE["scenario"],
            _WORKER_STATE["parameter"],
            value,
            _WORKER_STATE["base_params"],
            _WORKER_STATE["screening"],
            _WORKER_STATE["known"],
        )
    )
    return index, point, trace, pid


def sensitivity_sweep_parallel(
    scenario: "Scenario",
    parameter: str,
    values: Sequence[float],
    base_params: "RICDParams",
    screening: "ScreeningParams",
    known: "KnownLabels | None",
    jobs: int,
    retry: "RetryPolicy | None" = None,
    deadline: "Deadline | None" = None,
) -> "list[SweepPoint]":
    """Evaluate one Fig. 9 sweep across ``jobs`` processes, in value order.

    Like :func:`run_suite_parallel`, a value whose worker died is
    retried per ``retry`` and finally recovered serially in the parent
    instead of surfacing a bare :class:`BrokenProcessPool`.
    """
    from .sweeps import evaluate_sweep_point

    def recover(value: float) -> "SweepPoint":
        return evaluate_sweep_point(
            scenario, parameter, value, base_params, screening, known
        )

    return _fan_out(
        list(values),
        _evaluate_one_value,
        _init_sweep_worker,
        (scenario, parameter, base_params, screening, known, obs.current() is not None),
        jobs,
        recover,
        retry=retry,
        deadline=deadline,
    )
