"""Unit tests for the fault-injection harness itself."""

import os
import time

import pytest

from repro import obs
from repro.errors import ConfigError, InjectedFaultError, TransientWorkerError
from repro.resilience import FaultInjector, inject, injecting, install
from repro.resilience.faults import ENV_VAR, SITES


class TestSpecParsing:
    def test_full_grammar(self):
        injector = FaultInjector.from_spec(
            "crash=0.2, hang=0.05, error=0.1, seed=7, hang_seconds=0.5,"
            " sites=worker|extraction, max=3"
        )
        assert injector.crash == 0.2
        assert injector.hang == 0.05
        assert injector.error == 0.1
        assert injector.seed == 7
        assert injector.hang_seconds == 0.5
        assert injector.sites == frozenset({"worker", "extraction"})
        assert injector.max_faults == 3

    def test_empty_chunks_ignored(self):
        injector = FaultInjector.from_spec("error=1.0,,")
        assert injector.error == 1.0

    @pytest.mark.parametrize("spec", ["bogus", "nope=1", "crash=2.0", "crash=0.9,hang=0.9"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            FaultInjector.from_spec(spec)

    def test_documented_sites_are_instrumented(self):
        # The spec grammar's site names must match the production call
        # sites; a typo here would silently disable targeted injection.
        assert set(SITES) == {
            "worker", "extraction", "screening", "feedback", "recheck",
            "ingest", "store",
        }


class TestFire:
    def test_error_raises_typed_retryable(self):
        injector = FaultInjector(error=1.0)
        with pytest.raises(InjectedFaultError) as excinfo:
            injector.fire("extraction")
        assert isinstance(excinfo.value, TransientWorkerError)
        assert excinfo.value.site == "extraction"
        assert excinfo.value.kind == "error"

    def test_crash_in_parent_degrades_to_error(self):
        # In the orchestrating parent a "crash" must never kill the
        # process running the tests; it surfaces as a retryable error.
        injector = FaultInjector(crash=1.0)
        with pytest.raises(InjectedFaultError) as excinfo:
            injector.fire("worker")
        assert excinfo.value.kind == "crash"

    def test_hang_sleeps_then_returns(self):
        injector = FaultInjector(hang=1.0, hang_seconds=0.02)
        start = time.monotonic()
        injector.fire("worker")
        assert time.monotonic() - start >= 0.02

    def test_sites_filter(self):
        injector = FaultInjector(error=1.0, sites=("extraction",))
        injector.fire("screening")  # filtered: no fault
        assert injector.fired == 0
        with pytest.raises(InjectedFaultError):
            injector.fire("extraction")

    def test_max_faults_budget(self):
        injector = FaultInjector(error=1.0, max_faults=2)
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                injector.fire("worker")
        injector.fire("worker")  # budget spent: no fault
        assert injector.fired == 2

    def test_fault_sequence_is_seed_deterministic(self):
        def sequence(seed):
            injector = FaultInjector(crash=0.0, error=0.3, seed=seed)
            outcomes = []
            for _ in range(20):
                try:
                    injector.fire("worker")
                    outcomes.append("ok")
                except InjectedFaultError:
                    outcomes.append("error")
            return outcomes

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_fired_faults_are_counted(self):
        recorder = obs.Recorder()
        with obs.recording(recorder):
            injector = FaultInjector(error=1.0, max_faults=2)
            for _ in range(3):
                try:
                    injector.fire("worker")
                except InjectedFaultError:
                    pass
        assert recorder.counters["resilience.injected.error"] == 2


class TestActivation:
    def test_disabled_inject_is_a_noop(self):
        inject("worker")  # no injector installed: must not raise

    def test_install_and_reset(self):
        install(FaultInjector(error=1.0, max_faults=1))
        with pytest.raises(InjectedFaultError):
            inject("worker")
        install(None)
        inject("worker")

    def test_env_var_activates_lazily(self):
        from repro.resilience import faults

        os.environ[ENV_VAR] = "error=1.0,max=1"
        faults.reset()  # re-arm the lazy env lookup
        with pytest.raises(InjectedFaultError):
            inject("worker")
        inject("worker")  # max reached

    def test_injecting_spec_exports_and_restores_env(self):
        assert os.environ.get(ENV_VAR) is None
        with injecting("error=1.0,sites=extraction") as injector:
            assert os.environ[ENV_VAR] == "error=1.0,sites=extraction"
            assert injector.error == 1.0
            with pytest.raises(InjectedFaultError):
                inject("extraction")
        assert os.environ.get(ENV_VAR) is None
        inject("extraction")  # disabled again

    def test_injecting_instance_stays_process_local(self):
        with injecting(FaultInjector(error=1.0, max_faults=1)):
            assert os.environ.get(ENV_VAR) is None
            with pytest.raises(InjectedFaultError):
                inject("worker")
        inject("worker")
