"""Env-gated fault injection for the resilience test harness.

Production code paths call :func:`inject` at stage boundaries (worker
task start, extraction, screening, feedback round, incremental recheck,
streaming-service ingest, store write).  When no injector is installed
the call is one module-global read plus a ``None`` check — no RNG, no
dict lookups — so the fault hooks are effectively free outside the test
matrix.

Activation happens two ways, both covered by :func:`injecting`:

* **environment** — ``RICD_FAULTS="crash=0.2,hang=0.05,seed=7"`` enables
  injection in *every* process that imports this module, which is how
  faults reach pool workers under both the ``fork`` and ``spawn`` start
  methods (workers inherit the parent's environment either way);
* **programmatic** — :func:`install` pins an injector instance in the
  current process only (fork workers inherit it through the process
  image; spawn workers do not — use the env form for those).

Spec grammar (comma-separated ``key=value``)::

    crash=0.2          probability a site hard-kills its worker process
    hang=0.05          probability a site sleeps for hang_seconds
    error=0.1          probability a site raises InjectedFaultError
    seed=7             RNG seed (defaults to 0; draws are per-process
                       deterministic)
    hang_seconds=0.25  sleep duration for injected hangs
    sites=worker|extraction   restrict injection to the listed sites
    max=3              stop injecting after this many fired faults

A *crash* only hard-kills genuine pool workers
(``multiprocessing.parent_process() is not None``); in the orchestrating
parent it degrades to raising :class:`InjectedFaultError` so the test
harness never kills the process running the tests.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from contextlib import contextmanager

from .. import obs
from ..errors import ConfigError, InjectedFaultError

__all__ = ["FaultInjector", "inject", "injecting", "install", "reset", "ENV_VAR"]

#: Environment variable holding the injection spec.
ENV_VAR = "RICD_FAULTS"

#: Known stage-boundary sites (documentation + spec validation).
SITES = (
    "worker",
    "extraction",
    "screening",
    "feedback",
    "recheck",
    "ingest",
    "store",
)


class FaultInjector:
    """Probabilistic/targeted fault source for the resilience suite.

    One injector holds a seeded RNG, so a fixed ``seed`` yields the same
    fault sequence per process run after run.  Probabilities are
    evaluated per :meth:`fire` call in cumulative bands
    (crash, then hang, then error), so ``crash + hang + error`` must not
    exceed 1.

    Examples
    --------
    >>> injector = FaultInjector(error=1.0, sites=("extraction",), max_faults=1)
    >>> injector.fire("screening")  # filtered site: no fault
    >>> try:
    ...     injector.fire("extraction")
    ... except InjectedFaultError as err:
    ...     print(err.site, err.kind)
    extraction error
    >>> injector.fire("extraction")  # max_faults reached: no fault
    """

    def __init__(
        self,
        crash: float = 0.0,
        hang: float = 0.0,
        error: float = 0.0,
        seed: int = 0,
        hang_seconds: float = 0.25,
        sites: "tuple[str, ...] | frozenset[str] | None" = None,
        max_faults: int | None = None,
    ):
        for name, value in (("crash", crash), ("hang", hang), ("error", error)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}", name)
        if crash + hang + error > 1.0:
            raise ConfigError("crash + hang + error must not exceed 1", "crash")
        if hang_seconds < 0:
            raise ConfigError(f"hang_seconds must be >= 0, got {hang_seconds}", "hang_seconds")
        if max_faults is not None and max_faults < 0:
            raise ConfigError(f"max must be >= 0, got {max_faults}", "max")
        self.crash = crash
        self.hang = hang
        self.error = error
        self.seed = seed
        self.hang_seconds = hang_seconds
        self.sites = frozenset(sites) if sites is not None else None
        self.max_faults = max_faults
        self.fired = 0
        self._rng = random.Random(f"faults:{seed}")

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Parse the ``RICD_FAULTS`` grammar into an injector."""
        kwargs: dict = {}
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ConfigError(f"bad fault spec chunk {chunk!r}", "RICD_FAULTS")
            key, _, value = chunk.partition("=")
            key = key.strip()
            value = value.strip()
            if key in ("crash", "hang", "error", "hang_seconds"):
                kwargs[key] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "max":
                kwargs["max_faults"] = int(value)
            elif key == "sites":
                kwargs["sites"] = tuple(s for s in value.split("|") if s)
            else:
                raise ConfigError(f"unknown fault spec key {key!r}", "RICD_FAULTS")
        return cls(**kwargs)

    def fire(self, site: str) -> None:
        """Roll the dice for ``site``; crash, hang or raise accordingly."""
        if self.sites is not None and site not in self.sites:
            return
        if self.max_faults is not None and self.fired >= self.max_faults:
            return
        draw = self._rng.random()
        if draw < self.crash:
            kind = "crash"
        elif draw < self.crash + self.hang:
            kind = "hang"
        elif draw < self.crash + self.hang + self.error:
            kind = "error"
        else:
            return
        self.fired += 1
        obs.count(f"resilience.injected.{kind}")
        if kind == "hang":
            time.sleep(self.hang_seconds)
            return
        if kind == "crash" and multiprocessing.parent_process() is not None:
            # A genuine pool worker: die the way an OOM kill / segfault
            # does — no exception, no cleanup, broken pool in the parent.
            os._exit(3)
        # Parent-process "crash" and plain error injection both surface
        # as a retryable typed exception.
        raise InjectedFaultError(site, kind)

    def __repr__(self) -> str:
        return (
            f"FaultInjector(crash={self.crash}, hang={self.hang}, "
            f"error={self.error}, seed={self.seed}, fired={self.fired})"
        )


#: The installed injector (None = disabled).  ``_ENV_CHECKED`` latches the
#: one-time environment lookup so the disabled hot path is a pair of
#: module-global reads.
_ACTIVE: FaultInjector | None = None
_ENV_CHECKED = False


def _resolve() -> FaultInjector | None:
    global _ACTIVE, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        spec = os.environ.get(ENV_VAR)
        if spec:
            _ACTIVE = FaultInjector.from_spec(spec)
    return _ACTIVE


def inject(site: str) -> None:
    """Fire the installed injector at ``site`` (no-op when disabled)."""
    injector = _ACTIVE
    if injector is None:
        if _ENV_CHECKED:
            return
        injector = _resolve()
        if injector is None:
            return
    injector.fire(site)


def install(injector: FaultInjector | None) -> None:
    """Install ``injector`` process-wide (``None`` disables injection).

    Programmatic installs reach fork-started pool workers (they inherit
    the parent's memory image) but not spawn-started ones — use
    :func:`injecting` with a spec string when workers must participate
    under any start method.
    """
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = injector
    _ENV_CHECKED = True


def reset() -> None:
    """Forget any installed injector and re-arm the env lookup."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = None
    _ENV_CHECKED = False


@contextmanager
def injecting(spec_or_injector: "str | FaultInjector"):
    """Enable fault injection for a with-block, then restore the prior state.

    A *spec string* is additionally exported through ``RICD_FAULTS`` so
    pool workers started inside the block (fork or spawn) inject too; an
    injector *instance* is installed in this process only.
    """
    prior_env = os.environ.get(ENV_VAR)
    if isinstance(spec_or_injector, str):
        injector = FaultInjector.from_spec(spec_or_injector)
        os.environ[ENV_VAR] = spec_or_injector
    else:
        injector = spec_or_injector
    install(injector)
    try:
        yield injector
    finally:
        if isinstance(spec_or_injector, str):
            if prior_env is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = prior_env
        reset()
