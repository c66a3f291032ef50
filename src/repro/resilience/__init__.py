"""Resilience layer: retry/backoff, deadlines, and fault injection.

The paper deploys RICD as a production service over a 20M-user click
table (Section VII), where worker crashes, stragglers and partial
failures are routine.  This package gives every path that can fail
part-way — the evaluation pool, the feedback loop, the incremental
recheck and the store — one shared vocabulary for surviving them:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter (seeded, so two runs back off identically);
* :class:`Deadline` — a monotonic soft budget; expiry abandons pool
  stragglers to the serial fallback and stops new feedback rounds
  instead of killing the detection;
* :class:`FaultInjector` / :func:`inject` — an env-gated test harness
  that fires probabilistic or targeted worker crashes, task hangs and
  exceptions at stage boundaries; production code pays one ``None``
  check per boundary when disabled.

Every retry, deadline hit, fallback and injected fault is counted on the
active :mod:`repro.obs` recorder under ``resilience.*``, so a ``--trace``
run shows exactly how much turbulence a detection absorbed.
"""

from .faults import ENV_VAR, FaultInjector, inject, injecting, install, reset
from .policy import Deadline, RetryPolicy

__all__ = [
    "RetryPolicy",
    "Deadline",
    "FaultInjector",
    "inject",
    "injecting",
    "install",
    "reset",
    "ENV_VAR",
]
