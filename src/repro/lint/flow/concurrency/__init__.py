"""Static concurrency analysis: locksets, lock order, blocking regions,
module state shared across threads.

Four interprocedural rules, three of them over the shared concurrency
model (see :mod:`repro.lint.flow.concurrency.model`):

* ``deep-lockset-races``       — Eraser-style lockset race detection
  with ``# repro-guard:`` declared invariants;
* ``deep-lock-order``          — acquisition-order cycles are
  potential deadlocks (Condition.wait re-acquires and file locks
  included);
* ``deep-blocking-under-lock`` — the blocking effect lattice
  (joins-process / waits-network / sleeps / long-polls) propagated
  bottom-up, flagged wherever a lock is held;
* ``deep-worker-safety``       — module-global mutation reachable from
  HTTP handler methods and ``threading.Thread`` targets.
"""

from repro.lint.flow.concurrency.blocking import (
    BLOCKING_EFFECTS,
    BlockingAnalysis,
    DeepBlockingUnderLock,
)
from repro.lint.flow.concurrency.model import (
    ConcurrencyFacts,
    ConcurrencyModel,
    concurrency_facts,
)
from repro.lint.flow.concurrency.order import (
    DeepLockOrder,
    LockOrderGraph,
    build_lock_order,
)
from repro.lint.flow.concurrency.races import DeepLocksetRaces

__all__ = [
    "BLOCKING_EFFECTS",
    "BlockingAnalysis",
    "ConcurrencyFacts",
    "ConcurrencyModel",
    "DeepBlockingUnderLock",
    "DeepLockOrder",
    "DeepLocksetRaces",
    "LockOrderGraph",
    "build_lock_order",
    "concurrency_facts",
]
