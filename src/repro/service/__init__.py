"""Simulation-as-a-service: a job server over the sweep harness.

The package turns the repro from a one-shot CLI into a long-running,
queryable network-design service, stdlib-only on top of the existing
harness:

* :mod:`repro.service.store` — a multi-reader/multi-writer safe result
  store extending :class:`repro.harness.cache.ResultCache` with a lock-
  file-guarded index (O(1) listing) and an LRU size budget.
* :mod:`repro.service.jobs` — the job manager: JSON submissions are
  validated into content-addressed :class:`~repro.harness.jobs.JobSpec`
  cells and run on the process-pool executor with per-job state
  (queued / running / done / failed / cancelled), a bounded queue, and
  cancellation of both queued and in-flight jobs.
* :mod:`repro.service.api` — the HTTP face on
  ``http.server.ThreadingHTTPServer``: ``POST /jobs``,
  ``GET /jobs/{id}``, long-poll ``GET /jobs/{id}/events`` (progress +
  SimTrace stats), ``GET /results``, ``GET /leaderboard``.
* :mod:`repro.service.leaderboard` — completed (topology, routing,
  workload) cells ranked by a registered metric (p99 FCT, throughput,
  ML iteration time, ...) with stable tie-breaks.
* :mod:`repro.service.client` — the thin ``urllib`` client behind
  ``repro submit|status|results|leaderboard``.

Quick start::

    from repro.service import JobManager, ServiceStore, create_server

    store = ServiceStore(root, max_bytes=512 * 1024 * 1024)
    manager = JobManager(store, workers=4).start()
    server = create_server("127.0.0.1", 8277, manager, store)
    server.serve_forever()
"""

from repro.service.api import ReproServer, create_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    JobManager,
    QueueFullError,
    ServiceJob,
    UnknownJobError,
    ValidationError,
    validate_submission,
)
from repro.service.leaderboard import (
    METRIC_REGISTRY,
    LeaderboardEntry,
    MetricSpec,
    build_leaderboard,
    metric_names,
    register_entry_builder,
    register_metric,
    render_leaderboard,
)
from repro.service.store import ServiceStore, StoreLock, StoreLockTimeout

__all__ = [
    "JOB_STATES",
    "METRIC_REGISTRY",
    "JobManager",
    "LeaderboardEntry",
    "MetricSpec",
    "QueueFullError",
    "ReproServer",
    "ServiceClient",
    "ServiceError",
    "ServiceJob",
    "ServiceStore",
    "StoreLock",
    "StoreLockTimeout",
    "TERMINAL_STATES",
    "UnknownJobError",
    "ValidationError",
    "build_leaderboard",
    "create_server",
    "metric_names",
    "register_entry_builder",
    "register_metric",
    "render_leaderboard",
    "validate_submission",
]
