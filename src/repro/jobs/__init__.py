"""Persistent async jobs: sharded, cached, resumable sweep execution.

The subsystem behind ``POST /v1/jobs`` and ``Study.submit()``:

- :mod:`~repro.jobs.store` — crash-safe JSON-per-job state with the
  ``queued → running → done/failed/cancelled`` lifecycle, progress
  counters and a change-notification condition for streams.
- :mod:`~repro.jobs.sharder` — deterministic content-hash scenario
  slicing plus the scatter-merge that reassembles columnar shard
  tables bit-identically to an unsharded run.
- :mod:`~repro.jobs.manager` — the dispatcher + worker pool that
  evaluates shards through the columnar engine, single-flighted with
  inline requests and instrumented end to end.
- :mod:`~repro.jobs.handle` — the ``AsyncResult`` handle shared by the
  local manager and the remote service client.
"""

from .handle import AsyncResult
from .manager import (
    JobCancelled,
    JobError,
    JobManager,
    JobStateError,
    JobTimeout,
    WorkerPool,
)
from .sharder import Shard, merge_stats, merge_tables, shard_scenario
from .store import (
    JOBS_DIR_ENV,
    JobNotFound,
    JobRecord,
    JobStore,
    STATES,
    TERMINAL_STATES,
    default_jobs_dir,
)

__all__ = [
    "AsyncResult",
    "JOBS_DIR_ENV",
    "JobCancelled",
    "JobError",
    "JobManager",
    "JobNotFound",
    "JobRecord",
    "JobStateError",
    "JobStore",
    "JobTimeout",
    "STATES",
    "Shard",
    "TERMINAL_STATES",
    "WorkerPool",
    "default_jobs_dir",
    "merge_stats",
    "merge_tables",
    "shard_scenario",
]
