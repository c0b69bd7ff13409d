"""``repro.service`` — the containment engine as a deployable service.

Four layers turn the cached :class:`~repro.api.ContainmentEngine`
library facade into a scalable, self-healing decision service:

* :mod:`repro.service.pool` — :class:`WorkerPool`, a multiprocess
  ``decide_many``/``decide_stream`` that shards requests onto
  per-process engines by a deterministic query/semiring digest
  (identical pairs share one worker's LRUs) and preserves input order;
  dead workers are respawned warm from the latest snapshot, their
  in-flight requests re-driven, and skewed shards relieved through a
  bounded work-stealing overflow queue — all while keeping results
  byte-identical to sequential evaluation;
* :mod:`repro.service.snapshot` — versioned, validated warm-start
  snapshots of every engine cache layer, so short-lived CLI batch runs
  stop re-paying for structural work;
* :mod:`repro.service.server` — :class:`DecisionServer`, the JSONL
  protocol's control ops, request counters and periodic snapshot
  flushes;
* :mod:`repro.service.gateway` — :class:`AsyncGateway`, the one front
  end behind ``python -m repro serve``: stdio or TCP on one event loop,
  with per-connection pipelining, bounded input lines, bounded
  admission with load shedding, and per-request deadlines, while
  :mod:`repro.service.metrics` counts every admission and supervision
  event for the ``stats`` op.
"""

from .gateway import AsyncGateway
from .metrics import ServiceMetrics
from .pool import DecisionError, WorkerPool, shard_key
from .server import DecisionServer
from .snapshot import (SNAPSHOT_MAGIC, SNAPSHOT_VERSION, SnapshotError,
                       load_snapshot, merge_states, read_snapshot,
                       save_snapshot, write_snapshot)

__all__ = [
    "AsyncGateway",
    "DecisionError",
    "DecisionServer",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "ServiceMetrics",
    "SnapshotError",
    "WorkerPool",
    "load_snapshot",
    "merge_states",
    "read_snapshot",
    "save_snapshot",
    "shard_key",
    "write_snapshot",
]
