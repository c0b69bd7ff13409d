"""``repro.service`` — the containment engine as a deployable service.

Four modules turn the cached :class:`~repro.api.ContainmentEngine`
library facade into a scalable, self-healing decision service:

* :mod:`repro.service.pool` — :class:`WorkerPool`, a multiprocess
  ``decide_many``/``decide_stream`` that shards requests onto
  per-process engines by a deterministic query/semiring digest
  (identical pairs share one worker's LRUs) and preserves input order;
  ``submit`` returns a :class:`concurrent.futures.Future` of one
  request's outcome, and cancelling it abandons the request;
  dead workers are respawned warm from the latest snapshot, their
  in-flight requests re-driven, and skewed shards relieved by idle
  workers stealing fresh requests from the deepest backlog — all while
  keeping results byte-identical to sequential evaluation;
* :mod:`repro.service.snapshot` — versioned, validated warm-start
  snapshots of every engine cache layer, so short-lived CLI batch runs
  stop re-paying for structural work;
* :mod:`repro.service.gateway` — :class:`AsyncGateway`, the one front
  end behind ``python -m repro serve``: stdio or TCP on one event loop,
  with per-connection pipelining, bounded input lines, bounded
  admission with load shedding, per-request deadlines, the protocol's
  control ops and periodic snapshot flushes;
* :mod:`repro.service.metrics` — :class:`ServiceMetrics`, which counts
  every admission and supervision event for the ``stats`` op.

Per-request failures are :class:`~repro.api.batch.DecisionError`
values, re-exported here: the one in-band error type of ``batch``,
``serve`` and the pool.
"""

from ..api.batch import DecisionError
from .gateway import AsyncGateway
from .metrics import ServiceMetrics
from .pool import WorkerPool, shard_key
from .snapshot import (SNAPSHOT_MAGIC, SNAPSHOT_VERSION, SnapshotError,
                       load_snapshot, merge_states, read_snapshot,
                       save_snapshot, write_snapshot)

__all__ = [
    "AsyncGateway",
    "DecisionError",
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
