"""A self-healing, sharded multiprocess pool over :class:`ContainmentEngine`.

``ContainmentEngine.decide_many`` is strictly sequential — fine for a
library call, wasteful for the rewrite-auditing and bag-semantics sweep
workloads that issue thousands of independent Table-1 decisions.
:class:`WorkerPool` runs one engine per OS process and shards requests
with a *deterministic* digest of the parsed-query/semiring key, so:

* identical ``(semiring, q1, q2, equivalence)`` requests always land on
  the same worker and therefore share that worker's verdict LRU — a
  repeat is a ``cached: true`` hit exactly as in a sequential engine;
* structurally similar requests cluster, so the per-worker structural
  LRUs (hom search/enumeration, covered atoms, descriptions, tropical
  poly_leq certificates) stay hot;
* the assignment is reproducible across runs (the digest does not
  depend on ``PYTHONHASHSEED``).

Results are returned in input order regardless of which worker finishes
first.  Per-request failures (unknown semirings, malformed queries) are
reported in-band as :class:`DecisionError` values — one bad request
never kills the stream.  Workers can warm-start from a
:mod:`repro.service.snapshot` file, and :meth:`WorkerPool.collect_caches`
gathers the merged cache state back out of the workers so a batch run
can leave a fresh snapshot behind.

**Dispatch and stealing.**  Dispatch is parent-side: each shard has a
backlog deque and at most ``prefetch`` requests actually inside the
worker process, so the parent still holds everything it may need to
re-drive or steal.  When a shard's backlog outgrows ``steal_threshold``,
its *stealable* tail spills into a bounded overflow deque that any
worker with an empty backlog may drain.  Only globally-fresh requests
are stealable: a request whose key was already decided (or is in
flight) is pinned to its home shard, and a spilled occurrence is pulled
back home when its duplicate arrives, so verdict-LRU locality — and
therefore the ``cached`` flag — is preserved.

**Respawn and re-drive.**  A dead worker is replaced *in its own shard
slot* by a fresh process, warm-started from the pool's snapshot file
with the verdict layer stripped (structural caches carry over; the
``cached`` flags of its verdicts do not).  Requests that were on the
dead worker are re-queued, in sequence order, at the front of the
replacement's backlog.  Every worker answers on its own result pipe,
and the parent holds the only read end: a worker killed mid-reply can
neither wedge the others (as one shared queue's write lock, dying with
its holder, would) nor deliver a stale reply once its replacement runs
(the dead generation's pipe is closed at respawn).  A request
that kills its worker more than ``max_redrives`` times is answered with
an in-band error instead of crash-looping the shard.  A shard that dies
more than ``max_respawns`` times is retired: its work, and every later
request hashing there, gets an in-band error (``max_respawns=0`` is
the plain retire-on-death policy).

The byte-identity contract (``decide_many`` equals sequential
evaluation, chaos included) is kept by one delivery-time rule: a
request whose key was seen before — the definition of "would have hit
a sequential engine's verdict cache" — has its ``cached`` flag
re-stamped ``true`` even when chaos (a respawned worker's cold verdict
LRU, or a steal to a foreign worker) forced a recomputation.  Fresh
keys are never stamped, and stamping never flips ``true`` to ``false``.
Every supervision event is counted in a shared
:class:`~repro.service.metrics.ServiceMetrics`, surfaced by the
``stats`` op.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
from collections import OrderedDict, deque
from multiprocessing.connection import wait as wait_readable
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..api.batch import error_text
from ..api.documents import (ContainmentRequest, VerdictDocument,
                             coerce_request_id)
from ..api.engine import ContainmentEngine
from ..queries.parser import ParseError
from .metrics import ServiceMetrics
from .snapshot import SnapshotError, load_snapshot, merge_states

__all__ = ["DecisionError", "WorkerPool", "shard_key", "sum_stats"]

#: How often the collector checks worker liveness even while results
#: keep flowing — a steady stream must not postpone crash detection.
_REAP_INTERVAL = 0.25

#: Worker start method: ``fork`` keeps worker start-up cheap (the parent
#: has already imported the engine); elsewhere the platform default.
_START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                 else multiprocessing.get_all_start_methods()[0])

#: Bound on the work-stealing overflow deque; past it, spilling stops
#: and the backlog simply grows on its home shard.
_OVERFLOW_LIMIT = 256


def sum_stats(infos: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Sum per-worker ``cache_info()`` counter dicts into one.

    The single aggregation rule for worker stats — used by
    :meth:`WorkerPool.aggregate_stats` and by the server's ``stats``
    op (which already holds the per-worker list and must not trigger a
    second broadcast).
    """
    totals: dict[str, int] = {}
    for info in infos:
        for key, value in info.items():
            totals[key] = totals.get(key, 0) + value
    return totals

#: Exceptions a decision may raise that are *request* problems, not
#: pool problems — converted to in-band errors.
_REQUEST_ERRORS = (ValueError, TypeError, KeyError, ParseError)


@dataclass(frozen=True)
class DecisionError:
    """An in-band per-request failure from the pool.

    Mirrors the error objects of the JSONL batch stream: the message
    text plus the request's correlation id (when one was readable).
    """

    error: str
    id: str | None = None

    def to_dict(self) -> dict:
        """Plain JSON-able representation."""
        data: dict = {"error": self.error}
        if self.id is not None:
            data["id"] = self.id
        return data


def request_id_of(item) -> str | None:
    """The correlation id of a raw request, when one is readable."""
    if isinstance(item, Mapping):
        try:
            return coerce_request_id(item.get("id"))
        except TypeError:
            pass
    return None


def shard_key(request: ContainmentRequest, registry=None) -> bytes:
    """The deterministic sharding key of a request.

    Built from the canonical semiring name (resolved through
    ``registry`` so aliases like ``"bool"`` and ``"B"`` co-locate) and
    the canonical reprs of the parsed queries — both stable across
    processes and runs.  Must align with the engine's verdict-cache key:
    same shard key ⟺ same verdict-cache entry, which is what makes a
    parallel run's ``cached`` flags identical to a sequential run's.
    """
    token = request.semiring
    if registry is not None:
        semiring = registry.find(request.semiring)
        if semiring is not None:
            token = semiring.name
    return "\x1f".join((token, repr(request.q1), repr(request.q2),
                        str(int(request.equivalence)))).encode("utf-8")


def _close_inherited_sockets() -> None:
    """Close every socket fd this process inherited across fork.

    A worker forked while the serving tier has open TCP sockets —
    above all a *respawned* worker, forked mid-service — inherits
    duplicates of the listen socket and of every accepted connection.
    Held in the worker, those duplicates mean a client never sees the
    connection close (no FIN while any copy of the fd is open), so a
    pipelined client would hang waiting for EOF after a respawn.  The
    pool's queues and result pipes are FIFOs, not sockets, and stay
    untouched.
    """
    import stat
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # pragma: no cover - non-/proc platform
        fds = list(range(3, 4096))
    for fd in fds:
        if fd < 3:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


class _BoundedKeySet:
    """An insertion-bounded set of key digests (oldest dropped first).

    Mirrors the engine's verdict-LRU bound so the parent's "was this
    key decided before?" memory cannot grow without limit on endless
    streams.  Eviction only ever *under*-reports a duplicate, which
    degrades a ``cached`` stamp, never correctness — and the bound is
    far above the per-worker verdict LRU, so in practice the parent
    forgets after the workers do.
    """

    def __init__(self, maxsize: int = 1 << 17):
        self._maxsize = max(1, int(maxsize))
        self._entries: OrderedDict[bytes, None] = OrderedDict()

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def add(self, key: bytes) -> None:
        """Insert a key, evicting the oldest entry past the bound."""
        if key in self._entries:
            return
        self._entries[key] = None
        if len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)


def _worker_main(index: int, inbox, outbox, snapshot_path,
                 load_verdicts: bool) -> None:
    """One worker process: an engine plus a message loop.

    Requests and control messages arrive on ``inbox``; every answer is
    written to ``outbox``, the worker's own result pipe.

    ``load_verdicts`` controls whether the warm-start snapshot's
    verdict layer is imported: a *respawned* worker must start with the
    structural layers only, so the requests it re-decides carry the
    same ``cached`` flags a sequential run would produce (the pool
    re-stamps true duplicates at delivery).
    """
    _close_inherited_sockets()
    engine = ContainmentEngine()
    if snapshot_path is not None:
        try:
            load_snapshot(engine, snapshot_path,
                          include_verdicts=load_verdicts)
        except SnapshotError:
            pass  # a stale/corrupt snapshot means a cold start, not a crash
    try:
        while True:
            message = inbox.get()
            kind = message[0]
            if kind == "req":
                _, seq, request = message
                try:
                    outbox.send(("ok", seq, engine.decide_request(request)))
                except _REQUEST_ERRORS as error:
                    outbox.send(("err", seq, error_text(error), request.id))
            elif kind == "caches":
                outbox.send(("caches", index,
                             engine.export_caches(
                                 include_verdicts=message[1])))
            elif kind == "stats":
                outbox.send(("stats", index, engine.cache_info()))
            elif kind == "stop":
                return
    except (KeyboardInterrupt, EOFError, OSError):
        return  # parent went away or is shutting down


class WorkerPool:
    """``decide_many``/``decide_stream`` across self-healing engine processes.

    ``workers`` defaults to ``os.cpu_count()``.  ``snapshot_path`` makes
    every worker warm-start from that snapshot file (missing or stale
    files are silently ignored).  The pool is a context manager; always
    :meth:`close` it (worker processes are not daemons of your request
    stream).  The remaining knobs bound the supervision behaviour:

    ``max_respawns``
        restarts allowed per shard before it is retired for good
        (``0`` retires a shard on its first death).
    ``max_redrives``
        times one request may be re-driven after killing its worker
        before it is answered with an in-band error.
    ``prefetch``
        requests kept inside each worker process; the rest of the
        backlog stays parent-side where it can be re-driven or stolen.
    ``steal_threshold``
        backlog depth beyond which a shard spills stealable work into
        the overflow deque.
    ``metrics``
        a shared :class:`ServiceMetrics`; one is created when omitted.

    Thread safety: all public methods may be called from multiple
    threads; a single background collector routes worker replies to
    waiters and applies the death policy.
    """

    def __init__(self, workers: int | None = None, *,
                 snapshot_path: str | os.PathLike | None = None,
                 include_verdict_snapshot: bool = True,
                 max_respawns: int = 5,
                 max_redrives: int = 2,
                 prefetch: int = 4,
                 steal_threshold: int = 8,
                 metrics: ServiceMetrics | None = None):
        count = workers if workers is not None else (os.cpu_count() or 1)
        if count < 1:
            raise ValueError(f"need at least one worker, got {count}")
        self._context = multiprocessing.get_context(_START_METHOD)
        self._snapshot_path = (os.fspath(snapshot_path)
                               if snapshot_path is not None else None)
        self._include_verdict_snapshot = include_verdict_snapshot
        self.metrics = metrics if metrics is not None \
            else ServiceMetrics(workers=count)
        self._max_respawns = max(0, int(max_respawns))
        self._max_redrives = max(0, int(max_redrives))
        self._prefetch = max(1, int(prefetch))
        self._steal_threshold = max(1, int(steal_threshold))
        # Parent-side engine: parse interning for request normalization
        # plus the registry for canonical shard keys.  It never decides.
        self._parent_engine = ContainmentEngine()
        # repro-lint: owner=_spawn_process,_broadcast,_dispatch_locked,_handle_worker_death
        self._inboxes: list = []
        self._processes: list = []
        # Parent-side read end of each worker's result pipe (None once
        # the collector saw it end).
        self._result_pipes: list = []
        self._cond = threading.Condition()
        # repro-lint: owner=_route_reply,_deliver_error_locked,result,on_result,abandon
        self._results: dict[int, tuple] = {}
        self._replies: dict[str, dict[int, Any]] = {"caches": {},
                                                    "stats": {}}
        self._assigned: dict[int, int] = {}     # seq → worker index
        self._requests: dict[int, ContainmentRequest] = {}  # in flight
        self._callbacks: dict[int, Callable] = {}
        self._abandoned: set[int] = set()
        self._active_broadcast: tuple | None = None
        self._dead: set[int] = set()
        # Parent-side dispatch state, all guarded by self._cond.
        # repro-lint: owner=submit,_reclaim_spilled_locked,_pump_locked,_retire_worker_locked,_handle_worker_death
        self._home: list[deque] = [deque() for _ in range(count)]
        # repro-lint: owner=_reclaim_spilled_locked,_pump_locked,_retire_worker_locked
        self._overflow: deque = deque()   # (seq, request, origin shard)
        self._outstanding = [0] * count   # requests inside each worker
        self._restarts = [0] * count  # repro-lint: owner=_handle_worker_death
        self._redrives: dict[int, int] = {}
        self._key_of: dict[int, bytes] = {}
        self._live_keys: dict[bytes, int] = {}   # key → in-flight count
        self._seen_keys = _BoundedKeySet()
        self._expect_cached: set[int] = set()
        self._next_seq = 0
        self._dispatch_lock = threading.Lock()
        self._control_lock = threading.Lock()
        self._closed = False
        self._stop = threading.Event()
        for index in range(count):
            self._spawn_process(index)
        self._collector = threading.Thread(target=self._collect,
                                           name="repro-pool-collector",
                                           daemon=True)
        self._collector.start()

    # -- lifecycle ------------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of worker processes (including any that have died)."""
        return len(self._processes)

    @property
    def snapshot_path(self) -> str | None:
        """The warm-start snapshot file (``None`` when not configured)."""
        return self._snapshot_path

    def worker_pids(self) -> list[int | None]:
        """Live worker process ids by shard index (``None`` when dead)."""
        pids: list[int | None] = []
        for index, process in enumerate(self._processes):
            alive = index not in self._dead and process.is_alive()
            pids.append(process.pid if alive else None)
        return pids

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn_process(self, index: int, *, load_verdicts: bool = True):
        """Create, register and start the worker process for ``index``.

        Reuses the slot when respawning: the inbox is replaced so a
        fresh worker never replays the dead one's queued messages, and
        the dead one's result pipe is closed unread.  Returns the
        started process.
        """
        inbox = self._context.Queue()
        results, outbox = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(index, inbox, outbox, self._snapshot_path,
                  load_verdicts and self._include_verdict_snapshot),
            name=f"repro-worker-{index}", daemon=True)
        if index == len(self._inboxes):
            self._inboxes.append(inbox)
            self._processes.append(process)
            self._result_pipes.append(results)
        else:
            self._inboxes[index] = inbox
            self._processes[index] = process
            if self._result_pipes[index] is not None:
                self._result_pipes[index].close()
            self._result_pipes[index] = results
        process.start()
        # The worker now holds the only write end, so its death reads
        # as end-of-file here.
        outbox.close()
        return process

    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers and the collector (idempotent).

        Escalates per worker: a cooperative ``stop`` message, then
        ``join(timeout)``, then ``terminate()`` (SIGTERM), and finally
        ``kill()`` (SIGKILL) — a worker stuck in an uninterruptible
        decision, or stopped by a debugger, cannot wedge shutdown.
        """
        with self._dispatch_lock:
            if self._closed:
                return
            self._closed = True
        for index, inbox in enumerate(self._inboxes):
            if index not in self._dead:
                try:
                    inbox.put(("stop",))
                except (ValueError, OSError):  # pragma: no cover - teardown
                    pass
        for process in self._processes:
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
            if process.is_alive():
                # SIGTERM can sit pending forever on a SIGSTOPped (or
                # masked) worker; SIGKILL cannot be blocked.
                process.kill()
                process.join(1.0)
        self._stop.set()
        self._collector.join(timeout=2.0)
        for inbox in self._inboxes:
            inbox.close()
            inbox.cancel_join_thread()
        for results in self._result_pipes:
            if results is not None:
                results.close()

    # -- dispatch --------------------------------------------------------

    def _route(self, request: ContainmentRequest) -> tuple[bytes, int]:
        """A request's verdict-key digest (duplicate detection) and the
        worker index it is routed to — both deterministic."""
        key = hashlib.blake2b(
            shard_key(request, self._parent_engine.registry),
            digest_size=16).digest()
        return key, int.from_bytes(key[:8], "big") % len(self._processes)

    def shard_of(self, request: ContainmentRequest) -> int:
        """The worker index a request is routed to (deterministic)."""
        return self._route(request)[1]

    def submit(self, request: ContainmentRequest) -> int:
        """Queue one request; returns its sequence token for :meth:`result`.

        The request joins its shard's parent-side backlog, from which
        the pump keeps each worker ``prefetch`` deep.
        """
        key, worker = self._route(request)
        with self._dispatch_lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if worker in self._dead:
                raise RuntimeError(
                    f"worker {worker} died; its shard cannot accept work")
            seq = self._next_seq
            self._next_seq += 1
            with self._cond:
                self._requests[seq] = request
                self._key_of[seq] = key
                live = key in self._live_keys
                duplicate = live or key in self._seen_keys
                self._live_keys[key] = self._live_keys.get(key, 0) + 1
                if duplicate:
                    self._expect_cached.add(seq)
                if live:
                    self._reclaim_spilled_locked(key, worker)
                self._home[worker].append((seq, request, not duplicate))
                self._pump_locked()
            return seq

    def _reclaim_spilled_locked(self, key: bytes, worker: int) -> None:
        """Move ``key``'s spilled occurrence back home (``_cond`` held).

        A duplicate is pinned to its home shard; were the occurrence it
        duplicates left in the overflow deque, the duplicate could
        overtake it there and the earlier request would then hit the
        verdict LRU — ``cached: true`` where a sequential run says
        ``false``.  Re-queued ahead of the duplicate, and pinned, the
        pair keeps submit order on one worker.
        """
        for position, (seq, request, _) in enumerate(self._overflow):
            if self._key_of.get(seq) == key:
                del self._overflow[position]
                self._home[worker].append((seq, request, False))
                return

    def _dispatch_locked(self, index: int, seq: int,
                         request: ContainmentRequest) -> None:
        """Hand one request to worker ``index`` (``self._cond`` held)."""
        self._assigned[seq] = index
        self._outstanding[index] += 1
        self._inboxes[index].put(("req", seq, request))

    def _pump_locked(self) -> None:
        """Fill every worker to ``prefetch``; spill and steal as needed.

        Must run with ``self._cond`` held.  Called after every submit
        and every delivery, so dispatch depth is an invariant, not a
        schedule.
        """
        count = len(self._processes)
        # Spill the stealable tails of oversized backlogs.
        for index in range(count):
            if index in self._dead:
                continue
            home = self._home[index]
            while (len(home) > self._steal_threshold
                   and len(self._overflow) < _OVERFLOW_LIMIT
                   and home[-1][2]):
                seq, request, _ = home.pop()
                self._overflow.append((seq, request, index))
        # Top every worker up; idle workers drain the overflow.
        for index in range(count):
            if index in self._dead:
                continue
            home = self._home[index]
            while self._outstanding[index] < self._prefetch:
                if home:
                    seq, request, _ = home.popleft()
                elif self._overflow:
                    seq, request, origin = self._overflow.popleft()
                    if origin != index:
                        self.metrics.add("steals")
                else:
                    break
                self._dispatch_locked(index, seq, request)
        self.metrics.note_depths([len(backlog) for backlog in self._home],
                                 len(self._overflow))

    # -- result collection ----------------------------------------------

    @staticmethod
    def _outcome(message: tuple) -> "VerdictDocument | DecisionError":
        """Convert a routed result message to its in-band outcome value."""
        if message[0] == "ok":
            return message[2]
        return DecisionError(message[2], id=message[3])

    def _forget_seq(self, seq: int) -> None:
        """Drop a seq's duplicate-tracking state (``self._cond`` held)."""
        self._redrives.pop(seq, None)
        self._expect_cached.discard(seq)
        key = self._key_of.pop(seq, None)
        if key is not None:
            live = self._live_keys.get(key, 0) - 1
            if live > 0:
                self._live_keys[key] = live
            else:
                self._live_keys.pop(key, None)

    def _account_delivery_locked(self, seq: int, worker: int | None,
                                 message: tuple) -> tuple:
        """Free the worker's seat; re-stamp duplicate ``cached`` flags."""
        if worker is not None:
            self._outstanding[worker] -= 1
        expect_cached = seq in self._expect_cached
        key = self._key_of.get(seq)
        self._forget_seq(seq)
        if message[0] == "ok":
            if key is not None:
                self._seen_keys.add(key)
            document = message[2]
            if expect_cached and not document.cached:
                # Chaos (respawn or steal) recomputed a verdict that a
                # sequential engine would have served from cache; the
                # document must say so.
                document = document.with_request(document.request_id, True)
                message = ("ok", seq, document)
        self._pump_locked()
        return message

    def _collect(self) -> None:
        """Single reader of the result pipes; routes replies to waiters."""
        last_reap = time.monotonic()
        while not self._stop.is_set():
            pipes = [pipe for pipe in self._result_pipes if pipe is not None]
            ready = wait_readable(pipes, timeout=0.1)
            for pipe in ready:
                try:
                    message = pipe.recv()
                except (EOFError, OSError):
                    # The worker exited, perhaps mid-reply; the reaper
                    # respawns or retires its shard.
                    self._result_pipes[self._result_pipes.index(pipe)] = None
                    pipe.close()
                    continue
                self._route_reply(message)
            if not ready or time.monotonic() - last_reap > _REAP_INTERVAL:
                self._reap_dead_workers()
                last_reap = time.monotonic()

    def _route_reply(self, message: tuple) -> None:
        """Deliver one worker reply to its waiter, callback or slot."""
        callback = None
        with self._cond:
            kind = message[0]
            if kind in ("ok", "err"):
                seq = message[1]
                worker = self._assigned.pop(seq, None)
                if worker is None:
                    # Read after its shard was retired and the request
                    # already answered with an in-band error.
                    return
                self._requests.pop(seq, None)
                message = self._account_delivery_locked(seq, worker, message)
                if seq in self._abandoned:
                    self._abandoned.discard(seq)
                elif seq in self._callbacks:
                    callback = self._callbacks.pop(seq)
                else:
                    self._results[seq] = message
            elif kind in ("caches", "stats"):
                self._replies[kind][message[1]] = message[2]
            self._cond.notify_all()
        if callback is not None:
            callback(self._outcome(message))

    def _deliver_error_locked(self, seq: int, text: str,
                              request_id) -> tuple | None:
        """Record an in-band error outcome for ``seq`` (``_cond`` held).

        Routes to the registered callback (returned as ``(callback,
        outcome)`` for the caller to fire outside the lock), the
        abandoned set, or the results map — mirroring ``_collect``.
        """
        if seq in self._abandoned:
            self._abandoned.discard(seq)
            return None
        if seq in self._callbacks:
            return (self._callbacks.pop(seq),
                    DecisionError(text, id=request_id))
        self._results[seq] = ("err", seq, text, request_id)
        return None

    # -- death policy --------------------------------------------------

    def _retire_worker_locked(self, index: int, process) -> list:
        """Retire a shard for good (``self._cond`` held).

        Everything routed to it — dispatched, backlogged, and (when no
        worker survives) the overflow — becomes an in-band error.
        Returns the ``(callback, outcome)`` pairs to fire outside the
        lock.
        """
        self._dead.add(index)
        failed = []
        for seq in sorted(seq for seq, worker in self._assigned.items()
                          if worker == index):
            del self._assigned[seq]
            failed.append((seq, f"worker {index} exited with code "
                                f"{process.exitcode} while deciding"))
        failed += [(seq, f"worker {index} died and exceeded its respawn "
                         f"budget") for seq, _, _ in self._home[index]]
        self._home[index].clear()
        self._outstanding[index] = 0
        if len(self._dead) == len(self._processes):
            # Nobody left to steal the overflow: fail it in-band rather
            # than strand its waiters.
            failed += [(seq, "all workers died; request abandoned")
                       for seq, _, _ in self._overflow]
            self._overflow.clear()
        fired = []
        for seq, text in failed:
            self._forget_seq(seq)
            request = self._requests.pop(seq, None)
            routed = self._deliver_error_locked(
                seq, text, request.id if request is not None else None)
            if routed is not None:
                fired.append(routed)
        return fired

    def _handle_worker_death(self, index: int, process) -> list:
        """Respawn the shard and re-drive its work (``self._cond`` held).

        Retires the shard once it exhausts ``max_respawns``.  In-flight
        seqs are re-queued at the front of the backlog in sequence
        order; seqs past their ``max_redrives`` budget are answered
        in-band instead.  Returns the ``(callback, outcome)`` pairs to
        fire outside the lock.
        """
        self._restarts[index] += 1
        if self._restarts[index] > self._max_respawns:
            return self._retire_worker_locked(index, process)
        self.metrics.add("respawns")
        self.metrics.note_restart(index)
        fired = []
        requeue = []
        pending = sorted(seq for seq, worker in self._assigned.items()
                         if worker == index)
        for seq in pending:
            del self._assigned[seq]
            request = self._requests.get(seq)
            if seq in self._abandoned:
                self._abandoned.discard(seq)
                self._forget_seq(seq)
                self._requests.pop(seq, None)
                continue
            attempts = self._redrives.get(seq, 0) + 1
            if attempts > self._max_redrives:
                self.metrics.add("redrive_failures")
                self._forget_seq(seq)
                self._requests.pop(seq, None)
                routed = self._deliver_error_locked(
                    seq,
                    f"request crashed worker {index} {attempts} times; "
                    f"giving up",
                    request.id if request is not None else None)
                if routed is not None:
                    fired.append(routed)
                continue
            self._redrives[seq] = attempts
            self.metrics.add("redriven")
            # Re-driven work is pinned: it must re-run on its home
            # shard, in its original order, ahead of newer arrivals.
            requeue.append((seq, request, False))
        self._outstanding[index] = 0
        self._home[index].extendleft(reversed(requeue))
        self._spawn_process(index, load_verdicts=False)
        if self._active_broadcast is not None:
            # A stats/caches broadcast was waiting on the dead worker;
            # re-send it so the caller is answered by the replacement.
            self._inboxes[index].put(self._active_broadcast)
        self._pump_locked()
        return fired

    def _reap_dead_workers(self) -> None:
        """Detect crashed workers and apply the death policy."""
        if self._closed:
            return
        for index in range(len(self._processes)):
            process = self._processes[index]
            if index in self._dead or process.is_alive():
                continue
            with self._cond:
                fired = self._handle_worker_death(index, process)
                self._cond.notify_all()
            for callback, outcome in fired:
                callback(outcome)

    # -- results ----------------------------------------------------------

    def result(self, seq: int,
               timeout: float | None = None) -> VerdictDocument | DecisionError:
        """Wait for one submitted request's outcome (in-band errors)."""
        with self._cond:
            while seq not in self._results:
                if not self._cond.wait(timeout=timeout):
                    raise TimeoutError(f"no result for request #{seq}")
            message = self._results.pop(seq)
        return self._outcome(message)

    def on_result(self, seq: int, callback: Callable) -> None:
        """Register a one-shot callback for a submitted request's outcome.

        The callback receives the :class:`VerdictDocument` or
        :class:`DecisionError` as its only argument and runs on the
        pool's collector thread (or on the calling thread, when the
        result already arrived) — it must be quick and must not call
        back into blocking pool methods.  A seq with a callback must
        not also be awaited via :meth:`result`.  This is the bridge the
        asyncio gateway uses to await pool results without a thread per
        request.
        """
        with self._cond:
            if seq not in self._results:
                self._callbacks[seq] = callback
                return
            message = self._results.pop(seq)
        callback(self._outcome(message))

    def abandon(self, seq: int) -> None:
        """Drop all interest in a submitted request (deadline expiry).

        The request may keep computing on its worker, but its outcome
        is discarded on arrival instead of accumulating in the results
        map forever.  Safe to call whether or not the result already
        arrived; any registered callback is dropped unfired.
        """
        with self._cond:
            if seq in self._results:
                del self._results[seq]
            elif seq in self._requests or seq in self._callbacks:
                self._abandoned.add(seq)
            self._callbacks.pop(seq, None)

    def normalize(self, item) -> ContainmentRequest:
        """Coerce dict/request inputs, sharing the parent parse cache."""
        if isinstance(item, ContainmentRequest):
            return item
        if isinstance(item, Mapping):
            return ContainmentRequest.from_dict(
                item, parse=self._parent_engine.parse)
        raise TypeError(f"cannot read request {item!r}")

    # -- deciding --------------------------------------------------------

    def decide_one(self,
                   request) -> VerdictDocument | DecisionError:
        """Decide a single request (dicts accepted); errors in-band."""
        return next(self.decide_stream([request]))

    def decide_stream(self, requests: Iterable, *,
                      window: int | None = None
                      ) -> Iterator[VerdictDocument | DecisionError]:
        """Lazily decide an iterable of requests, preserving input order.

        Keeps at most ``window`` requests in flight (default
        ``32 × workers``), so an endless stream runs at bounded memory;
        results are yielded strictly in input order even though workers
        finish out of order.
        """
        window = window if window is not None else 32 * len(self._processes)
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        outputs: deque = deque()   # ("done", value) | ("seq", token)
        iterator = iter(requests)
        exhausted = False
        in_flight = 0
        while True:
            while not exhausted and in_flight < window:
                try:
                    item = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                try:
                    request = self.normalize(item)
                except _REQUEST_ERRORS as error:
                    outputs.append(("done", DecisionError(
                        error_text(error), id=request_id_of(item))))
                    continue
                try:
                    outputs.append(("seq", self.submit(request)))
                except RuntimeError as error:  # dead shard: in-band
                    outputs.append(("done", DecisionError(
                        str(error), id=request.id)))
                    continue
                in_flight += 1
            if not outputs:
                if exhausted:
                    return
                continue  # pragma: no cover - window >= 1 always queues
            kind, value = outputs.popleft()
            if kind == "done":
                yield value
            else:
                in_flight -= 1
                yield self.result(value)

    def decide_many(self, requests: Iterable
                    ) -> list[VerdictDocument | DecisionError]:
        """Decide a batch of requests across the pool, preserving order."""
        return list(self.decide_stream(requests))

    # -- introspection / snapshots ---------------------------------------

    def _broadcast(self, kind: str, payload: tuple = (),
                   timeout: float = 60.0) -> list:
        """Send a control message to every live worker; gather replies.

        The in-progress message is remembered in ``_active_broadcast``
        so a worker respawned mid-broadcast gets it re-sent — otherwise a ``stats`` call issued just
        before a crash would block until its timeout.
        """
        with self._control_lock:
            message = (kind, *payload)
            with self._cond:
                self._replies[kind] = {}
                self._active_broadcast = message
            try:
                live = [index for index in range(len(self._processes))
                        if index not in self._dead]
                for index in live:
                    self._inboxes[index].put(message)
                with self._cond:
                    while True:
                        expected = [index for index in live
                                    if index not in self._dead]
                        replies = self._replies[kind]
                        if all(index in replies for index in expected):
                            return [replies[index]
                                    for index in sorted(replies)]
                        if not self._cond.wait(timeout=timeout):
                            raise TimeoutError(
                                f"workers did not answer {kind!r} request")
            finally:
                with self._cond:
                    self._active_broadcast = None

    def stats(self) -> list[dict[str, int]]:
        """Per-worker ``cache_info()`` (stats counters + cache sizes),
        ordered by worker index.  Call between batches: replies queue
        behind any in-flight decisions on each worker."""
        return self._broadcast("stats")

    def aggregate_stats(self) -> dict[str, int]:
        """The per-worker stats summed into one counters dict."""
        return sum_stats(self.stats())

    def collect_caches(self, *, include_verdicts: bool | None = None) -> dict:
        """The merged cache state of every worker (snapshot payload)."""
        if include_verdicts is None:
            include_verdicts = self._include_verdict_snapshot
        return merge_states(self._broadcast("caches", (include_verdicts,)))

    def save_snapshot(self, path: str | os.PathLike | None = None, *,
                      include_verdicts: bool | None = None) -> dict[str, int]:
        """Write the merged worker caches as a snapshot file.

        ``path`` defaults to the pool's warm-start path.  Returns the
        per-layer entry counts written.
        """
        from .snapshot import write_snapshot
        path = path if path is not None else self._snapshot_path
        if path is None:
            raise ValueError("no snapshot path configured")
        state = self.collect_caches(include_verdicts=include_verdicts)
        write_snapshot(state, path,
                       semirings=self._parent_engine.registry.names())
        return {layer: len(entries) for layer, entries in state.items()}
