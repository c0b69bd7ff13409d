"""A self-healing, sharded multiprocess pool over :class:`ContainmentEngine`.

``ContainmentEngine.decide_many`` is strictly sequential — fine for a
library call, wasteful for the rewrite-auditing and bag-semantics sweep
workloads that issue thousands of independent Table-1 decisions.
:class:`WorkerPool` runs one engine per OS process and shards requests
with a *deterministic* digest of the parsed-query/semiring key, so:

* identical ``(semiring, q1, q2, equivalence)`` requests always land on
  the same worker and therefore share that worker's verdict LRU — a
  repeat is a ``cached: true`` hit exactly as in a sequential engine;
* the assignment is reproducible across runs (the digest does not
  depend on ``PYTHONHASHSEED``).

The digest covers the full query reprs, so distinct requests scatter
evenly; only exact duplicates co-locate.

:meth:`WorkerPool.submit` returns a :class:`concurrent.futures.Future`
of the request's outcome, and cancelling that future abandons the
request.  ``decide_many`` and ``decide_stream`` return results in
input order regardless of which worker finishes first.  Per-request
failures (unknown semirings, malformed queries) are reported in-band
as :class:`~repro.api.batch.DecisionError` values — one bad request
never kills the stream.  Workers can warm-start from a
:mod:`repro.service.snapshot` file, and :meth:`WorkerPool.collect_caches`
gathers the merged cache state back out of the workers so a batch run
can leave a fresh snapshot behind.

**Dispatch and stealing.**  Dispatch is parent-side: each shard has one
FIFO backlog and at most ``_PREFETCH`` requests actually inside the
worker process, so the parent still holds everything it may need to
re-drive, steal or drop.  A worker whose own backlog is empty takes the
newest *fresh* entry of the deepest backlog — one whose key was neither
decided nor in flight when it was submitted.  Every other entry is
pinned to its home shard, so a duplicate always runs on the worker that
will have decided its first occurrence, after it, and a worker never
takes its own work out of order: one worker is plain FIFO.  A request
whose future is cancelled (deadline expiry) while still in a backlog
is dropped there and never reaches a worker.

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
that kills its worker more than ``_MAX_REDRIVES`` times is answered
with an in-band error instead of crash-looping the shard.  A shard that
dies more than ``_MAX_RESPAWNS`` times is retired: its work, and every
later request hashing there, gets an in-band error.

The byte-identity contract (``decide_many`` equals sequential
evaluation, chaos included) is kept by one delivery-time rule: a
request whose key was seen before — the definition of "would have hit
a sequential engine's verdict cache" — has its ``cached`` flag
re-stamped ``true`` even when a respawned worker's cold verdict LRU,
or a first occurrence stolen by another worker, forced a recomputation.
Fresh keys are never stamped, and stamping never flips ``true`` to
``false``.
Every supervision event is counted in the pool's
:class:`~repro.service.metrics.ServiceMetrics`, surfaced by the
``stats`` op.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError
from multiprocessing.connection import wait as wait_readable
from typing import Any, Iterable, Iterator, Mapping

from ..api.batch import (REQUEST_ERRORS, DecisionError, error_text,
                         request_id_of)
from ..api.documents import ContainmentRequest, VerdictDocument
from ..api.engine import ContainmentEngine
from .metrics import ServiceMetrics
from .snapshot import SnapshotError, load_snapshot, merge_states

__all__ = ["WorkerPool", "shard_key", "sum_stats"]

#: How often the collector checks worker liveness even while results
#: keep flowing — a steady stream must not postpone crash detection.
_REAP_INTERVAL = 0.25

#: Worker start method: ``fork`` keeps worker start-up cheap (the parent
#: has already imported the engine); elsewhere the platform default.
_START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                 else multiprocessing.get_all_start_methods()[0])

#: Requests kept inside each worker process; the rest of a shard's
#: backlog stays parent-side where it can be re-driven, stolen or dropped.
_PREFETCH = 4

#: Restarts allowed per shard before it is retired for good.
_MAX_RESPAWNS = 5

#: Times one request may be re-driven after killing its worker before
#: it is answered with an in-band error.
_MAX_REDRIVES = 2

#: Requests :meth:`WorkerPool.decide_stream` reads ahead of its output,
#: per worker process.
_STREAM_WINDOW_PER_WORKER = 32

#: The last item a stream's feeder queues.
_END = object()


def sum_stats(infos: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Sum per-worker ``cache_info()`` counter dicts into one.

    The single aggregation rule for worker stats — used by
    :meth:`WorkerPool.aggregate_stats` and by the gateway's ``stats``
    op (which already holds the per-worker list and must not trigger a
    second broadcast).
    """
    totals: dict[str, int] = {}
    for info in infos:
        for key, value in info.items():
            totals[key] = totals.get(key, 0) + value
    return totals


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


class _Backlogs:
    """Each shard's parent-side FIFO backlog, and the steal policy.

    An entry is a submitted request with its sequence token.  A *fresh*
    entry (its key was neither decided nor in flight when it was
    submitted) may move to an idle worker; every other entry is pinned
    to its home shard.  These methods are the backlogs' only mutators;
    the pool calls them with its condition held.
    """

    def __init__(self, shards: int):
        self._queues: list[deque] = [deque() for _ in range(shards)]

    def push(self, shard: int, seq: int, request: ContainmentRequest, *,
             fresh: bool) -> None:
        """Queue a submitted request at the back of its home backlog."""
        self._queues[shard].append((seq, request, fresh))

    def requeue(self, shard: int, entries: list[tuple]) -> None:
        """Put re-driven ``(seq, request)`` pairs back at the front of
        ``shard``'s backlog, in order and pinned there."""
        self._queues[shard].extendleft(
            (seq, request, False) for seq, request in reversed(entries))

    def take(self, shard: int) -> tuple | None:
        """The next ``(seq, request, stolen)`` for ``shard``'s worker.

        That is the oldest entry of its own backlog.  When that is
        empty, it is the newest fresh entry of the deepest backlog:
        a retired shard's backlog is drained, so that is a live peer's,
        and the newest entry is the one its own worker would reach
        last.  Every other occurrence of a fresh key is pinned to the
        home shard, which is never the thief, so the first occurrence
        never finds its key in a verdict LRU and stays ``cached:
        false``, as in a sequential run.
        """
        own = self._queues[shard]
        if own:
            seq, request, _ = own.popleft()
            return seq, request, False
        deepest = max(self._queues, key=len)
        for position in reversed(range(len(deepest))):
            seq, request, fresh = deepest[position]
            if fresh:
                del deepest[position]
                return seq, request, True
        return None

    def drain(self, shard: int) -> list[int]:
        """Empty a retired shard's backlog; returns the seqs it held."""
        seqs = [seq for seq, _, _ in self._queues[shard]]
        self._queues[shard].clear()
        return seqs

    def depths(self) -> list[int]:
        """The number of entries in each shard's backlog."""
        return [len(queue) for queue in self._queues]


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
                except REQUEST_ERRORS as error:
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
    files are silently ignored); ``include_verdict_snapshot`` says
    whether first-generation workers import its verdict layer.  The
    pool is a context manager; always :meth:`close` it (worker
    processes are not daemons of your request stream).

    Thread safety: all public methods may be called from multiple
    threads; a single background collector settles each request's
    future from its worker's reply and applies the death policy.
    """

    def __init__(self, workers: int | None = None, *,
                 snapshot_path: str | os.PathLike | None = None,
                 include_verdict_snapshot: bool = True):
        count = workers if workers is not None else (os.cpu_count() or 1)
        if count < 1:
            raise ValueError(f"need at least one worker, got {count}")
        self._context = multiprocessing.get_context(_START_METHOD)
        self._snapshot_path = (os.fspath(snapshot_path)
                               if snapshot_path is not None else None)
        self._include_verdict_snapshot = include_verdict_snapshot
        self.metrics = ServiceMetrics(workers=count)
        # Parent-side engine: parse interning for request normalization
        # plus the registry for canonical shard keys.  It never decides.
        self._parent_engine = ContainmentEngine()
        self._inboxes: list = []
        self._processes: list = []
        # Parent-side read end of each worker's result pipe (None once
        # the collector saw it end).
        self._result_pipes: list = []
        self._cond = threading.Condition()
        self._replies: dict[str, dict[int, Any]] = {"caches": {},
                                                    "stats": {}}
        self._assigned: dict[int, int] = {}     # seq → worker index
        # seq → (request, its outcome future), until it is answered or
        # dropped.
        self._requests: dict[int, tuple[ContainmentRequest, Future]] = {}
        self._active_broadcast: tuple | None = None
        self._dead: set[int] = set()
        # Parent-side dispatch state, all guarded by self._cond.
        self._backlogs = _Backlogs(count)
        self._outstanding = [0] * count   # requests inside each worker
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

    def submit(self, request: ContainmentRequest) -> Future:
        """Queue one request; returns the future of its outcome.

        The future's result is the :class:`VerdictDocument` or the
        in-band :class:`DecisionError`.  Cancelling it abandons the
        request: one still in a backlog is dropped unsent, and one
        already inside a worker has its outcome discarded.  The request
        joins its shard's parent-side backlog, from which the pump keeps
        each worker ``_PREFETCH`` deep.
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
            future: Future = Future()
            with self._cond:
                self._requests[seq] = (request, future)
                self._key_of[seq] = key
                live = key in self._live_keys
                duplicate = live or key in self._seen_keys
                self._live_keys[key] = self._live_keys.get(key, 0) + 1
                if duplicate:
                    self._expect_cached.add(seq)
                self._backlogs.push(worker, seq, request,
                                    fresh=not duplicate)
                self._pump_locked()
            return future

    def _dispatch_locked(self, index: int, seq: int,
                         request: ContainmentRequest) -> None:
        """Hand one request to worker ``index`` (``self._cond`` held)."""
        self._assigned[seq] = index
        self._outstanding[index] += 1
        self._inboxes[index].put(("req", seq, request))

    def _pump_locked(self) -> None:
        """Fill every live worker to ``_PREFETCH``, stealing when idle.

        Must run with ``self._cond`` held.  Called after every submit
        and every delivery, so dispatch depth is an invariant, not a
        schedule.  Cancelled requests are dropped here, unsent.
        """
        for index in range(len(self._processes)):
            if index in self._dead:
                continue
            while self._outstanding[index] < _PREFETCH:
                entry = self._backlogs.take(index)
                if entry is None:
                    break
                seq, request, stolen = entry
                if self._requests[seq][1].cancelled():
                    self._forget_seq(seq)
                    continue
                if stolen:
                    self.metrics.add("steals")
                self._dispatch_locked(index, seq, request)
        self.metrics.note_depths(self._backlogs.depths())

    # -- result collection ----------------------------------------------

    def _forget_seq(self, seq: int) -> tuple[ContainmentRequest, Future]:
        """Drop a seq's request and duplicate-tracking state
        (``self._cond`` held); returns its request and future."""
        self._redrives.pop(seq, None)
        self._expect_cached.discard(seq)
        key = self._key_of.pop(seq)
        live = self._live_keys[key] - 1
        if live > 0:
            self._live_keys[key] = live
        else:
            del self._live_keys[key]
        return self._requests.pop(seq)

    def _account_delivery_locked(self, seq: int, worker: int,
                                 message: tuple) -> tuple[Future, Any]:
        """Free the worker's seat; re-stamp duplicate ``cached`` flags.

        Returns the seq's future and its outcome, to settle once
        ``self._cond`` is released.
        """
        self._outstanding[worker] -= 1
        expect_cached = seq in self._expect_cached
        key = self._key_of[seq]
        _, future = self._forget_seq(seq)
        if message[0] == "ok":
            self._seen_keys.add(key)
            outcome = message[2]
            if expect_cached and not outcome.cached:
                # A respawn or a steal recomputed a verdict that a
                # sequential engine would have served from cache; the
                # document must say so.
                outcome = outcome.with_request(outcome.request_id, True)
        else:
            outcome = DecisionError(message[2], id=message[3])
        self._pump_locked()
        return future, outcome

    @staticmethod
    def _settle(future: Future, outcome) -> None:
        """Deliver an outcome; one whose future was cancelled is dropped.

        Runs without ``self._cond``: the future's done callbacks may
        call back into the pool.
        """
        try:
            future.set_result(outcome)
        except InvalidStateError:
            pass

    def _collect(self) -> None:
        """Single reader of the result pipes; settles request futures."""
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
        """Settle a decision's future, or file a broadcast reply."""
        settled = None
        with self._cond:
            kind = message[0]
            if kind in ("ok", "err"):
                seq = message[1]
                worker = self._assigned.pop(seq, None)
                if worker is None:
                    # Read after its shard was retired and the request
                    # already answered with an in-band error.
                    return
                settled = self._account_delivery_locked(seq, worker, message)
            elif kind in ("caches", "stats"):
                self._replies[kind][message[1]] = message[2]
                self._cond.notify_all()
        if settled is not None:
            self._settle(*settled)

    # -- death policy --------------------------------------------------

    def _retire_worker_locked(self, index: int, process) -> list:
        """Retire a shard for good (``self._cond`` held).

        Everything routed to it, dispatched or backlogged, becomes an
        in-band error.  Returns the ``(future, outcome)`` pairs to
        settle outside the lock.
        """
        self._dead.add(index)
        failed = []
        for seq in sorted(seq for seq, worker in self._assigned.items()
                          if worker == index):
            del self._assigned[seq]
            failed.append((seq, f"worker {index} exited with code "
                                f"{process.exitcode} while deciding"))
        failed += [(seq, f"worker {index} died and exceeded its respawn "
                         f"budget") for seq in self._backlogs.drain(index)]
        self._outstanding[index] = 0
        settles = []
        for seq, text in failed:
            request, future = self._forget_seq(seq)
            settles.append((future, DecisionError(text, id=request.id)))
        return settles

    def _handle_worker_death(self, index: int, process) -> list:
        """Respawn the shard and re-drive its work (``self._cond`` held).

        Retires the shard once it exhausts ``_MAX_RESPAWNS``.  In-flight
        seqs are re-queued at the front of the backlog in sequence
        order; seqs past their ``_MAX_REDRIVES`` budget are answered
        in-band instead, and cancelled ones are dropped.  Returns the
        ``(future, outcome)`` pairs to settle outside the lock.
        """
        if self.metrics.respawns(index) >= _MAX_RESPAWNS:
            return self._retire_worker_locked(index, process)
        self.metrics.add("respawns")
        self.metrics.note_restart(index)
        settles = []
        requeue = []
        pending = sorted(seq for seq, worker in self._assigned.items()
                         if worker == index)
        for seq in pending:
            del self._assigned[seq]
            request, future = self._requests[seq]
            if future.cancelled():
                self._forget_seq(seq)
                continue
            attempts = self._redrives.get(seq, 0) + 1
            if attempts > _MAX_REDRIVES:
                self.metrics.add("redrive_failures")
                self._forget_seq(seq)
                settles.append((future, DecisionError(
                    f"request crashed worker {index} {attempts} times; "
                    f"giving up", id=request.id)))
                continue
            self._redrives[seq] = attempts
            self.metrics.add("redriven")
            # Re-driven work is pinned: it must re-run on this shard,
            # in its original order, ahead of newer arrivals.
            requeue.append((seq, request))
        self._outstanding[index] = 0
        self._backlogs.requeue(index, requeue)
        self._spawn_process(index, load_verdicts=False)
        if self._active_broadcast is not None:
            # A stats/caches broadcast was waiting on the dead worker;
            # re-send it so the caller is answered by the replacement.
            self._inboxes[index].put(self._active_broadcast)
        self._pump_locked()
        return settles

    def _reap_dead_workers(self) -> None:
        """Detect crashed workers and apply the death policy."""
        if self._closed:
            return
        for index in range(len(self._processes)):
            process = self._processes[index]
            if index in self._dead or process.is_alive():
                continue
            with self._cond:
                settles = self._handle_worker_death(index, process)
                self._cond.notify_all()
            for future, outcome in settles:
                self._settle(future, outcome)

    # -- deciding --------------------------------------------------------

    def normalize(self, item) -> ContainmentRequest:
        """Coerce dict/request inputs, sharing the parent parse cache."""
        if isinstance(item, ContainmentRequest):
            return item
        if isinstance(item, Mapping):
            return ContainmentRequest.from_dict(
                item, parse=self._parent_engine.parse)
        raise TypeError(f"cannot read request {item!r}")

    def decide_one(self,
                   request) -> VerdictDocument | DecisionError:
        """Decide a single request (dicts accepted); errors in-band."""
        outcome = self._admit(request)
        return (outcome if isinstance(outcome, DecisionError)
                else outcome.result())

    def _admit(self, item) -> Future | DecisionError:
        """Submit one stream item: its outcome future, or the in-band
        error it is answered with (a :class:`DecisionError` in the
        input passes through; so does a request that cannot be read or
        submitted)."""
        if isinstance(item, DecisionError):
            return item
        try:
            request = self.normalize(item)
        except REQUEST_ERRORS as error:
            return DecisionError(error_text(error), id=request_id_of(item))
        try:
            return self.submit(request)
        except RuntimeError as error:  # dead shard: in-band
            return DecisionError(str(error), id=request.id)

    def decide_stream(self, requests: Iterable
                      ) -> Iterator[VerdictDocument | DecisionError]:
        """Lazily decide an iterable of requests, preserving input order.

        One feeder thread reads and submits the requests, about
        ``32 × workers`` ahead of the output, so an endless stream runs
        at bounded memory; the generator yields each result, strictly
        in input order, as soon as it arrives, while the feeder waits
        for the next request (a request on a pipe that stays open is
        answered without waiting for more input).  A
        :class:`DecisionError` in the input is passed through in its
        position, as is any request that cannot be read or submitted;
        an exception raised by ``requests`` is re-raised in its
        position.  Closing the generator early cancels the futures of
        the requests still queued.
        """
        outputs: queue.Queue = queue.Queue(
            _STREAM_WINDOW_PER_WORKER * len(self._processes))
        stop = threading.Event()

        def feed() -> None:
            try:
                for item in requests:
                    outputs.put(self._admit(item))
                    if stop.is_set():
                        self._abandon_queued(outputs)
                        return
            except BaseException as error:  # re-raised by the consumer
                outputs.put(error)
            outputs.put(_END)

        threading.Thread(target=feed, name="repro-stream-feeder",
                         daemon=True).start()
        try:
            while True:
                head = outputs.get()
                if head is _END:
                    return
                if isinstance(head, BaseException):
                    raise head
                yield (head if isinstance(head, DecisionError)
                       else head.result())
        finally:
            stop.set()
            self._abandon_queued(outputs)

    def _abandon_queued(self, outputs: queue.Queue) -> None:
        """Cancel every future left in a closed stream's queue (the
        feeder and the consumer both drain it, so a future queued while
        the stream closes is cancelled by one of them)."""
        while True:
            try:
                head = outputs.get_nowait()
            except queue.Empty:
                return
            if isinstance(head, Future):
                head.cancel()

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
