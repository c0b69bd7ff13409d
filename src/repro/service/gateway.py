"""The one ``serve`` front end: asyncio JSONL over stdio or TCP.

:class:`AsyncGateway` speaks the ``serve`` protocol on a single event
loop, deciding on one self-healing
:class:`~repro.service.pool.WorkerPool` (a pool of one worker by
default, so a long decision never blocks the loop).  TCP connections
(:meth:`AsyncGateway.serve`) and stdin/stdout
(:meth:`AsyncGateway.serve_stdio`) run the same per-connection
conversation, so everything below applies to both.

Protocol
--------
One JSON object per line.  A *decision* request is exactly the JSONL
batch format::

    {"semiring": "B", "q1": "Q() :- R(x, y)", "q2": "Q() :- R(x, x)",
     "id": "r1"}

and is answered with the verdict document (the ``request_id`` echoes
``id``).  Lines are decoded by :func:`repro.api.batch.decode_line`, as
``batch`` decodes them.  Malformed lines (nesting too deep to decode
included) and per-request failures are answered *in-band* as
``{"error": ..., "id": ...}`` — the service never dies on a bad
request.  Blank lines and ``#`` comments are ignored.

A *control* request is an object with an ``"op"`` key:

``{"op": "ping"}``
    liveness probe; answers ``{"op": "ping", "ok": true}``.
``{"op": "stats"}``
    the per-worker ``cache_info()`` counter list (``workers``), a
    layered ``cache_stats`` report over their sum — every cache layer,
    poly_leq certificates included, with zero-division-safe hit ratios
    — and the serving layer's ``service`` counters.
``{"op": "snapshot"}``
    flush the warm-start snapshot now; answers the per-layer counts.
``{"op": "shutdown"}``
    acknowledge, drain, flush the snapshot, and stop serving.

Serving
-------
**Pipelining.**  A client may write many request lines without
waiting; the gateway submits each to the worker pool as it arrives
and writes responses back *in request order*, overlapping the pool's
computation across the whole pipeline.  A control op runs when the
writer reaches it, so ``stats`` sees every decision answered before it.

**Backpressure & load shedding.**  At most ``queue_limit`` decisions
are admitted gateway-wide at once; a request past the high watermark
is *rejected newest* with a structured in-band response —
``{"error": "overloaded...", "overloaded": true, "id": ...}`` — in
its pipeline position, so clients can retry with their correlation id
instead of hanging.  (Reject-newest keeps already-admitted work — the
work most likely to be near completion — running.)

**Deadlines.**  With ``deadline`` set, a decision that does not
complete in time is answered in-band with ``{"error": "deadline
expired...", "expired": true}`` and its pool future is cancelled: a
request still in a backlog is dropped unsent, and the eventual verdict
of one already inside a worker is discarded instead of leaking.

**Bounded lines.**  With ``max_line_bytes`` set, an over-long (or
unterminated) line is drained in bounded chunks and answered in-band
with ``{"error": ..., "oversized": true}``, never buffered whole.

**Snapshot flushes.**  When the pool has a snapshot path, the gateway
flushes it every ``flush_every`` decisions and/or every
``flush_interval`` seconds, so a crash loses at most one flush window
of cache warmth, and once more on :meth:`AsyncGateway.close`, which
returns the final counters *including* any flush failure, so
supervising callers see a broken snapshot path instead of silently
losing warmth.

EOF ends a conversation after its pipeline drains; on stdio that also
stops serving, as does a ``shutdown`` op on any conversation.  Stdin
may be a pipe, a regular file or ``/dev/null``: asyncio's pipe
transports refuse regular files, so a daemon thread does bounded
binary reads and feeds a ``StreamReader`` (paused by the reader's own
flow control), and responses are written to stdout directly.

Admission outcomes are counted in the pool's
:class:`~repro.service.metrics.ServiceMetrics` (``accepted`` / ``shed``
/ ``expired``) next to its respawn/steal counters.  The event loop
calls the pool only to normalize and submit a request, and awaits the
returned future through :func:`asyncio.wrap_future`; it keeps the
``served``/``errors`` counters and decides when a flush is due itself.
Every blocking call (control ops, snapshot flushes, the final close)
goes through :meth:`AsyncGateway._offload` onto an executor thread, so
a stats broadcast never stalls the event loop.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import sys
import threading

from ..api.batch import (REQUEST_ERRORS, DecisionError, decode_line,
                         error_text, request_id_of)
from ..api.engine import stats_report
from .pool import WorkerPool, sum_stats

__all__ = ["AsyncGateway"]

#: Chunk size for reads, including draining oversized lines without
#: buffering them.
_DRAIN_CHUNK = 1 << 16

#: Responses a conversation may have queued before its reader waits.
_PIPELINE_DEPTH = 64


class _BoundedLineReader:
    """Newline-delimited reads off a StreamReader with a byte bound.

    Owns its buffer (``StreamReader.readline`` raises and leaves
    partial state on overrun) so an oversized line can be drained in
    bounded chunks while pipelined follow-on lines in the same read
    are preserved.
    """

    def __init__(self, reader: asyncio.StreamReader, max_bytes: int):
        self._reader = reader
        self._max = max(0, int(max_bytes))
        self._buffer = b""

    def _pop_line(self) -> tuple[str, object] | None:
        """Split one complete line off the buffer, if one is there."""
        index = self._buffer.find(b"\n")
        if index < 0:
            return None
        raw = self._buffer[:index]
        self._buffer = self._buffer[index + 1:]
        if self._max and len(raw) > self._max:
            return ("oversized", len(raw))
        return ("line", raw.decode("utf-8", errors="replace"))

    async def next(self) -> tuple[str, object]:
        """The next event: ``(kind, payload)``.

        ``("line", text)`` for a complete line within the bound,
        ``("oversized", byte_count)`` for a dropped over-long line, and
        ``("eof", None)`` when the peer is done.
        """
        while True:
            popped = self._pop_line()
            if popped is not None:
                return popped
            if self._max and len(self._buffer) > self._max:
                dropped = len(self._buffer)
                self._buffer = b""
                while True:  # drain to the next newline, never buffering
                    chunk = await self._reader.read(_DRAIN_CHUNK)
                    if not chunk:
                        return ("oversized", dropped)
                    index = chunk.find(b"\n")
                    if index >= 0:
                        dropped += index
                        self._buffer = chunk[index + 1:]
                        return ("oversized", dropped)
                    dropped += len(chunk)
            chunk = await self._reader.read(_DRAIN_CHUNK)
            if not chunk:
                if self._buffer:
                    raw, self._buffer = self._buffer, b""
                    if self._max and len(raw) > self._max:
                        return ("oversized", len(raw))
                    return ("line", raw.decode("utf-8", errors="replace"))
                return ("eof", None)
            self._buffer += chunk


class _StdinFeed:
    """Feeds a ``StreamReader`` from a blocking binary stream.

    A daemon thread reads bounded chunks and hands them to the event
    loop.  The feed registers itself as the reader's transport, so the
    reader's own flow control pauses the thread (``pause_reading``)
    while a backlog of unread input is buffered.  Reads go to the raw
    file descriptor when there is one: a daemon thread parked inside a
    buffered stdin object would hold its lock at interpreter exit.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 reader: asyncio.StreamReader, source):
        self._loop = loop
        self._reader = reader
        self._source = source
        self._resumed = threading.Event()
        self._resumed.set()
        reader.set_transport(self)
        threading.Thread(target=self._pump, name="repro-stdin-reader",
                         daemon=True).start()

    def pause_reading(self) -> None:
        """Flow control: the reader's buffer is full."""
        self._resumed.clear()

    def resume_reading(self) -> None:
        """Flow control: the reader drained its buffer."""
        self._resumed.set()

    def _pump(self) -> None:
        try:
            fd = self._source.fileno()
        except (AttributeError, OSError):
            read = getattr(self._source, "read1", self._source.read)
        else:
            read = functools.partial(os.read, fd)
        while True:
            self._resumed.wait()
            try:
                chunk = read(_DRAIN_CHUNK)
            except OSError:
                chunk = b""
            feed = (functools.partial(self._reader.feed_data, chunk)
                    if chunk else self._reader.feed_eof)
            try:
                self._loop.call_soon_threadsafe(feed)
            except RuntimeError:  # the loop closed: serving is over
                return
            if not chunk:
                return


class _SinkWriter:
    """The ``StreamWriter`` surface a conversation uses, over a file.

    Stdout may be a regular file, which asyncio's pipe transports
    refuse; each response is written and flushed synchronously, so
    downstream consumers see every verdict as it is answered.
    """

    def __init__(self, sink):
        self._sink = sink

    def write(self, data: bytes) -> None:
        """Write and flush one response line."""
        self._sink.write(data)
        self._sink.flush()

    async def drain(self) -> None:
        """Nothing to drain: :meth:`write` already flushed."""

    def close(self) -> None:
        """Leave the sink open: it belongs to the caller."""


class AsyncGateway:
    """An asyncio JSONL front end multiplexing clients into a pool.

    Wraps a :class:`WorkerPool` (for byte-identical decisions), answers
    the control ops, counts answers and flushes the pool's snapshot
    file every ``flush_every`` decisions and/or every
    ``flush_interval`` seconds.  One instance serves stdio or many
    concurrent TCP connections on one event loop; per-request work
    happens in the pool's worker processes, and the loop awaits each
    request's pool future.  The gateway does not own the pool:
    close it where you created it, after :meth:`close`.
    """

    def __init__(self, pool: WorkerPool, *,
                 flush_every: int = 0,
                 flush_interval: float = 0.0,
                 deadline: float = 0.0,
                 queue_limit: int = 256,
                 max_line_bytes: int = 0):
        self._pool = pool
        self._snapshot_path = pool.snapshot_path
        self._flush_every = max(0, int(flush_every))
        self._flush_interval = max(0.0, float(flush_interval))
        self._deadline = max(0.0, float(deadline))
        self._queue_limit = max(1, int(queue_limit))
        self._max_line_bytes = max(0, int(max_line_bytes))
        self.metrics = pool.metrics
        # Written only on the event loop.
        self._inflight = 0
        self._served = 0
        self._errors = 0
        self._decided_since_flush = 0
        # Flushes and the close run on executor threads, one at a time.
        self._flush_lock = threading.Lock()
        self._flush_error: str | None = None
        self._close_stats: dict | None = None
        self._timer: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self._readers: set = set()
        self._writers: set = set()
        self._conn_tasks: set = set()
        self.tcp_address: tuple | None = None

    @property
    def served(self) -> int:
        """Decision requests answered so far (including in-band errors)."""
        return self._served

    # -- serving -------------------------------------------------------

    def _begin(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        if self._snapshot_path is not None and self._flush_interval > 0:
            self._timer = self._loop.create_task(self._flush_periodically())

    def _offload(self, fn, *args) -> asyncio.Future:
        """Run a blocking gateway or pool call on an executor thread."""
        return self._loop.run_in_executor(None, fn, *args)

    async def serve(self, host: str = "127.0.0.1", port: int = 0, *,
                    ready=None) -> int:
        """Accept and serve TCP connections until a ``shutdown`` op.

        With ``port=0`` the OS picks a free port; :attr:`tcp_address`
        carries the bound address once ``ready`` (anything with a
        ``set()`` method, e.g. a ``threading.Event``) is set.  On
        shutdown, open connections are closed, in-flight responses are
        drained, and :meth:`close` runs the final snapshot flush.
        Returns the number of decision requests served.
        """
        self._begin()
        server = await asyncio.start_server(self._on_connection, host, port)
        self.tcp_address = server.sockets[0].getsockname()[:2]
        if ready is not None:
            ready.set()
        try:
            async with server:
                await self._stopping.wait()
        finally:
            # Wind the open conversations down gracefully: an EOF nudge
            # ends each read loop, and every connection then drains its
            # own response pipeline before closing its writer.  Only
            # stragglers (e.g. a pump wedged on a stalled client) get
            # their transports yanked and their tasks cancelled.
            for stream in list(self._readers):
                stream.feed_eof()
            tasks = list(self._conn_tasks)
            if tasks:
                _, stragglers = await asyncio.wait(tasks, timeout=5.0)
                for writer in list(self._writers):
                    writer.close()
                for task in stragglers:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            await self._offload(self.close)
        return self.served

    async def serve_stdio(self, stdin=None, stdout=None) -> int:
        """Serve one conversation on binary ``stdin``/``stdout``.

        Defaults to the process's standard streams.  EOF or a
        ``shutdown`` op drains the pipeline, runs :meth:`close` (the
        final snapshot flush) and returns the number of decision
        requests served.
        """
        self._begin()
        reader = asyncio.StreamReader()
        _StdinFeed(self._loop, reader,
                   stdin if stdin is not None else sys.stdin.buffer)
        sink = stdout if stdout is not None else sys.stdout.buffer
        try:
            await self._on_connection(reader, _SinkWriter(sink))
        finally:
            await self._offload(self.close)
        return self.served

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer) -> None:
        """One client conversation: read, admit, answer in order."""
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._readers.add(reader)
        self._writers.add(writer)
        lines = _BoundedLineReader(reader, self._max_line_bytes)
        pending: asyncio.Queue = asyncio.Queue(maxsize=_PIPELINE_DEPTH)
        pump = asyncio.ensure_future(self._write_responses(pending, writer))
        stopping = False
        try:
            while not self._stopping.is_set():
                kind, payload = await lines.next()
                if kind == "eof":
                    break
                if kind == "oversized":
                    await pending.put(self._answered({
                        "error": f"request line exceeds --max-line-bytes "
                                 f"({self._max_line_bytes} bytes)",
                        "oversized": True}))
                    continue
                item, stop = self._admit(payload)
                if item is not None:
                    await pending.put(item)
                if stop:
                    stopping = True
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            await pending.put(None)
            try:
                await pump
            except (ConnectionError, asyncio.CancelledError):
                pass
            writer.close()
            self._readers.discard(reader)
            self._writers.discard(writer)
            self._conn_tasks.discard(task)
            if stopping:
                # Set only after this connection's pipeline is fully
                # drained: the shutdown ack — and every pipelined reply
                # admitted before it — must reach the client before
                # serve() starts tearing other connections down.
                self._stopping.set()

    async def _write_responses(self, pending: asyncio.Queue,
                               writer) -> None:
        """Drain the connection's pipeline, writing responses in order.

        A pipeline item is a response dict, a decision future, or a
        control op (a callable) that runs only now — after every item
        ahead of it was answered.  After a write fails the pump keeps
        draining without writing, so the reader never blocks on a full
        pipeline.
        """
        broken = False
        while True:
            item = await pending.get()
            if item is None:
                return
            if broken:
                continue
            if callable(item):
                response = await item()
            elif isinstance(item, asyncio.Future):
                response = await item
            else:
                response = item
            payload = json.dumps(response, ensure_ascii=False)
            try:
                writer.write(payload.encode("utf-8") + b"\n")
                await writer.drain()
            except ConnectionError:
                broken = True

    # -- admission -----------------------------------------------------

    def _answered(self, response: dict) -> dict:
        """Count one answered decision request; returns the response."""
        self._served += 1
        if "error" in response:
            self._errors += 1
        return response

    def _admit(self, text: str) -> tuple:
        """Classify one line; returns ``(pipeline item, stop serving)``.

        The pipeline item is ``None`` (nothing to answer), a plain
        response dict, a scheduled decision the writer pump awaits in
        pipeline order, or a control op the pump runs in that order.
        Admission — including the shed decision — happens *here*,
        synchronously in arrival order, so the high watermark cannot
        be overrun by a burst.
        """
        data = decode_line(text)
        if data is None:
            return None, False
        if isinstance(data, DecisionError):
            return self._answered(data.to_dict()), False
        if "op" in data:
            if data.get("op") == "shutdown":
                return {"op": "shutdown", "ok": True}, True
            return functools.partial(self._offload, self.control,
                                     data), False
        if self._inflight >= self._queue_limit:
            self.metrics.add("shed")
            response = {"error": f"overloaded: {self._inflight} requests "
                                 f"in flight (limit {self._queue_limit}); "
                                 f"retry later",
                        "overloaded": True}
            request_id = request_id_of(data)
            if request_id is not None:
                response["id"] = request_id
            return self._answered(response), False
        self._inflight += 1
        self.metrics.add("accepted")
        return asyncio.ensure_future(self._decide(data)), False

    async def _decide(self, data: dict) -> dict:
        """Decide one admitted request against the pool, with deadline."""
        try:
            try:
                request = self._pool.normalize(data)
            except REQUEST_ERRORS as error:
                return self._answered(DecisionError(
                    error_text(error), id=request_id_of(data)).to_dict())
            try:
                future = self._pool.submit(request)
            except RuntimeError as error:  # dead shard / closed: in-band
                return self._answered(DecisionError(
                    str(error), id=request.id).to_dict())
            try:
                # On expiry wait_for cancels the wrapper, and the
                # wrapper cancels the pool's future: the request is
                # abandoned.
                outcome = await asyncio.wait_for(asyncio.wrap_future(future),
                                                 self._deadline or None)
            except asyncio.TimeoutError:
                self.metrics.add("expired")
                response = {"error": f"deadline expired after "
                                     f"{self._deadline:g}s",
                            "expired": True}
                if request.id is not None:
                    response["id"] = request.id
                return self._answered(response)
            if not isinstance(outcome, DecisionError):
                self._count_decision()
            return self._answered(outcome.to_dict())
        finally:
            self._inflight -= 1

    # -- control ops and snapshot flushes ------------------------------

    def control(self, data: dict) -> dict:
        """Answer one parsed control op (``shutdown`` is the loop's).

        Blocking — ``stats`` and ``snapshot`` wait on every worker — so
        the writer pump runs it on an executor thread when it reaches
        the op.
        """
        op = data["op"]
        if op == "ping":
            return {"op": "ping", "ok": True}
        if op == "stats":
            service = self._pool.metrics.as_dict()
            service["worker_pids"] = self._pool.worker_pids()
            # Per-worker flat counters plus one layered report over
            # their sum — hit ratios stay zero-division-safe even for
            # layers (e.g. poly_orders) that saw no traffic.
            workers = self._pool.stats()
            response = {"op": "stats", "served": self._served,
                        "errors": self._errors, "workers": workers,
                        "cache_stats": stats_report(sum_stats(workers),
                                                    service=service),
                        "service": service}
            if self._flush_error is not None:
                response["flush_error"] = self._flush_error
            return response
        if op == "snapshot":
            try:
                return {"op": "snapshot", "layers": self.flush_snapshot()}
            except (ValueError, OSError) as error:
                return {"op": "snapshot", "error": error_text(error)}
        return {"error": f"unknown op {op!r}"}

    def flush_snapshot(self) -> dict[str, int]:
        """Write the warm-start snapshot now; returns per-layer counts.

        Blocking: the event loop runs it on an executor thread.
        """
        with self._flush_lock:
            return self._flush_locked()

    def _flush_locked(self) -> dict[str, int]:
        if self._snapshot_path is None:
            raise ValueError("no snapshot path configured")
        counts = self._pool.save_snapshot()
        self._flush_error = None
        return counts

    def _flush_quietly(self) -> None:
        """A policy flush (executor thread): failures are recorded."""
        with self._flush_lock:
            if self._close_stats is not None:
                return  # closed: the final flush already ran
            try:
                self._flush_locked()
            except Exception as error:  # flush must not kill serve
                self._flush_error = error_text(error)

    def _count_decision(self) -> None:
        """Offload the every-``flush_every`` flush, only once it is due."""
        self._decided_since_flush += 1
        if (self._flush_every and self._snapshot_path is not None
                and self._decided_since_flush >= self._flush_every):
            self._decided_since_flush = 0
            self._offload(self._flush_quietly)

    async def _flush_periodically(self) -> None:
        """The ``flush_interval`` timer, a loop task until :meth:`close`."""
        while True:
            await asyncio.sleep(self._flush_interval)
            await self._offload(self._flush_quietly)

    def close(self) -> dict:
        """Stop the flush timer and run the final snapshot flush.

        Idempotent: serving closes on exit and CLI teardown may close
        again — the snapshot is flushed exactly once and every call
        returns the same final stats dict: ``served``/``errors``
        counters, the per-layer ``flushed`` counts (``None`` when no
        snapshot is configured), and ``flush_error`` — the final
        flush's failure text instead of a silent drop.  Blocking: the
        event loop runs it on an executor thread.
        """
        with self._flush_lock:
            if self._close_stats is None:
                timer, self._timer = self._timer, None
                if timer is not None:
                    try:
                        self._loop.call_soon_threadsafe(timer.cancel)
                    except RuntimeError:  # the loop closed, and the task
                        pass
                flushed = flush_error = None
                if self._snapshot_path is not None:
                    try:
                        flushed = self._flush_locked()
                    except Exception as error:  # teardown stays graceful
                        flush_error = error_text(error)
                        self._flush_error = flush_error
                self._close_stats = {"served": self._served,
                                     "errors": self._errors,
                                     "flushed": flushed,
                                     "flush_error": flush_error}
            return dict(self._close_stats)
