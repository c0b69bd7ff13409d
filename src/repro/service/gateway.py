"""The one ``serve`` front end: asyncio JSONL over stdio or TCP.

:class:`AsyncGateway` speaks the :mod:`repro.service.server` protocol
on a single event loop, deciding on one self-healing
:class:`~repro.service.pool.WorkerPool` (a pool of one worker by
default, so a long decision never blocks the loop).  TCP connections
(:meth:`AsyncGateway.serve`) and stdin/stdout
(:meth:`AsyncGateway.serve_stdio`) run the same per-connection
conversation, so every behaviour below applies to both:

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
expired...", "expired": true}`` and the pool's interest in the result
is abandoned; the eventual verdict is discarded instead of leaking.

**Bounded lines.**  With ``max_line_bytes`` set, an over-long (or
unterminated) line is drained in bounded chunks and answered in-band
with ``{"error": ..., "oversized": true}``, never buffered whole.

EOF ends a conversation after its pipeline drains; on stdio that also
stops serving, as does a ``shutdown`` op on any conversation.  Stdin
may be a pipe, a regular file or ``/dev/null``: asyncio's pipe
transports refuse regular files, so a daemon thread does bounded
binary reads and feeds a ``StreamReader`` (paused by the reader's own
flow control), and responses are written to stdout directly.

Admission outcomes are counted in the pool's
:class:`~repro.service.metrics.ServiceMetrics` (``accepted`` / ``shed``
/ ``expired``) next to its respawn/steal counters.  The event loop
calls the pool only to normalize, submit, bridge or abandon a request,
and the server only to count it; every other server or pool call
(control ops, snapshot flushes, the final close) goes through
:meth:`AsyncGateway._offload` onto an executor thread, so a stats
broadcast never stalls the event loop.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import sys
import threading

from ..api.batch import REQUEST_ERRORS, error_text
from .pool import DecisionError, WorkerPool, request_id_of
from .server import DecisionServer

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


def _resolve(future: asyncio.Future, outcome) -> None:
    """Set a bridged result, tolerating a deadline-cancelled future."""
    if not future.done():
        future.set_result(outcome)


def _bridge(loop: asyncio.AbstractEventLoop, future: asyncio.Future,
            outcome) -> None:
    """Deliver a collector-thread outcome into the event loop.

    Runs on the pool's collector thread; a loop that already closed
    (teardown race) makes the outcome moot and must not kill the
    collector.
    """
    try:
        loop.call_soon_threadsafe(_resolve, future, outcome)
    except RuntimeError:
        pass


class AsyncGateway:
    """An asyncio JSONL front end multiplexing clients into a pool.

    Wraps a :class:`WorkerPool` (for byte-identical decisions) and
    builds its :attr:`server`, a :class:`DecisionServer` for control
    ops, counters and snapshot flushing (every ``flush_every``
    decisions and/or ``flush_interval`` seconds, into the pool's
    snapshot file).  One instance serves stdio or many concurrent TCP
    connections on one event loop; per-request work happens in the
    pool's worker processes, bridged back via ``call_soon_threadsafe``.
    """

    def __init__(self, pool: WorkerPool, *,
                 flush_every: int = 0,
                 flush_interval: float = 0.0,
                 deadline: float = 0.0,
                 queue_limit: int = 256,
                 max_line_bytes: int = 0):
        self._pool = pool
        self.server = DecisionServer(pool, flush_every=flush_every,
                                     flush_interval=flush_interval)
        self._deadline = max(0.0, float(deadline))
        self._queue_limit = max(1, int(queue_limit))
        self._max_line_bytes = max(0, int(max_line_bytes))
        self.metrics = pool.metrics
        self._inflight = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self._readers: set = set()
        self._writers: set = set()
        self._conn_tasks: set = set()
        self.tcp_address: tuple | None = None

    @property
    def served(self) -> int:
        """Decision requests answered so far (the server's counter)."""
        return self.server.served

    # -- serving -------------------------------------------------------

    def _begin(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()

    def _offload(self, fn, *args) -> asyncio.Future:
        """Run a blocking server or pool call on an executor thread."""
        return self._loop.run_in_executor(None, fn, *args)

    async def serve(self, host: str = "127.0.0.1", port: int = 0, *,
                    ready=None) -> int:
        """Accept and serve TCP connections until a ``shutdown`` op.

        With ``port=0`` the OS picks a free port; :attr:`tcp_address`
        carries the bound address once ``ready`` (anything with a
        ``set()`` method, e.g. a ``threading.Event``) is set.  On
        shutdown, open connections are closed, in-flight responses are
        drained, and the final snapshot flush runs.  Returns the number
        of decision requests served.
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
            await self._offload(self.server.close)
        return self.served

    async def serve_stdio(self, stdin=None, stdout=None) -> int:
        """Serve one conversation on binary ``stdin``/``stdout``.

        Defaults to the process's standard streams.  EOF or a
        ``shutdown`` op drains the pipeline, runs the final snapshot
        flush and returns the number of decision requests served.
        """
        self._begin()
        reader = asyncio.StreamReader()
        _StdinFeed(self._loop, reader,
                   stdin if stdin is not None else sys.stdin.buffer)
        sink = stdout if stdout is not None else sys.stdout.buffer
        try:
            await self._on_connection(reader, _SinkWriter(sink))
        finally:
            await self._offload(self.server.close)
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
                    self.server.record(served=1, errors=1)
                    await pending.put({
                        "error": f"request line exceeds --max-line-bytes "
                                 f"({self._max_line_bytes} bytes)",
                        "oversized": True})
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

    def _admit(self, text: str) -> tuple:
        """Classify one line; returns ``(pipeline item, stop serving)``.

        The pipeline item is ``None`` (nothing to answer), a plain
        response dict, a scheduled decision the writer pump awaits in
        pipeline order, or a control op the pump runs in that order.
        Admission — including the shed decision — happens *here*,
        synchronously in arrival order, so the high watermark cannot
        be overrun by a burst.
        """
        text = text.strip()
        if not text or text.startswith("#"):
            return None, False
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("request line must be a JSON object")
        except ValueError as error:
            self.server.record(served=1, errors=1)
            return {"error": error_text(error)}, False
        if "op" in data:
            if data.get("op") == "shutdown":
                return {"op": "shutdown", "ok": True}, True
            return functools.partial(self._control, data), False
        if self._inflight >= self._queue_limit:
            self.metrics.add("shed")
            self.server.record(served=1, errors=1)
            response = {"error": f"overloaded: {self._inflight} requests "
                                 f"in flight (limit {self._queue_limit}); "
                                 f"retry later",
                        "overloaded": True}
            request_id = request_id_of(data)
            if request_id is not None:
                response["id"] = request_id
            return response, False
        self._inflight += 1
        self.metrics.add("accepted")
        return asyncio.ensure_future(self._decide(data)), False

    async def _control(self, data: dict) -> dict:
        """Run a control op on an executor thread; never blocks the loop."""
        return await self._offload(self.server.control, data)

    async def _decide(self, data: dict) -> dict:
        """Decide one admitted request against the pool, with deadline."""
        try:
            try:
                request = self._pool.normalize(data)
            except REQUEST_ERRORS as error:
                self.server.record(served=1, errors=1)
                return DecisionError(error_text(error),
                                     id=request_id_of(data)).to_dict()
            try:
                seq = self._pool.submit(request)
            except RuntimeError as error:  # dead shard / closed: in-band
                self.server.record(served=1, errors=1)
                return DecisionError(str(error), id=request.id).to_dict()
            loop = self._loop
            future = loop.create_future()
            self._pool.on_result(
                seq, lambda outcome: _bridge(loop, future, outcome))
            try:
                if self._deadline > 0:
                    outcome = await asyncio.wait_for(future, self._deadline)
                else:
                    outcome = await future
            except asyncio.TimeoutError:
                self._pool.abandon(seq)
                self.metrics.add("expired")
                self.server.record(served=1, errors=1)
                response = {"error": f"deadline expired after "
                                     f"{self._deadline:g}s",
                            "expired": True}
                if request.id is not None:
                    response["id"] = request.id
                return response
            if isinstance(outcome, DecisionError):
                self.server.record(served=1, errors=1)
                return outcome.to_dict()
            self.server.record(served=1, decided=1)
            self._offload(self.server.maybe_flush)
            return outcome.to_dict()
        finally:
            self._inflight -= 1
