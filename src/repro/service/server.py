"""The ``serve`` protocol's control ops, counters and snapshot flushing.

``python -m repro serve`` speaks newline-delimited JSON over stdio or
TCP through one front end, :class:`~repro.service.gateway.AsyncGateway`,
deciding on one :class:`~repro.service.pool.WorkerPool`.
:class:`DecisionServer` is the part of that service that is not about
moving lines: the control ops, the ``served``/``errors`` counters and
the warm-start snapshot flushes.

Protocol
--------
One JSON object per line.  A *decision* request is exactly the JSONL
batch format::

    {"semiring": "B", "q1": "Q() :- R(x, y)", "q2": "Q() :- R(x, x)",
     "id": "r1"}

and is answered with the verdict document (the ``request_id`` echoes
``id``).  Malformed lines and per-request failures are answered
*in-band* as ``{"error": ..., "id": ...}`` — the service never dies on
a bad request.  Blank lines and ``#`` comments are ignored.

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

When a snapshot path is configured, the service flushes periodically —
every ``flush_every`` decisions and/or every ``flush_interval``
seconds — so a crash loses at most one flush window of cache warmth,
and once more at shutdown.  :meth:`DecisionServer.close` returns the
final counters *including* any snapshot-flush failure, so supervising
callers see a broken snapshot path instead of silently losing warmth.
"""

from __future__ import annotations

import threading

from ..api.batch import error_text
from ..api.engine import stats_report
from .pool import WorkerPool, sum_stats

__all__ = ["DecisionServer"]


class DecisionServer:
    """Control ops, request counters and snapshot flushing over a pool.

    Snapshots go to the pool's warm-start file, with or without the
    verdict layer as the pool was configured.  The server does not own
    the pool — close it where you created it; :meth:`close` only stops
    the flush timer and runs the final snapshot flush.  Counters and
    flushes are thread-safe: the gateway records outcomes on its event
    loop and runs control ops and flushes on executor threads.
    """

    def __init__(self, pool: WorkerPool, *, flush_every: int = 0,
                 flush_interval: float = 0.0):
        self._pool = pool
        self._snapshot_path = pool.snapshot_path
        self._flush_every = max(0, int(flush_every))
        self._flush_interval = max(0.0, float(flush_interval))
        self._flush_error: str | None = None
        self._close_stats: dict | None = None
        self._flush_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._count_lock = threading.Lock()
        self._decided_since_flush = 0
        self._served = 0
        self._errors = 0
        self._stopped = threading.Event()
        self._flusher = None
        if self._snapshot_path is not None and self._flush_interval > 0:
            self._flusher = threading.Thread(
                target=self._flush_loop, name="repro-serve-flusher",
                daemon=True)
            self._flusher.start()

    # -- counters --------------------------------------------------------

    @property
    def served(self) -> int:
        """Decision requests answered so far (including in-band errors)."""
        return self._served

    @property
    def errors(self) -> int:
        """How many of those answers were in-band errors."""
        return self._errors

    def record(self, *, served: int = 0, errors: int = 0,
               decided: int = 0) -> None:
        """Count answered requests, in-band errors and decisions."""
        with self._count_lock:
            self._served += served
            self._errors += errors
            self._decided_since_flush += decided

    # -- snapshot flushing -----------------------------------------------

    def flush_snapshot(self) -> dict[str, int]:
        """Write the warm-start snapshot now; returns per-layer counts."""
        if self._snapshot_path is None:
            raise ValueError("no snapshot path configured")
        with self._flush_lock:
            counts = self._pool.save_snapshot()
            with self._count_lock:
                self._decided_since_flush = 0
                self._flush_error = None
            return counts

    def _flush_loop(self) -> None:
        while not self._stopped.wait(self._flush_interval):
            try:
                self.flush_snapshot()
            except Exception as error:  # flush must not kill serve
                self._flush_error = error_text(error)

    def maybe_flush(self) -> None:
        """Apply the every-N-decisions flush policy now, if it is due.

        The gateway calls this from an executor thread after each
        decision, so a flush never blocks the event loop.
        """
        if (self._snapshot_path is not None and self._flush_every > 0
                and self._decided_since_flush >= self._flush_every):
            try:
                self.flush_snapshot()
            except Exception as error:  # flush must not kill serve
                self._flush_error = error_text(error)

    def close(self) -> dict:
        """Stop the flush timer and run the final snapshot flush.

        Idempotent: the front end closes on exit and CLI teardown may
        close again — the snapshot is flushed exactly once and every
        call returns the same final stats dict: ``served``/``errors``
        counters, the per-layer ``flushed`` counts (``None`` when no
        snapshot is configured), and ``flush_error`` — the final
        flush's failure text instead of a silent drop.
        """
        with self._close_lock:
            if self._close_stats is None:
                self._stopped.set()
                if self._flusher is not None:
                    self._flusher.join(timeout=2.0)
                flushed = flush_error = None
                if self._snapshot_path is not None:
                    try:
                        flushed = self.flush_snapshot()
                    except Exception as error:  # teardown stays graceful
                        flush_error = error_text(error)
                        self._flush_error = flush_error
                self._close_stats = {"served": self._served,
                                     "errors": self._errors,
                                     "flushed": flushed,
                                     "flush_error": flush_error}
            return dict(self._close_stats)

    # -- control ops -----------------------------------------------------

    def control(self, data: dict) -> dict:
        """Answer one parsed control op (``shutdown`` is the front end's)."""
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
