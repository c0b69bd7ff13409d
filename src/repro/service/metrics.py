"""Service-level counters for the supervised pool and async gateway.

The engine's ``cache_info()`` counters describe *decision* work (hits,
misses, hom searches); they say nothing about the serving layer —
whether requests were shed under load, expired past their deadline,
or re-driven through a respawned worker.  :class:`ServiceMetrics` is
the one shared scoreboard for that layer: the pool's supervisor writes
it, the :class:`~repro.service.gateway.AsyncGateway` writes its
admission outcomes to it and reads it back for the ``stats`` op, so a
single ``{"op": "stats"}`` round-trip shows the full serving picture.

Everything here is a plain monotonic counter or a gauge — cheap enough
to update on every request under one lock, JSON-able via
:meth:`ServiceMetrics.as_dict`, and summable across restarts only by
the reader (the service itself never resets them).
"""

from __future__ import annotations

import threading

__all__ = ["ServiceMetrics"]

#: The monotonic counters a metrics instance tracks, in report order.
_COUNTERS = ("accepted", "shed", "expired", "respawns", "steals",
             "redriven", "redrive_failures")


class ServiceMetrics:
    """Thread-safe counters describing the serving layer's behaviour.

    ``accepted``/``shed``/``expired`` count gateway admission outcomes;
    ``respawns``/``steals``/``redriven``/``redrive_failures`` count
    supervisor actions.  ``worker_restarts`` is a per-shard restart
    tally, and the queue-depth gauges record the most recent and the
    high-watermark backlog the dispatcher has seen.
    """

    def __init__(self, workers: int = 0):
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in _COUNTERS}
        self._restarts = [0] * max(0, int(workers))
        self._queue_depths: list[int] = []
        self._max_backlog = 0

    def add(self, name: str, amount: int = 1) -> None:
        """Increment one of the named monotonic counters."""
        with self._lock:
            self._counts[name] += amount

    def get(self, name: str) -> int:
        """Read one counter (mostly for tests and assertions)."""
        with self._lock:
            return self._counts[name]

    def note_restart(self, index: int) -> None:
        """Record that worker ``index`` was respawned once more."""
        with self._lock:
            while len(self._restarts) <= index:
                self._restarts.append(0)
            self._restarts[index] += 1

    def respawns(self, index: int) -> int:
        """How many times worker ``index`` was respawned so far."""
        with self._lock:
            return self._restarts[index]

    def note_depths(self, queue_depths: list[int]) -> None:
        """Record the dispatcher's current per-shard backlog depths."""
        with self._lock:
            self._queue_depths = list(queue_depths)
            backlog = sum(queue_depths)
            if backlog > self._max_backlog:
                self._max_backlog = backlog

    def as_dict(self) -> dict:
        """A JSON-able snapshot of every counter and gauge."""
        with self._lock:
            report: dict = dict(self._counts)
            report["worker_restarts"] = list(self._restarts)
            report["queue_depths"] = list(self._queue_depths)
            report["max_backlog"] = self._max_backlog
            return report
