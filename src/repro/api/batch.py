"""Streaming JSONL batch processing.

Workloads like rewrite auditing issue thousands of containment checks
against a fixed semiring.  This module turns an engine into a JSONL
filter: one request document per input line, one verdict document per
output line, errors reported in-band so a single malformed line never
kills the stream::

    {"semiring": "B", "q1": "Q() :- R(x, y)", "q2": "Q() :- R(x, x)"}

becomes

    {"result": false, "method": "homomorphism", ...}

Used by ``python -m repro batch`` and directly importable for services.
With a :class:`~repro.service.pool.WorkerPool`, :func:`process_lines`
pipelines the same stream across worker processes — output order and
in-band error positions are identical to the sequential run.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .documents import ContainmentRequest, coerce_request_id
from .engine import ContainmentEngine

__all__ = ["BatchError", "REQUEST_ERRORS", "error_text", "process_lines",
           "requests_from_lines"]

#: Exceptions a decision may raise that are *request* problems, not
#: engine or pool problems — reported in-band (a query ``ParseError``
#: is a ``ValueError``).
REQUEST_ERRORS = (ValueError, TypeError, KeyError)


def error_text(error: BaseException) -> str:
    """Human-readable message without repr artifacts.

    ``str(KeyError)`` wraps the message in quotes; unwrap it so the
    machine-readable error stream carries the bare text.
    """
    if isinstance(error, KeyError) and error.args:
        return str(error.args[0])
    return str(error)


@dataclass(frozen=True)
class BatchError:
    """A per-line failure, reported in-band in the output stream."""

    line: int
    error: str
    id: str | None = None

    def to_dict(self) -> dict:
        """Plain JSON-able representation."""
        data: dict = {"line": self.line, "error": self.error}
        if self.id is not None:
            data["id"] = self.id
        return data


def requests_from_lines(lines: Iterable[str], *, parse=None
                        ) -> Iterator[tuple[int, object]]:
    """Parse JSONL request lines into ``(lineno, request-or-error)``.

    Blank lines and ``#`` comments are skipped.  Malformed lines yield
    a :class:`BatchError` instead of raising, so callers can keep
    streaming.
    """
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        request_id = None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("request line must be a JSON object")
            try:
                request_id = coerce_request_id(data.get("id"))
            except TypeError:
                request_id = None  # unusable id: not echoed on errors
            yield lineno, ContainmentRequest.from_dict(data, parse=parse)
        except REQUEST_ERRORS as error:
            yield lineno, BatchError(lineno, error_text(error),
                                     id=request_id)


def process_lines(engine: ContainmentEngine, lines: Iterable[str], *,
                  pool=None) -> Iterator[dict]:
    """Decide a JSONL request stream, yielding JSON-able result dicts.

    Each yielded dict is either a verdict document or an in-band error
    object ``{"line": n, "error": ...}``.  Pass a
    :class:`~repro.service.pool.WorkerPool` as ``pool`` to decide
    across worker processes: lines are still parsed here (through the
    engine's interning cache), requests are pipelined through the pool
    with bounded look-ahead, and results come out in input order with
    in-band errors in exactly the positions of a sequential run.  The
    caller owns the pool's lifecycle.
    """
    if pool is None:
        for lineno, item in requests_from_lines(lines, parse=engine.parse):
            if isinstance(item, BatchError):
                yield item.to_dict()
                continue
            try:
                yield engine.decide_request(item).to_dict()
            except REQUEST_ERRORS as error:
                yield BatchError(lineno, error_text(error),
                                 id=item.id).to_dict()
        return
    yield from _process_lines_pooled(engine, lines, pool)


def _process_lines_pooled(engine: ContainmentEngine, lines: Iterable[str],
                          pool) -> Iterator[dict]:
    """The pool-backed pipeline behind :func:`process_lines`."""
    from ..service.pool import DecisionError

    window = 32 * pool.workers
    # Head-of-line entries: ("done", dict) for already-resolved lines,
    # ("seq", token, lineno, id) for requests in flight on the pool.
    pending: deque = deque()

    def resolve(entry) -> dict:
        if entry[0] == "done":
            return entry[1]
        _, token, lineno, request_id = entry
        outcome = pool.result(token)
        if isinstance(outcome, DecisionError):
            return BatchError(lineno, outcome.error,
                              id=outcome.id if outcome.id is not None
                              else request_id).to_dict()
        return outcome.to_dict()

    for lineno, item in requests_from_lines(lines, parse=engine.parse):
        if isinstance(item, BatchError):
            pending.append(("done", item.to_dict()))
        else:
            try:
                pending.append(("seq", pool.submit(item), lineno, item.id))
            except RuntimeError as error:  # dead shard: stay in-band
                pending.append(("done", BatchError(
                    lineno, str(error), id=item.id).to_dict()))
        # Yield everything already decided (head-of-line), and block on
        # the head once the look-ahead window is full.
        while pending and (pending[0][0] == "done"
                           or len(pending) >= window):
            yield resolve(pending.popleft())
    while pending:
        yield resolve(pending.popleft())
