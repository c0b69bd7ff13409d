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
Every JSONL front end reads its lines through :func:`decode_line` and
answers failures with one in-band type, :class:`DecisionError`.  With
a :class:`~repro.service.pool.WorkerPool`, :func:`process_lines` runs
the same stream on :meth:`~repro.service.pool.WorkerPool.decide_stream`
— output order and in-band error positions are identical to the
sequential run.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping

from .documents import ContainmentRequest, coerce_request_id
from .engine import ContainmentEngine

__all__ = ["DecisionError", "REQUEST_ERRORS", "decode_line", "error_text",
           "process_lines", "request_id_of", "requests_from_lines"]

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
class DecisionError:
    """An in-band per-request failure.

    The message text, the request's correlation id (when one was
    readable) and, in ``batch`` output, the input line number.  Fields
    that are not set are left out of :meth:`to_dict`, so ``serve``
    answers ``{"error": ..., "id": ...}`` and ``batch`` answers
    ``{"line": n, "error": ..., "id": ...}``.
    """

    error: str
    id: str | None = None
    line: int | None = None

    def to_dict(self) -> dict:
        """Plain JSON-able representation."""
        data: dict = {} if self.line is None else {"line": self.line}
        data["error"] = self.error
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


def decode_line(line: str) -> dict | DecisionError | None:
    """Decode one JSONL request line.

    Returns ``None`` for a blank or ``#`` comment line, the decoded
    JSON object, or a :class:`DecisionError` when the line is not a
    JSON object — nesting too deep for the decoder included, so no
    line can crash the stream.
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as error:
        return DecisionError(error_text(error))
    if not isinstance(data, dict):
        return DecisionError("request line must be a JSON object")
    return data


def requests_from_lines(lines: Iterable[str], *, parse=None
                        ) -> Iterator[tuple[int, object]]:
    """Parse JSONL request lines into ``(lineno, request-or-error)``.

    Blank lines and ``#`` comments are skipped.  Malformed lines yield
    a :class:`DecisionError` carrying the line number instead of
    raising, so callers can keep streaming.
    """
    for lineno, line in enumerate(lines, 1):
        data = decode_line(line)
        if data is None:
            continue
        if isinstance(data, DecisionError):
            yield lineno, replace(data, line=lineno)
            continue
        try:
            request = ContainmentRequest.from_dict(data, parse=parse)
        except REQUEST_ERRORS as error:
            yield lineno, DecisionError(error_text(error),
                                        id=request_id_of(data), line=lineno)
            continue
        yield lineno, request


def _decide_each(engine: ContainmentEngine, items: Iterable
                 ) -> Iterator[object]:
    """Decide requests in process, passing in-band errors through."""
    for item in items:
        if isinstance(item, DecisionError):
            yield item
            continue
        try:
            yield engine.decide_request(item)
        except REQUEST_ERRORS as error:
            yield DecisionError(error_text(error), id=item.id)


def process_lines(engine: ContainmentEngine, lines: Iterable[str], *,
                  pool=None) -> Iterator[dict]:
    """Decide a JSONL request stream, yielding JSON-able result dicts.

    Each yielded dict is either a verdict document or an in-band error
    object ``{"line": n, "error": ...}``.  Lines are always parsed
    here, through the engine's interning cache.  Pass a
    :class:`~repro.service.pool.WorkerPool` as ``pool`` to decide them
    on :meth:`~repro.service.pool.WorkerPool.decide_stream`: results
    come out in input order with in-band errors in exactly the
    positions of a sequential run, each as soon as it is decided (the
    lines are then read and parsed on the stream's feeder thread, so a
    result never waits for the next line).  The caller owns the pool's
    lifecycle.
    """
    linenos: deque[int] = deque()

    def items() -> Iterator[object]:
        for lineno, item in requests_from_lines(lines, parse=engine.parse):
            linenos.append(lineno)
            yield item

    outcomes = (_decide_each(engine, items()) if pool is None
                else pool.decide_stream(items()))
    for outcome in outcomes:
        lineno = linenos.popleft()
        if isinstance(outcome, DecisionError):
            outcome = replace(outcome, line=lineno)
        yield outcome.to_dict()
