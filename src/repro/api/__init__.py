"""`repro.api` — the stable, cached, batch-oriented facade.

This package is the canonical way to *use* the library.  It bundles the
Table-1 decision procedures behind :class:`ContainmentEngine`, which
owns a mutable semiring registry, memoizes the expensive primitives
(classification, parsing, homomorphism search) and speaks
JSON-serializable request/verdict documents so containment checking can
be embedded in services, batch pipelines and golden-file tests::

    from repro.api import ContainmentEngine

    engine = ContainmentEngine()
    doc = engine.decide("Q() :- R(u, v), R(u, w)",
                        "Q() :- R(u, v), R(u, v)", "B")
    doc.result          # True
    doc.to_dict()       # plain JSON-able data

The CLI, the examples and the benchmarks all route through this facade.
"""

from .batch import (DecisionError, error_text, process_lines,
                    requests_from_lines)
from .documents import ContainmentRequest, VerdictDocument
from .engine import ContainmentEngine, EngineStats, stats_report

__all__ = [
    "ContainmentEngine",
    "ContainmentRequest",
    "DecisionError",
    "EngineStats",
    "VerdictDocument",
    "error_text",
    "process_lines",
    "requests_from_lines",
    "stats_report",
]
