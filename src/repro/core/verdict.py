"""Containment verdicts.

Every decision entry point returns a :class:`Verdict` rather than a bare
boolean, because the paper's theory is not total: for semirings such as
bag semantics ``N`` the containment problem is open (CQs) or undecidable
(UCQs), and the best the library can honestly report is the value of the
known necessary and sufficient conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["MemberMatching", "Refutation", "Verdict", "Undecided"]


class Undecided(RuntimeError):
    """Raised by :meth:`Verdict.unwrap` when no decision was reached."""


@dataclass(frozen=True)
class MemberMatching:
    """A union-level certificate: each ``Q1`` member gets its own ``Q2``
    member and a bijective homomorphism from it onto the ``Q1`` member.

    ``assignment`` holds ``(q1 index, q2 index, mapping)`` triples in
    ``Q1`` member order; indices count the members of the unions as
    stored (:class:`~repro.queries.ucq.UCQ` sorts them), and no ``Q2``
    index occurs twice.
    """

    assignment: tuple[tuple[int, int, dict], ...]


@dataclass(frozen=True)
class Refutation:
    """A counterexample certificate: a ``K``-instance on which
    ``Q1 ⊆K Q2`` fails.

    ``facts`` holds the instance as ``(relation, row, value)`` triples
    (each row once, its value a ``K`` element), ``target`` is an output
    tuple of ``Q1``'s arity, and ``lhs``/``rhs`` are the values of
    ``Q1`` and ``Q2`` there, with ``lhs ⋠ rhs`` in ``K``'s natural
    order.  It is stated against the decided pair itself, so
    :func:`repro.core.explain.check_refutation` re-checks it by
    evaluating both queries.
    """

    facts: tuple[tuple[str, tuple, Any], ...]
    target: tuple
    lhs: Any
    rhs: Any


@dataclass(frozen=True)
class Verdict:
    """Outcome of a containment check ``Q1 ⊆K Q2``.

    ``result``      — True / False when decided, None when the theory
    only provides bounds for the semiring at hand.
    ``method``      — the procedure that produced the decision (e.g.
    ``"homomorphism"``, ``"small-model"``, ``"bi-count-k"``).
    ``certificate`` — evidence: a homomorphism mapping, a violated
    necessary condition name, a canonical-instance witness, ...
    ``sufficient``  — for undecided verdicts, the value of the strongest
    applicable *sufficient* condition (False means "cannot conclude").
    ``necessary``   — likewise for the strongest *necessary* condition
    (True means "cannot refute").
    ``explanation`` — human-readable summary.
    """

    result: bool | None
    method: str
    certificate: Any = None
    sufficient: bool | None = None
    necessary: bool | None = None
    explanation: str = ""

    @property
    def decided(self) -> bool:
        """True when the verdict carries a definite answer."""
        return self.result is not None

    def unwrap(self) -> bool:
        """The boolean answer; raises :class:`Undecided` if there is
        none."""
        if self.result is None:
            raise Undecided(
                f"containment undecided ({self.method}): {self.explanation}")
        return self.result

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError(
            "Verdict cannot be used as a bare boolean; inspect .result or "
            "call .unwrap()")
