"""Rewrite-rule checking for relational algebra over annotations.

An optimizer rewrite ``E1 → E2`` is *K-safe* when ``E2`` returns at
least (``⊆K``) or exactly (``≡K``) the annotated result of ``E1`` on
every database.  Compiling both sides to UCQs reduces safety to the
paper's containment problem, decided by the Table-1 machinery — so the
same rewrite can be certified for set semantics yet rejected for
provenance, which is the motivating scenario of the paper's
introduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.containment import decide_ucq_containment
from ..core.context import resolve_context
from ..core.verdict import Verdict
from .expressions import RAExpression

__all__ = ["RewriteCheck", "check_rewrite"]


@dataclass(frozen=True)
class RewriteCheck:
    """Outcome of checking an algebra rewrite under one semiring.

    ``forward``  — verdict for ``E1 ⊆K E2`` (the rewrite loses nothing).
    ``backward`` — verdict for ``E2 ⊆K E1`` (the rewrite adds nothing).
    """

    semiring_name: str
    forward: Verdict
    backward: Verdict

    @property
    def equivalent(self) -> bool | None:
        """True / False when decided; None when either side is open."""
        results = (self.forward.result, self.backward.result)
        if False in results:
            return False
        if results == (True, True):
            return True
        return None

    def summary(self) -> str:
        """One-line report."""
        status = {True: "EQUIVALENT", False: "NOT EQUIVALENT",
                  None: "UNDECIDED"}[self.equivalent]
        return (f"{status} under {self.semiring_name} "
                f"[⊆: {self.forward.result}, ⊇: {self.backward.result}]")


def check_rewrite(original: RAExpression, rewritten: RAExpression,
                  semiring, *, context=None) -> RewriteCheck:
    """Certify an algebra rewrite under an annotation semiring.

    Both expressions are compiled to UCQs and compared in both
    directions with the class-appropriate decision procedure.
    ``context`` threads a :class:`~repro.core.context.DecisionContext`
    into both directions, so the backward check replays the forward
    check's homomorphism searches (pass ``engine.context``; ``None``
    decides both on one fresh engine).
    """
    context = resolve_context(context)
    if original.attributes != rewritten.attributes:
        raise ValueError(
            f"rewrite changes the schema: {original.attributes} vs "
            f"{rewritten.attributes}")
    q1 = original.to_ucq()
    q2 = rewritten.to_ucq()
    return RewriteCheck(
        semiring_name=semiring.name,
        forward=decide_ucq_containment(q1, q2, semiring, context=context),
        backward=decide_ucq_containment(q2, q1, semiring, context=context),
    )
