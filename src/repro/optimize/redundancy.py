"""UCQ redundancy elimination, parameterized by the annotation semiring.

A member of a union is *redundant* when removing it leaves a
``K``-equivalent UCQ.  Over ⊕-idempotent semirings a member contained in
the rest of the union is redundant (requirement (C4) plus idempotence);
over non-idempotent semirings (bag semantics, provenance polynomials)
multiplicities matter and far fewer members can be dropped — e.g.
``{Q, Q}`` is *not* equivalent to ``{Q}`` over ``N[X]``, but is over
``B[X]``.  This is Table 1's offset story applied to rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.containment import k_equivalent
from ..core.context import resolve_context
from ..queries.ucq import UCQ, as_ucq

__all__ = ["RedundancyResult", "eliminate_redundant_members"]


@dataclass(frozen=True)
class RedundancyResult:
    """Outcome of :func:`eliminate_redundant_members`.

    ``query``    — the reduced UCQ (``K``-equivalent to the input).
    ``original`` — the input UCQ.
    ``removed``  — the members that were dropped.
    """

    query: UCQ
    original: UCQ
    removed: tuple

    @property
    def minimal(self) -> bool:
        """True when no member could be removed."""
        return not self.removed


def eliminate_redundant_members(query, semiring, *,
                                context=None) -> RedundancyResult:
    """Drop members whose removal is *provably* ``K``-equivalence
    preserving.

    Each candidate removal is certified with
    :func:`~repro.core.containment.k_equivalent`; undecided verdicts
    keep the member (sound, possibly conservative — exactly the honest
    behaviour for bag semantics).  ``context`` threads a
    :class:`~repro.core.context.DecisionContext` into every check so
    engine callers reuse their caches (``None``: one fresh engine for
    every check of this call).
    """
    context = resolve_context(context)
    original = as_ucq(query)
    current = original
    removed: list = []
    changed = True
    while changed:
        changed = False
        members = current.cqs
        for index in range(len(members)):
            candidate = UCQ(members[:index] + members[index + 1:])
            verdict = k_equivalent(current, candidate, semiring,
                                   context=context)
            if verdict.result is True:
                removed.append(members[index])
                current = candidate
                changed = True
                break
    return RedundancyResult(query=current, original=original,
                            removed=tuple(removed))
