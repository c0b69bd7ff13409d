"""Semiring-aware CQ minimization.

The paper's motivation (Sec. 1): query optimizers rewrite queries into
equivalent smaller ones, and *equivalence depends on the annotation
semiring*.  Under set semantics a CQ can be minimized to its core by
deleting redundant atoms; under bag or provenance semantics most such
deletions change the result.

:func:`minimize_cq` deletes atoms (and, implicitly, the variables they
bound) while ``K``-equivalence — decided by the Table-1 machinery — is
preserved.  For ``Chom`` semirings this computes the classical core; for
``Cbi`` semirings (e.g. ``N[X]``) queries are already minimal unless
they contain exactly duplicated atom structure; classes in between
shrink exactly as much as their homomorphism type allows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.containment import k_equivalent
from ..core.context import resolve_context
from ..queries.cq import CQ

__all__ = ["MinimizationResult", "minimize_cq"]


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of :func:`minimize_cq`.

    ``query``    — the minimized query (``K``-equivalent to the input).
    ``original`` — the input query.
    ``removed``  — how many atom occurrences were deleted.
    ``steps``    — the chain of intermediate queries, for explanation.
    """

    query: CQ
    original: CQ
    removed: int
    steps: tuple[CQ, ...]

    @property
    def minimal(self) -> bool:
        """True when no atom could be removed."""
        return self.removed == 0


def _atom_deletions(query: CQ):
    """All single-atom deletions that leave a well-formed CQ."""
    atoms = query.atoms
    for index in range(len(atoms)):
        remaining = atoms[:index] + atoms[index + 1:]
        if not remaining:
            continue
        body_vars = {v for atom in remaining for v in atom.variables()}
        if all(var in body_vars for var in query.head):
            yield CQ(query.head, remaining)


def minimize_cq(query: CQ, semiring, *,
                context=None) -> MinimizationResult:
    """Greedily delete atoms while ``K``-equivalence is certain.

    Only deletions whose equivalence the Table-1 procedures *decide*
    positively are applied, so the result is always ``K``-equivalent to
    the input — for semirings with undecided fragments (e.g. bag
    semantics) the minimization is sound but may be conservative.

    ``context`` threads a :class:`~repro.core.context.DecisionContext`
    into every equivalence check, so the quadratically many candidate
    checks share homomorphism searches: pass an engine's caching
    context (``engine.context``), or ``None`` for one fresh engine
    shared by every check of this call.
    """
    context = resolve_context(context)
    current = query
    steps = [query]
    changed = True
    while changed:
        changed = False
        for candidate in _atom_deletions(current):
            verdict = k_equivalent(current, candidate, semiring,
                                   context=context)
            if verdict.result is True:
                current = candidate
                steps.append(candidate)
                changed = True
                break
    return MinimizationResult(
        query=current,
        original=query,
        removed=len(query.atoms) - len(current.atoms),
        steps=tuple(steps),
    )
