"""Query evaluation over K-instances (Sec. 2, "Evaluations").

For a CQ ``Q = ∃v R1(u1,v1), …, Rn(un,vn)``, instance ``I`` and tuple
``t``::

    Q^I(t)  =  Σ_{f ∈ V(Q,t)}  Π_i  Ri^I(f(ui, vi))

where ``V(Q, t)`` contains every mapping of the query's variables to the
domain with ``f(u) = t``.  Only mappings that send every atom into the
support contribute, so the sum is computed by a backtracking join over
the support.  For CQs with inequalities, ``V(Q, t)`` keeps only mappings
giving constrained pairs distinct values.  A UCQ evaluates to the sum of
its members; the empty UCQ evaluates to ``0``.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..data.instance import Instance
from .atoms import is_var
from .ccq import CQWithInequalities
from .cq import CQ
from .ucq import UCQ

__all__ = ["valuations", "evaluate", "evaluate_all"]


def valuations(query: CQ, instance: Instance,
               target: tuple | None = None) -> Iterator[dict]:
    """Enumerate the support-hitting members of ``V(Q, target)``.

    Yields variable assignments under which every atom lands on a
    supported tuple (all other mappings contribute ``0`` to the sum).
    With ``target=None`` the head is unconstrained — used to enumerate
    all answers at once.
    """
    assignment: dict = {}
    if target is not None:
        target = tuple(target)
        if len(target) != query.arity:
            raise ValueError(
                f"target arity {len(target)} ≠ query arity {query.arity}")
        for var, value in zip(query.head, target):
            if assignment.setdefault(var, value) != value:
                return  # repeated head variable with clashing values
    constraints = (query.respects
                   if isinstance(query, CQWithInequalities) else None)
    if constraints is not None and not constraints(assignment):
        return
    atoms = sorted(query.atoms, key=lambda atom: -len(atom.variables()))
    yield from _extend(atoms, 0, assignment, instance, constraints)


def _extend(atoms, index: int, assignment: dict, instance: Instance,
            constraints) -> Iterator[dict]:
    if index == len(atoms):
        yield dict(assignment)
        return
    atom = atoms[index]
    for row, _annotation in instance.support(atom.relation):
        if len(row) != atom.arity:
            continue
        bound: list = []
        ok = True
        for term, value in zip(atom.terms, row):
            if is_var(term):
                if term in assignment:
                    if assignment[term] != value:
                        ok = False
                        break
                else:
                    assignment[term] = value
                    bound.append(term)
            elif term != value:
                ok = False
                break
        if ok and (constraints is None or constraints(assignment)):
            yield from _extend(atoms, index + 1, assignment, instance,
                               constraints)
        for term in bound:
            del assignment[term]


def _evaluate_cq(query: CQ, instance: Instance, target: tuple,
                 semiring) -> Any:
    return semiring.sum(
        semiring.prod(
            instance.annotation(atom.relation,
                                tuple(
                                    valuation.get(term, term)
                                    for term in atom.terms
                                ))
            for atom in query.atoms
        )
        for valuation in valuations(query, instance, target)
    )


def evaluate(query, instance: Instance, target: tuple | None = None,
             semiring=None) -> Any:
    """Evaluate a CQ or UCQ on ``instance`` for ``target``.

    ``semiring`` defaults to the instance's semiring.  ``target`` may be
    omitted for boolean (arity-0) queries.
    """
    semiring = semiring or instance.semiring
    if target is None:
        target = ()
    if isinstance(query, UCQ):
        return semiring.sum(
            _evaluate_cq(cq, instance, target, semiring) for cq in query
        )
    if isinstance(query, CQ):
        return _evaluate_cq(query, instance, target, semiring)
    raise TypeError(f"expected CQ or UCQ, got {type(query).__name__}")


def evaluate_all(query, instance: Instance,
                 semiring=None) -> dict[tuple, Any]:
    """All answers: map from head tuples to non-zero annotations."""
    semiring = semiring or instance.semiring
    members = query if isinstance(query, UCQ) else (query,)
    answers: dict[tuple, Any] = {}
    for cq in members:
        for valuation in valuations(cq, instance, None):
            head = tuple(valuation.get(term, term) for term in cq.head)
            value = semiring.prod(
                instance.annotation(
                    atom.relation,
                    tuple(valuation.get(term, term) for term in atom.terms))
                for atom in cq.atoms
            )
            if head in answers:
                answers[head] = semiring.add(answers[head], value)
            else:
                answers[head] = value
    return {
        head: value for head, value in answers.items()
        if not semiring.is_zero(value)
    }
