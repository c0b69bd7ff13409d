"""Static join plans for columnar CQ evaluation.

A plan fixes, per CQ, everything the executor in
:mod:`repro.eval.join` needs that does not depend on the data: the atom
order, and per atom the constant filters, intra-atom repeated-variable
constraints, which variables join against the already-built frontier,
which are newly bound, and which inequality pairs become fully bound.

Atom order follows the most-constrained-first idea of
:mod:`repro.homomorphisms.search`, transplanted to the data-free
setting: greedily pick the atom with the most variables already bound
by earlier steps (so every join has equality keys and cross products
are a last resort), breaking ties toward more constants and repeated
variables (selective filters first), then fewer new variables, then the
canonical atom order for determinism.

Plans are immutable, hashable and numpy-free, so they ride the engine's
cache plumbing like every other derived structure: ``ContainmentEngine``
memoizes :func:`build_plan` in its ``eval_plans`` LRU layer
(snapshot-portable — plans contain only query terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..queries.atoms import Var, is_var, term_sort_key
from ..queries.ccq import CQWithInequalities
from ..queries.cq import CQ

__all__ = ["AtomStep", "EvalPlan", "build_plan"]


@dataclass(frozen=True)
class AtomStep:
    """One atom's contribution to the join pipeline."""

    relation: str
    arity: int
    #: ``(position, constant)`` filters from constant terms.
    const_filters: tuple[tuple[int, Any], ...]
    #: ``(later, first)`` position pairs of repeated variables.
    dup_filters: tuple[tuple[int, int], ...]
    #: Distinct variables with their first position, in term order.
    out_vars: tuple[tuple[Var, int], ...]
    #: Subset of ``out_vars``' variables already bound by earlier steps.
    join_vars: tuple[Var, ...]
    #: Variables this step binds for the first time.
    new_vars: tuple[Var, ...]
    #: Inequality pairs (a variable, then a variable or a constant) that
    #: become fully bound after this step.
    ineq_checks: tuple[tuple[Var, Any], ...]


@dataclass(frozen=True)
class EvalPlan:
    """A complete, data-independent evaluation plan for one CQ."""

    head: tuple
    steps: tuple[AtomStep, ...]


def _atom_shape(atom):
    """``(const_filters, dup_filters, out_vars)`` of one atom."""
    const_filters = []
    dup_filters = []
    first_position: dict[Var, int] = {}
    for position, term in enumerate(atom.terms):
        if not is_var(term):
            const_filters.append((position, term))
        elif term in first_position:
            dup_filters.append((position, first_position[term]))
        else:
            first_position[term] = position
    out_vars = tuple(sorted(first_position.items(), key=lambda kv: kv[1]))
    return tuple(const_filters), tuple(dup_filters), out_vars


def build_plan(query: CQ) -> EvalPlan:
    """Compile ``query`` into an :class:`EvalPlan`.

    Raises :class:`ValueError` for non-range-restricted queries (a head
    variable that no atom binds), which the tuple-at-a-time evaluator
    cannot answer either.
    """
    # A pair sorts its variable first: ``(x, y)`` or ``(x, constant)``.
    inequalities = (tuple(sorted(tuple(sorted(pair, key=term_sort_key))
                                 for pair in query.inequalities))
                    if isinstance(query, CQWithInequalities) else ())
    shapes = [(atom, *_atom_shape(atom)) for atom in query.atoms]
    bound: set[Var] = set()
    pending_ineqs = list(inequalities)
    steps: list[AtomStep] = []
    remaining = list(range(len(shapes)))
    while remaining:
        def priority(index: int):
            atom, const_filters, dup_filters, out_vars = shapes[index]
            already = sum(1 for var, _ in out_vars if var in bound)
            return (-already, -(len(const_filters) + len(dup_filters)),
                    len(out_vars), atom.sort_key())

        index = min(remaining, key=priority)
        remaining.remove(index)
        atom, const_filters, dup_filters, out_vars = shapes[index]
        join_vars = tuple(var for var, _ in out_vars if var in bound)
        new_vars = tuple(var for var, _ in out_vars if var not in bound)
        bound.update(new_vars)
        ready = tuple(pair for pair in pending_ineqs
                      if pair[0] in bound
                      and (pair[1] in bound or not is_var(pair[1])))
        pending_ineqs = [pair for pair in pending_ineqs
                         if pair not in ready]
        steps.append(AtomStep(
            relation=atom.relation, arity=atom.arity,
            const_filters=const_filters, dup_filters=dup_filters,
            out_vars=out_vars, join_vars=join_vars, new_vars=new_vars,
            ineq_checks=ready,
        ))
    if pending_ineqs:
        raise ValueError(
            f"inequality variables never bound by any atom: {pending_ineqs}")
    unbound = [term for term in query.head
               if is_var(term) and term not in bound]
    if unbound:
        raise ValueError(
            f"query is not range-restricted: head variables {unbound} "
            "appear in no atom")
    return EvalPlan(head=tuple(query.head), steps=tuple(steps))
