"""The variable-level quotient and complete description: a test oracle.

Before quotients were computed on integer-coded rows
(:class:`repro.queries.ccq.QueryCode`), ``repro.queries.ccq`` built
each CCQ of ``⟨Q⟩`` by substituting variables: every block of a
partition becomes its smallest variable, and every pair of surviving
blocks is made unequal.  That construction is kept here, outside the
installed package, in the way ``tests/reference_iso.py`` keeps the
factorial canonicalizer: the oracles of ``tests/occurrence_conditions.py``,
the class-table tests and the coded-quotient tests expand ``⟨Q⟩``
through it, so the expansion they check against shares no code with
the coded path under test.
"""

from __future__ import annotations

from typing import Iterable

from repro.queries.atoms import Var
from repro.queries.ccq import CQWithInequalities, set_partitions
from repro.queries.cq import CQ

__all__ = ["quotient", "reference_complete_description",
           "reference_complete_description_ucq", "set_reduce"]


def quotient(query: CQ, partition: tuple[tuple[Var, ...], ...]
             ) -> CQWithInequalities:
    """Identify variables inside each block and attach all inequalities
    between the surviving representatives."""
    mapping: dict[Var, Var] = {}
    representatives: list[Var] = []
    for block in partition:
        representative = min(block)
        representatives.append(representative)
        for var in block:
            mapping[var] = representative
    atoms = tuple(atom.substitute(mapping) for atom in query.atoms)
    pairs = [
        (x, y)
        for i, x in enumerate(representatives)
        for y in representatives[i + 1:]
    ]
    return CQWithInequalities(query.head, atoms, pairs)


def reference_complete_description(query: CQ
                                   ) -> tuple[CQWithInequalities, ...]:
    """``⟨Q⟩``: one CCQ per partition of the existential variables, in
    ``set_partitions`` order; a complete CCQ is its own description."""
    if isinstance(query, CQWithInequalities):
        if not query.is_complete():
            raise ValueError(
                "complete descriptions of partially-constrained queries "
                "are not defined by the paper")
        return (query,)
    return tuple(
        quotient(query, partition)
        for partition in set_partitions(query.existential_vars())
    )


def reference_complete_description_ucq(queries: Iterable[CQ]
                                       ) -> tuple[CQWithInequalities, ...]:
    """The disjoint (multiset) union of the members' descriptions."""
    result: list[CQWithInequalities] = []
    for query in queries:
        result.extend(reference_complete_description(query))
    return tuple(result)


def set_reduce(ccq: CQ) -> CQ:
    """``ccq`` with duplicate atoms dropped, built through the
    validating constructor."""
    unique = sorted(set(ccq.atoms))
    pairs = tuple(tuple(pair) for pair in
                  getattr(ccq, "inequalities", frozenset()))
    return CQWithInequalities(ccq.head, unique, pairs)
