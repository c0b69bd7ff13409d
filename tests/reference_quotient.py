"""The variable-level, rigid-relative complete description: a test oracle.

The package builds ``⟨Q⟩`` on integer codes
(:class:`repro.queries.ccq.QueryCode`,
:func:`repro.queries.ccq.description_orbits`).  This module builds the
same multiset by substituting variables, sharing none of that code: the
oracles of ``tests/occurrence_conditions.py``, the class-table tests and
the coded-quotient tests expand ``⟨Q⟩`` through it.

``⟨Q⟩`` is taken relative to the rigid terms ``R``: ``Q``'s head
variables and the given constants (those of the containment pair).  It
has one CCQ per partition of the existentials in which each block is
free or bound to one rigid term: a bound block becomes its term, a free
block its smallest variable, every free block is unequal to every other
free block and to every rigid term, and an inequality of ``Q`` whose
sides both became rigid terms stays (unless both are constants).  A
partition that puts two constrained terms of ``Q`` together is not one
of ``Q``'s.  The CCQs come in the package's order (bindings in product
order over free-then-each-rigid-term, then the free variables' set
partitions), so class tables can be compared row by row.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from repro.queries.atoms import Var, is_var, term_sort_key
from repro.queries.ccq import CQWithInequalities, set_partitions
from repro.queries.cq import CQ
from repro.queries.ucq import UCQ

__all__ = ["pair_constants", "quotient", "reference_complete_description",
           "reference_complete_description_ucq", "reference_head_patterns",
           "reference_occurrences", "set_reduce"]

_FREE = object()


def pair_constants(*unions: Iterable[CQ]) -> tuple:
    """Every constant of the given queries' atoms and inequalities, in
    term order (``1`` and ``True`` kept apart)."""
    found = {}
    for union in unions:
        for member in union:
            terms = [term for atom in member.atoms for term in atom.terms]
            terms += [term for pair in getattr(member, "inequalities", ())
                      for term in pair]
            for term in terms:
                if not is_var(term):
                    found[(type(term), term)] = term
    return tuple(sorted(found.values(), key=term_sort_key))


def _rigid_terms(query: CQ, constants: Iterable) -> list:
    """``query``'s head variables and constants with ``constants``, in
    term order."""
    terms = {(type(term), term): term
             for term in (*query.head, *pair_constants([query]),
                          *constants)}
    return sorted(terms.values(), key=term_sort_key)


def quotient(query: CQ, partition, bindings=None, constants=()
             ) -> CQWithInequalities | None:
    """``query`` with every block of ``partition`` identified: a block
    becomes ``bindings[i]`` when that is given (a rigid term), else its
    smallest variable.  Free blocks are made unequal to each other and
    to every rigid term of ``query`` and ``constants``.  None when the
    identification collapses an inequality of ``query``."""
    bindings = bindings or {}
    rigid = _rigid_terms(query, constants)
    mapping = {}
    representatives = []
    for index, block in enumerate(partition):
        image = bindings.get(index)
        if image is None:
            image = min(block, key=lambda var: var.name)
            representatives.append(image)
        for var in block:
            mapping[var] = image
    pairs = [(x, y) for i, x in enumerate(representatives)
             for y in representatives[i + 1:]]
    pairs += [(x, term) for x in representatives for term in rigid]
    for pair in getattr(query, "inequalities", ()):
        x, y = (mapping.get(term, term) for term in pair)
        if x == y:
            return None
        if is_var(x) or is_var(y):
            pairs.append((x, y))
    atoms = [atom.substitute(mapping) for atom in query.atoms]
    return CQWithInequalities(query.head, atoms, pairs)


def reference_occurrences(query: CQ, constants=None):
    """``⟨Q⟩`` relative to ``constants`` (None: ``Q``'s own) as
    ``(labels, ccq)`` pairs: ``labels`` has one entry per existential,
    its free block's number by first appearance or, when bound, ``~j``
    for the ``j``-th rigid term in term order."""
    if isinstance(query, CQWithInequalities):
        existential = query.existential_vars()
        if not all(frozenset((x, y)) in query.inequalities
                   for i, x in enumerate(existential)
                   for y in existential[i + 1:]):
            raise ValueError(
                "complete descriptions of partially-constrained queries "
                "are not defined by the paper")
    if constants is None:
        constants = pair_constants([query])
    existential = query.existential_vars()
    rigid = _rigid_terms(query, constants)
    for choice in product((_FREE, *range(len(rigid))),
                          repeat=len(existential)):
        bound: dict = {}
        for var, j in zip(existential, choice):
            if j is not _FREE:
                bound.setdefault(j, []).append(var)
        free = tuple(var for var, j in zip(existential, choice)
                     if j is _FREE)
        for blocks in set_partitions(free):
            partition = list(blocks)
            bindings = {}
            for j, variables in bound.items():
                bindings[len(partition)] = rigid[j]
                partition.append(tuple(variables))
            ccq = quotient(query, partition, bindings, constants)
            if ccq is None:
                continue
            number = {var: index for index, block in enumerate(blocks)
                      for var in block}
            first: dict = {}
            labels = tuple(
                ~j if j is not _FREE
                else first.setdefault(number[var], len(first))
                for var, j in zip(existential, choice))
            yield labels, ccq


def reference_complete_description(query: CQ, constants=None
                                   ) -> tuple[CQWithInequalities, ...]:
    """``⟨Q⟩`` relative to ``constants`` (None: ``Q``'s own)."""
    return tuple(ccq for _, ccq in reference_occurrences(query, constants))


def reference_complete_description_ucq(queries: Iterable[CQ], constants=None
                                       ) -> tuple[CQWithInequalities, ...]:
    """The disjoint (multiset) union of the members' descriptions,
    relative to ``constants`` (None: the union's own)."""
    queries = tuple(queries)
    if constants is None:
        constants = pair_constants(queries)
    result: list[CQWithInequalities] = []
    for query in queries:
        result.extend(reference_complete_description(query, constants))
    return tuple(result)


def reference_head_patterns(q1: UCQ, q2: UCQ):
    """``(values, P1, P2)`` per equality type of the output tuple.

    ``values`` is a tuple over fresh head variables ``_h0, _h1, …``
    (each first used in that order) and the pair's constants; ``P1``
    and ``P2`` hold the members that can answer it, with their head
    variables renamed to those values (head ``(_h0, _h1, …)``).  A
    member cannot answer when one head variable would take two values
    or an inequality would break.  Types that no member of ``Q1``
    answers are skipped.
    """
    constants = pair_constants(q1, q2)
    fresh = tuple(Var(f"_h{i}") for i in range(q1.arity))
    for values in product((*fresh, *constants), repeat=q1.arity):
        used = list(dict.fromkeys(v for v in values if isinstance(v, Var)))
        if used != list(fresh[:len(used)]):
            continue
        p1 = [m for m in (_answering(member, values, used) for member in q1)
              if m is not None]
        if p1:
            yield values, UCQ(p1), UCQ(
                m for m in (_answering(member, values, used) for member in q2)
                if m is not None)


def _answering(member: CQ, values: tuple, head: list) -> CQ | None:
    mapping: dict = {}
    for var, value in zip(member.head, values):
        if mapping.setdefault(var, value) != value:
            return None
    atoms = [atom.substitute(mapping) for atom in member.atoms]
    if not isinstance(member, CQWithInequalities):
        return CQ(head, atoms)
    pairs = []
    for pair in member.inequalities:
        x, y = (mapping.get(term, term) if is_var(term) else term
                for term in pair)
        if x == y:
            return None
        if is_var(x) or is_var(y):
            pairs.append((x, y))
    return CQWithInequalities(head, atoms, pairs)


def set_reduce(ccq: CQ) -> CQ:
    """``ccq`` with duplicate atoms dropped, built through the
    validating constructor."""
    unique = sorted(set(ccq.atoms))
    pairs = tuple(tuple(pair) for pair in
                  getattr(ccq, "inequalities", frozenset()))
    return CQWithInequalities(ccq.head, unique, pairs)
