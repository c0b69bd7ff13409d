"""Isomorphism, canonical forms and automorphisms of (C)CQs (Sec. 5.2).

Two CCQs are isomorphic when they coincide up to a renaming of their
existential variables (heads are fixed).  The UCQ conditions ``→֒k`` and
``→֒∞`` count CCQs per isomorphism class (``⟨Q⟩[Q≃]`` in the paper), so
we compute a *canonical key* and group by it.

The paper's key structural fact, "all endomorphisms of CCQs are
automorphisms", makes the automorphism group the only degree of freedom
a complete CCQ has; its size enters the reconstruction of the ``→֒k``
condition for finite ``k`` (see :mod:`repro.homomorphisms.ucq_conditions`).

All three primitives — key, renaming, group size — delegate to the
refinement-based canonical labeling engine of
:mod:`repro.homomorphisms.canonical`, which computes them in one
individualization-refinement pass instead of minimizing over all
(factorially many) permutations of the existential variables.  The old
exhaustive algorithm survives as an executable specification in the
test oracle ``tests/reference_iso.py``.  The single-query functions
here compute the form directly; :func:`isomorphism_classes` and
:func:`description_classes` take their forms from a
:class:`repro.core.DecisionContext` (an engine's observable LRU).

The bag-semantics conditions read ``⟨Q⟩`` only through its class
counts, so :func:`description_classes` builds it as a table of
isomorphism classes directly, on integers: each member is coded once
(:class:`repro.queries.ccq.QueryCode`), one quotient per orbit of the
member's automorphism group on the partitions of its existentials is
its rows relabelled through the partition's labels (blocks free or
bound to a head variable or constant), the canonical labeling runs on
those rows, and rows merge by canonical key.  A
:class:`~repro.queries.ccq.CQWithInequalities` is built only for each
class's representative, and the row keeps the class's ``|Aut|``.
"""

from __future__ import annotations

from typing import NamedTuple

from ..queries.ccq import QueryCode, description_orbits
from ..queries.cq import CQ
from .canonical import canonical_form, canonical_renaming

__all__ = [
    "DescriptionClass",
    "are_isomorphic",
    "automorphism_count",
    "canonical_key",
    "canonical_rename",
    "description_classes",
    "endomorphisms",
    "is_automorphism",
    "isomorphism_classes",
    "set_reduced_classes",
]


def canonical_key(query: CQ) -> tuple:
    """Canonical form: equal across (and only across) isomorphic
    queries.  Computed by refinement-based canonical labeling — see
    :func:`repro.homomorphisms.canonical.canonical_form`."""
    return canonical_form(query).key


def are_isomorphic(first: CQ, second: CQ) -> bool:
    """True iff the queries coincide up to existential renaming."""
    return canonical_form(first).key == canonical_form(second).key


def automorphism_count(query: CQ) -> int:
    """Size of the automorphism group (existential renamings fixing the
    query; inequalities are preserved by any bijection on a complete
    CCQ, and are checked explicitly otherwise).  Read off the
    individualization-refinement search tree by orbit-stabilizer."""
    return canonical_form(query).automorphisms


def isomorphism_classes(queries, *, context=None) -> dict[tuple, list]:
    """Group a multiset of queries by isomorphism class.

    Returns canonical key → list of members (multiplicities preserved).
    The canonical forms come from ``context`` (an engine's LRU;
    ``None``: a fresh engine).
    """
    from ..core.context import resolve_context
    form = resolve_context(context).canonical_form
    classes: dict[tuple, list] = {}
    for query in queries:
        classes.setdefault(form(query).key, []).append(query)
    return classes


class DescriptionClass(NamedTuple):
    """One isomorphism class of a complete description ``⟨Q⟩``: its
    canonical key, one CCQ of the class, the number of CCQs of ``⟨Q⟩``
    in it and the size of their automorphism group."""

    key: tuple
    representative: CQ
    multiplicity: int
    automorphisms: int


def description_classes(union, constants, *,
                        context) -> tuple[DescriptionClass, ...]:
    """``⟨Q⟩`` of a UCQ relative to ``constants`` (the pair's constants)
    as a table of isomorphism classes.

    Equal, as ``{key: multiplicity}``, to :func:`isomorphism_classes` of
    :func:`repro.queries.ccq.complete_description_ucq` (relative to the
    same constants), with the same
    class order and the same representative (the class's first CCQ in
    that expansion), but it canonicalises one coded CCQ per orbit of
    each member's automorphism group on the partitions of its
    existentials (:func:`repro.queries.ccq.description_orbits`), not one
    per partition, and builds a CCQ only for each class's
    representative.  The generators come from the canonical form of the
    member's finest quotient (a CCQ of ``⟨Q⟩`` whose key the table needs
    anyway, with the member's automorphisms), and each is an
    automorphism because the labeling search records one only for two
    leaves that serialise equally.
    Rows are merged by key, so a generating set that fell short of the
    whole group would cost more canonical forms, never change the
    table.  The canonical forms come from ``context.canonical_form``
    (an engine's LRU), keyed by the
    :class:`~repro.queries.ccq.QueryCode` of each quotient.
    """
    form = context.canonical_form
    rows: dict[tuple, list] = {}

    def generators_of(code) -> tuple[tuple[int, ...], ...]:
        return form(code).generators

    for member in union:
        for code, size in description_orbits(member, generators_of,
                                             constants):
            record = form(code)
            row = rows.get(record.key)
            if row is None:
                rows[record.key] = [code, size, record.automorphisms]
            else:
                row[1] += size
    return tuple(DescriptionClass(key, code.materialise(), size, group)
                 for key, (code, size, group) in rows.items())


def set_reduced_classes(classes: tuple[DescriptionClass, ...], *, context
                        ) -> tuple[DescriptionClass, ...]:
    """The class table of the set-reduced CCQs: each row's
    representative set-reduced (duplicate atoms dropped), rows merged
    by the reduced key.

    Isomorphic CCQs have isomorphic set reducts, so one representative
    per row stands for the whole row, and the merged table keeps the
    first-occurrence order and representatives that reducing every CCQ
    of ``⟨Q⟩`` and grouping them would give.  A representative with
    duplicate atoms is reduced on its :class:`QueryCode` (duplicate rows
    dropped) and canonicalised there (``context.canonical_form``); a
    CCQ is built only for the first reduct of each merged row.
    """
    merged: dict[tuple, list] = {}
    for row in classes:
        representative = row.representative
        if len(set(representative.atoms)) == len(representative.atoms):
            key, reduced, group = \
                row.key, representative, row.automorphisms
        else:
            reduced = QueryCode.of(representative).set_reduced()
            record = context.canonical_form(reduced)
            key, group = record.key, record.automorphisms
        entry = merged.get(key)
        if entry is None:
            merged[key] = [reduced, row.multiplicity, group]
        else:
            entry[1] += row.multiplicity
    return tuple(DescriptionClass(
        key, reduced.materialise() if isinstance(reduced, QueryCode)
        else reduced, size, group)
        for key, (reduced, size, group) in merged.items())


def canonical_rename(query: CQ) -> CQ:
    """Rename existential variables to the canonical labeling.

    Applies the renaming that realizes :func:`canonical_key` — so two
    isomorphic queries become *equal* (heads unchanged).  Fresh names
    are capture-free: they skip every head-variable name, so a head
    variable literally named ``e0`` can never absorb an existential
    (``Q(e0) :- R(e0, x)`` renames ``x`` to ``e1``, not ``e0``).  Used
    by the normalizer to give equivalent queries identical normal
    forms; idempotent by construction.
    """
    renaming = canonical_renaming(query)
    if not renaming:
        return query
    return query.substitute(renaming)


def endomorphisms(query: CQ):
    """All homomorphisms from a query to itself.

    For *complete* CCQs the paper's key structural lemma (Sec. 5.2)
    states that every endomorphism is an automorphism: the pairwise
    inequalities forbid collapsing existential variables, so a CCQ
    cannot be "folded" into itself.  The test suite verifies the lemma
    on random complete descriptions through this function.
    """
    from .search import HomKind, homomorphisms

    return list(homomorphisms(query, query, HomKind.PLAIN))


def is_automorphism(query: CQ, mapping: dict) -> bool:
    """True iff ``mapping`` permutes the variables and fixes the query
    (atom multiset and inequalities)."""
    variables = set()
    for atom in query.atoms:
        variables.update(atom.variables())
    images = {mapping.get(var, var) for var in variables}
    if images != variables:
        return False
    image_atoms = tuple(sorted(
        atom.substitute(mapping) for atom in query.atoms))
    if image_atoms != query.atoms:
        return False
    source_pairs = getattr(query, "inequalities", frozenset())
    image_pairs = {
        frozenset((mapping.get(x, x), mapping.get(y, y)))
        for pair in source_pairs for x, y in (tuple(pair),)
    }
    return image_pairs == set(source_pairs)
