"""The original permutation-based isomorphism machinery: a test oracle.

Before the refinement-based engine,
:mod:`repro.homomorphisms.isomorphism` computed canonical
keys, canonical renamings and automorphism counts by minimizing a
serialization over *all* permutations of the existential variables —
factorial time, unusable past ~10 existentials.  The production path
now delegates to the refinement-based engine in
:mod:`repro.homomorphisms.canonical`; this module preserves the
exhaustive algorithm as an executable specification for the
equivalence property tests (``tests/test_canonical_labeling.py``) and
the agreement sweep in ``benchmarks/bench_canonical.py``, and lives
under ``tests/``, outside the installed package.

Two historical bugs are fixed here as well, so the reference states
the intended semantics rather than the buggy ones:

* serializations label variables with integers, not strings (the old
  ``"e10" < "e2"`` string order disagreed with label order for ten or
  more labels);
* the reference renaming draws capture-free fresh names through
  :func:`repro.homomorphisms.canonical.fresh_existential_labels`, so a
  head variable literally named ``e0`` is never captured.
"""

from __future__ import annotations

from itertools import permutations

from repro.homomorphisms.canonical import fresh_existential_labels
from repro.queries.atoms import Var, is_var
from repro.queries.cq import CQ

__all__ = [
    "reference_automorphism_count",
    "reference_canonical_key",
    "reference_canonical_rename",
    "reference_serialize",
]


def reference_serialize(query: CQ, mapping: dict) -> tuple:
    """A hashable normal form of ``query`` under an existential-variable
    labeling (variable → integer label); free variables serialize by
    first head position, constants by type and representation."""
    head_positions: dict[Var, int] = {}
    for position, var in enumerate(query.head):
        head_positions.setdefault(var, position)

    def term_key(term):
        if is_var(term):
            if term in mapping:
                return (1, mapping[term])
            return (0, head_positions[term])
        return (2, type(term).__name__, repr(term))

    atoms = tuple(sorted(
        (atom.relation, tuple(term_key(term) for term in atom.terms))
        for atom in query.atoms
    ))
    inequalities = tuple(sorted(
        tuple(sorted(term_key(var) for var in pair))
        for pair in getattr(query, "inequalities", frozenset())
    ))
    return (atoms, inequalities)


def reference_canonical_key(query: CQ) -> tuple:
    """Canonical form by exhaustive minimization over all labelings.

    Factorial in the number of existential variables — the executable
    specification the refinement engine is tested against.
    """
    existential = query.existential_vars()
    best = None
    for ordering in permutations(range(len(existential))):
        mapping = dict(zip(existential, ordering))
        candidate = reference_serialize(query, mapping)
        if best is None or candidate < best:
            best = candidate
    if best is None:  # no existential variables
        best = reference_serialize(query, {})
    return (type(query).__name__, query.arity, best)


def reference_automorphism_count(query: CQ) -> int:
    """``|Aut|`` by exhaustive enumeration of label permutations."""
    existential = query.existential_vars()
    identity = reference_serialize(
        query, {var: index for index, var in enumerate(existential)})
    count = 0
    for ordering in permutations(range(len(existential))):
        mapping = dict(zip(existential, ordering))
        if reference_serialize(query, mapping) == identity:
            count += 1
    return count


def reference_canonical_rename(query: CQ) -> CQ:
    """Canonical renaming via the exhaustive minimization, with
    capture-free fresh names."""
    existential = query.existential_vars()
    best = None
    best_mapping: dict = {}
    for ordering in permutations(range(len(existential))):
        mapping = dict(zip(existential, ordering))
        candidate = reference_serialize(query, mapping)
        if best is None or candidate < best:
            best = candidate
            best_mapping = mapping
    labels = fresh_existential_labels(query, len(existential))
    return query.substitute(
        {var: Var(labels[label]) for var, label in best_mapping.items()})
