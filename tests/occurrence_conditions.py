"""Occurrence-grid ``⇉2`` and ``։∞``: test and benchmark oracles only.

These are the earlier implementations of
:func:`repro.homomorphisms.covering_2` and
:func:`repro.homomorphisms.sur_infty`, kept verbatim.  They walk every
pair of occurrences of the complete descriptions ``⟨Q1⟩ × ⟨Q2⟩`` and
decide Hall's condition with networkx's Hopcroft–Karp on the
occurrence-expanded graph.  The package computes both conditions over
isomorphism classes instead; the class-level tests and
``benchmarks/bench_bag_bounds.py`` require equal answers.

The small routers the package shares between its conditions are copied
too, so a fault in the package's helpers cannot hide in the oracle.
"""

from __future__ import annotations

import networkx as nx

from repro.homomorphisms.covering import covered_atoms
from repro.homomorphisms.isomorphism import (automorphism_count,
                                             isomorphism_classes)
from repro.homomorphisms.search import HomKind, has_homomorphism
from repro.queries.ccq import CQWithInequalities, complete_description_ucq
from repro.queries.cq import CQ
from repro.queries.ucq import UCQ, as_ucq

__all__ = ["occurrence_covering_2", "occurrence_sur_infty"]


def _exists(context, source: CQ, target: CQ, kind: HomKind) -> bool:
    if context is not None:
        return context.has_homomorphism(source, target, kind)
    return has_homomorphism(source, target, kind)


def _description(context, union: UCQ) -> tuple:
    if context is not None:
        return context.complete_description(union)
    return complete_description_ucq(union)


def _automorphisms(context, query: CQ) -> int:
    if context is not None:
        return context.canonical_form(query).automorphisms
    return automorphism_count(query)


def _union_covers(source: UCQ, target_cq: CQ, context=None) -> bool:
    remaining = set(target_cq.atoms)
    for cq2 in source:
        remaining -= covered_atoms(cq2, target_cq, context=context)
        if not remaining:
            return True
    return not remaining


def _set_reduce(ccq):
    unique = sorted(set(ccq.atoms))
    pairs = tuple(tuple(pair) for pair in
                  getattr(ccq, "inequalities", frozenset()))
    return CQWithInequalities(ccq.head, unique, pairs)


def occurrence_covering_2(source: UCQ | CQ, target: UCQ | CQ, *,
                          context=None) -> bool:
    """``⟨Q2⟩ ⇉2 ⟨Q1⟩`` over the occurrence grid."""
    description2 = _description(context, as_ucq(source))
    description1 = _description(context, as_ucq(target))
    union2 = UCQ(description2)
    if not all(_union_covers(union2, ccq1, context)
               for ccq1 in description1):
        return False
    reduced1 = [_set_reduce(ccq) for ccq in description1]
    reduced2 = [_set_reduce(ccq) for ccq in description2]
    classes1 = isomorphism_classes(reduced1, context=context)
    classes2 = isomorphism_classes(reduced2, context=context)
    for key, members in classes1.items():
        if len(members) < 2:
            continue
        representative = members[0]
        if _automorphisms(context, representative) > 1:
            continue
        preimages = sum(
            1 for ccq2 in reduced2
            if _exists(context, ccq2, representative, HomKind.PLAIN)
        )
        if preimages >= 2:
            continue
        if min(len(members), 2) <= len(classes2.get(key, ())):
            continue
        return False
    return True


def occurrence_sur_infty(source: UCQ | CQ, target: UCQ | CQ, *,
                         context=None) -> bool:
    """``⟨Q2⟩ ։∞ ⟨Q1⟩`` over the occurrence grid (Hopcroft–Karp)."""
    description2 = _description(context, as_ucq(source))
    description1 = _description(context, as_ucq(target))
    if not description1:
        return True
    graph = nx.Graph()
    left = [("t", index) for index in range(len(description1))]
    graph.add_nodes_from(left, bipartite=0)
    graph.add_nodes_from(
        (("s", index) for index in range(len(description2))), bipartite=1)
    for i, ccq1 in enumerate(description1):
        for j, ccq2 in enumerate(description2):
            if _exists(context, ccq2, ccq1, HomKind.SURJECTIVE):
                graph.add_edge(("t", i), ("s", j))
    matching = nx.bipartite.maximum_matching(graph, top_nodes=left)
    return all(node in matching for node in left)
