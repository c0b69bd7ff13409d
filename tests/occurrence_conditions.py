"""Earlier ``⇉2``, ``։∞`` and ``→֒k``: test and benchmark oracles only.

Two generations of the package's bag-semantics conditions, both over
the rigid-relative ``⟨Q⟩`` (the class-level ``→֒k`` takes ``k = ∞`` for
``→֒∞``):

* the occurrence grid (:func:`occurrence_covering_2`,
  :func:`occurrence_sur_infty`) walks every pair of occurrences of the
  complete descriptions ``⟨Q1⟩ × ⟨Q2⟩`` and decides Hall's condition
  with networkx's Hopcroft–Karp on the occurrence-expanded graph;
* the class level (:func:`class_covering_2`, :func:`class_sur_infty`,
  :func:`class_bi_count_k`) builds both descriptions and works over
  their isomorphism classes.

The package reads ``⟨Q2⟩`` off homomorphism kernels and never builds
it; the condition tests and ``benchmarks/bench_bag_bounds.py`` require
equal answers.

The small routers the package shares between its conditions are copied
too, so a fault in the package's helpers cannot hide in the oracle.
Both descriptions are expanded here, relative to the pair's constants,
with the variable-level enumeration of ``tests/reference_quotient.py``
and grouped with
:func:`~repro.homomorphisms.isomorphism.isomorphism_classes`, never
through the package's coded quotients or its class table
(``context.complete_description``), so the expansion the oracles check
against is independent of both.
"""

from __future__ import annotations

import math
from functools import lru_cache

import networkx as nx

from repro.api import ContainmentEngine
from repro.homomorphisms.covering import covered_atoms
from repro.homomorphisms.isomorphism import (automorphism_count,
                                             isomorphism_classes)
from repro.homomorphisms.matching import saturates
from repro.homomorphisms.search import HomKind, has_homomorphism
from repro.queries.cq import CQ
from repro.queries.ucq import UCQ, as_ucq
from tests.reference_quotient import (pair_constants,
                                      reference_complete_description_ucq,
                                      set_reduce)

__all__ = ["occurrence_covering_2", "occurrence_sur_infty",
           "class_covering_2", "class_sur_infty", "class_bi_count_k"]


def _exists(context, source: CQ, target: CQ, kind: HomKind) -> bool:
    if context is not None:
        return context.has_homomorphism(source, target, kind)
    return has_homomorphism(source, target, kind)


@lru_cache(maxsize=512)
def _descriptions(source: UCQ, target: UCQ) -> tuple[tuple, tuple]:
    """``(⟨Q2⟩, ⟨Q1⟩)``, both relative to the pair's constants (kept for
    the next condition asked of the same pair)."""
    # Never ``context.complete_description``: that is the package's
    # class table, which these oracles exist to check.
    constants = pair_constants(source, target)
    return (reference_complete_description_ucq(source, constants),
            reference_complete_description_ucq(target, constants))


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


def occurrence_covering_2(source: UCQ | CQ, target: UCQ | CQ, *,
                          context=None) -> bool:
    """``⟨Q2⟩ ⇉2 ⟨Q1⟩`` over the occurrence grid."""
    context = context or ContainmentEngine()  # the grid repeats searches
    description2, description1 = _descriptions(as_ucq(source),
                                               as_ucq(target))
    if not all(_union_covers(description2, ccq1, context)
               for ccq1 in description1):
        return False
    reduced1 = [set_reduce(ccq) for ccq in description1]
    reduced2 = [set_reduce(ccq) for ccq in description2]
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
    context = context or ContainmentEngine()  # the grid repeats searches
    description2, description1 = _descriptions(as_ucq(source),
                                               as_ucq(target))
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


# -- the class level ---------------------------------------------------------


def class_covering_2(source: UCQ | CQ, target: UCQ | CQ, *,
                     context=None) -> bool:
    """``⟨Q2⟩ ⇉2 ⟨Q1⟩`` over isomorphism classes of both descriptions."""
    description2, description1 = _descriptions(as_ucq(source),
                                               as_ucq(target))
    classes1 = isomorphism_classes(
        [set_reduce(ccq) for ccq in description1], context=context)
    classes2 = isomorphism_classes(
        [set_reduce(ccq) for ccq in description2], context=context)
    representatives2 = [members[0] for members in classes2.values()]
    if not all(_union_covers(representatives2, members[0], context)
               for members in classes1.values()):
        return False
    for members in classes1.values():
        if len(members) < 2:
            continue
        representative = members[0]
        if _automorphisms(context, representative) > 1:
            continue
        preimages = 0
        for members2 in classes2.values():
            if _exists(context, members2[0], representative, HomKind.PLAIN):
                preimages += len(members2)
                if preimages >= 2:
                    break
        if preimages < 2:
            return False
    return True


def class_bi_count_k(source: UCQ | CQ, target: UCQ | CQ, k: float, *,
                     context=None) -> bool:
    """``⟨Q2⟩ →֒k ⟨Q1⟩`` (``k = ∞`` included) by class sizes."""
    if not math.isinf(k):
        k = int(k)
        if k < 1:
            raise ValueError("offset must be at least 1")
    description2, description1 = _descriptions(as_ucq(source),
                                               as_ucq(target))
    classes2 = isomorphism_classes(description2, context=context)
    classes1 = isomorphism_classes(description1, context=context)
    for key, members in classes1.items():
        required = len(members)
        if not math.isinf(k):
            group = _automorphisms(context, members[0])
            required = min(required, math.ceil(k / group))
        if required > len(classes2.get(key, ())):
            return False
    return True


def class_sur_infty(source: UCQ | CQ, target: UCQ | CQ, *,
                    context=None) -> bool:
    """``⟨Q2⟩ ։∞ ⟨Q1⟩`` as a capacitated matching over classes."""
    description2, description1 = _descriptions(as_ucq(source),
                                               as_ucq(target))
    classes2 = isomorphism_classes(description2, context=context)
    classes1 = isomorphism_classes(description1, context=context)
    representatives1 = [members[0] for members in classes1.values()]
    representatives2 = [members[0] for members in classes2.values()]

    def edges(i: int) -> list[int]:
        return [j for j, ccq2 in enumerate(representatives2)
                if _exists(context, ccq2, representatives1[i],
                           HomKind.SURJECTIVE)]

    return saturates([len(members) for members in classes1.values()],
                     [len(members) for members in classes2.values()],
                     edges)
