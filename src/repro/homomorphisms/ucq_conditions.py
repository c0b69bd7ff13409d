"""UCQ-level containment conditions (Sec. 5, Table 1).

Each function implements one syntactic condition between UCQs ``Q2`` and
``Q1`` (read: candidates for "``Q1 ⊆K Q2``"):

* :func:`local_condition` — "for each ``Q1 ∈ Q1`` there is ``Q2 ∈ Q2``
  with a homomorphism of the given kind" — the ⊕-idempotent local checks
  ``→``, ``→֒``, ``։1`` and ``→֒1`` of Thm. 5.2/5.6 and Cor. 5.18.
* :func:`covering_union` — ``Q2 ⇉1 Q1``: atoms may be covered by
  *different* members (Ex. 5.20, Thm. 5.24 k = 1).
* :func:`covering_2` — ``⟨Q2⟩ ⇉2 ⟨Q1⟩`` for offset-2 ⊗-idempotent
  semirings (Thm. 5.24 k = 2; new necessary condition for bag semantics,
  Cor. 5.23).
* :func:`bi_count_infty` — ``⟨Q2⟩ →֒∞ ⟨Q1⟩``: isomorphism-class counting
  (Def. 5.8, decides ``N[X]``-containment by Prop. 5.9).
* :func:`bi_count_k` — ``⟨Q2⟩ →֒k ⟨Q1⟩`` for finite offsets
  (Thm. 5.13).  The paper defers the exact definition to its full
  version; we reconstruct it as class counting with the requirement
  capped at ``⌈k/|Aut|⌉`` — one copy of a CCQ with automorphism group of
  size ``g`` already contributes ``g`` equal summands, and offset ``k``
  makes copies beyond that threshold redundant (this matches Ex. 5.7
  continued and is validated against the oracle).
* :func:`sur_infty` — ``⟨Q2⟩ ։∞ ⟨Q1⟩``: every CCQ occurrence of
  ``⟨Q1⟩`` is matched to a *unique* surjectively-mapping CCQ occurrence
  of ``⟨Q2⟩`` (Def. 5.14); by Hall's theorem this is a bipartite
  matching problem (Thm. 5.17).

``⇉2`` and ``։∞`` are decided over isomorphism classes of the complete
descriptions rather than over their occurrences.  Both are sound at
class level because every ingredient is invariant under isomorphism of
either side: an isomorphism renames existential variables bijectively
and fixes the head and constants, so composing with it carries the
homomorphisms (plain or surjective) from one CCQ onto those from any
isomorphic copy, and carries one target's covered atoms onto the
other's.  A class is therefore checked once, through one
representative, and its size stands in for the occurrences it groups:
the ``⇉2`` preimage count sums class sizes, and the ``։∞`` matching is
the capacitated class-level matching of
:func:`repro.homomorphisms.matching.saturates`.  The 203 members of a
6-variable chain's ``⟨Q⟩`` fall into 122 classes (103 once set-reduced)
and the 52 of a 5-clique into 7: each side of the grid shrinks by 40 %
(chain) to 87 % (clique).

The ``⇉1`` part of ``⇉2`` needs no description at all when the pair is
rigid-free (plain CQ members without head variables or constants): it is
:func:`covering_union` on the given queries, by the paper's
``Q2 ⇉1 Q1`` iff ``⟨Q2⟩ ⇉1 ⟨Q1⟩``.  That is one covered-atom
enumeration per pair of members instead of one per pair of classes.

Every function accepts an optional ``context``
(:class:`repro.core.DecisionContext`-like) that reroutes the expensive
primitives — homomorphism existence, atom covering, the complete
description ``⟨Q⟩`` and the canonical form (isomorphism key +
automorphism group size) — through a caller-provided cache; with no
context the plain functions run.
"""

from __future__ import annotations

import math

from ..queries.atoms import is_var
from ..queries.ccq import CQWithInequalities, complete_description_ucq
from ..queries.cq import CQ
from ..queries.ucq import UCQ, as_ucq
from .covering import covered_atoms
from .isomorphism import automorphism_count, isomorphism_classes
from .matching import saturates
from .search import HomKind, has_homomorphism

__all__ = [
    "local_condition",
    "covering_union",
    "covering_2",
    "bi_count_infty",
    "bi_count_k",
    "sur_infty",
]


def _exists(context, source: CQ, target: CQ, kind: HomKind) -> bool:
    """Existence primitive, routed through ``context`` when given."""
    if context is not None:
        return context.has_homomorphism(source, target, kind)
    return has_homomorphism(source, target, kind)


def _description(context, union: UCQ) -> tuple:
    """``⟨Q⟩`` primitive, routed through ``context`` when given."""
    if context is not None:
        return context.complete_description(union)
    return complete_description_ucq(union)


def _automorphisms(context, query: CQ) -> int:
    """``|Aut|`` primitive, routed through ``context`` when given."""
    if context is not None:
        return context.canonical_form(query).automorphisms
    return automorphism_count(query)


def local_condition(source: UCQ | CQ, target: UCQ | CQ,
                    kind: HomKind, *, context=None) -> bool:
    """``Q2 (hom-kind)1 Q1``: each target member has a source preimage.

    ``context`` routes the existence check through a cache-providing
    :class:`repro.core.DecisionContext`.
    """
    source, target = as_ucq(source), as_ucq(target)
    finder = (has_homomorphism if context is None
              else context.has_homomorphism)
    return all(
        any(finder(cq2, cq1, kind) for cq2 in source)
        for cq1 in target
    )


def _union_covers(source, target_cq: CQ, context=None) -> bool:
    remaining = set(target_cq.atoms)
    for cq2 in source:
        remaining -= covered_atoms(cq2, target_cq, context=context)
        if not remaining:
            return True
    return not remaining


def covering_union(source: UCQ | CQ, target: UCQ | CQ, *,
                   context=None) -> bool:
    """``Q2 ⇉1 Q1``: every atom of every target member is in the image
    of a homomorphism from *some* source member (Sec. 5.4).

    The paper notes ``Q2 ⇉1 Q1`` iff ``⟨Q2⟩ ⇉1 ⟨Q1⟩``, so the check runs
    directly on the given queries.
    """
    source, target = as_ucq(source), as_ucq(target)
    return all(_union_covers(source, cq1, context) for cq1 in target)


def covering_2(source: UCQ | CQ, target: UCQ | CQ, *,
               context=None) -> bool:
    """``⟨Q2⟩ ⇉2 ⟨Q1⟩`` (Sec. 5.4, for ``S²hcov`` semirings).

    Requires (1) ``⟨Q2⟩ ⇉1 ⟨Q1⟩`` and (2) every CCQ of ``⟨Q1⟩`` that has
    no nontrivial automorphism *and multiplicity greater than one* is
    reached by homomorphisms from two distinct CCQ occurrences of
    ``⟨Q2⟩`` (which may be isomorphic or equal queries — footnote 7).

    Reconstruction notes (validated against the oracle):

    * The paper's formal bullet list omits the multiplicity-one
      exemption that its introductory sentence states ("… having
      multiplicity more than one in ⟨Q1⟩ has to be covered by two CCQs
      …").  The exemption is semantically forced: a CCQ occurring once
      needs no duplicated support — ``S(v),S(v) ⊆K S(v)`` holds over
      every ⊗-idempotent ``K`` although only one covering CCQ exists.
    * Class multiplicities are counted on *set-reduced* bodies
      (duplicate atoms dropped): over ⊗-idempotent semirings a CCQ is
      equivalent to its set reduct, so ``{S(v)} ∪ {S(v),S(v)}``
      contributes multiplicity two to the class of ``S(v)``.
    * A CCQ with a nontrivial automorphism already contributes
      ``|Aut| ≥ 2`` equal summands per source, which offset 2
      saturates, hence its exemption (as in the paper).

    Part (1) runs on the given queries when the pair is rigid-free
    (:func:`_rigid_free`): ``⟨Q2⟩ ⇉1 ⟨Q1⟩`` iff ``Q2 ⇉1 Q1``
    (Sec. 5.4), which :func:`covering_union` decides.  Otherwise it
    runs on set-reduced isomorphism classes (see the module docstring
    for why this is sound): set reduction changes neither the
    homomorphisms nor their images, so ``⇉1`` holds iff one
    representative of every ``⟨Q1⟩`` class is covered by the union of
    one representative per ``⟨Q2⟩`` class.  Part (2) always runs on
    the classes: the preimages of a ``⟨Q1⟩`` class are counted by
    summing the sizes of the ``⟨Q2⟩`` classes whose representative maps
    to it, stopping at two.
    """
    source, target = as_ucq(source), as_ucq(target)
    rigid_free = _rigid_free(source, target)
    if rigid_free and not covering_union(source, target, context=context):
        return False
    description2 = _description(context, source)
    description1 = _description(context, target)
    classes1 = isomorphism_classes(
        [_set_reduce(ccq) for ccq in description1], context=context)
    classes2 = isomorphism_classes(
        [_set_reduce(ccq) for ccq in description2], context=context)
    if not rigid_free:
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
        if not _preimages_reach_two(classes2, representative, context):
            return False
    return True


def _preimages_reach_two(classes2: dict, target: CQ, context) -> bool:
    """True iff at least two occurrences (class members) of ``classes2``
    map homomorphically to ``target``."""
    preimages = 0
    for members in classes2.values():
        if _exists(context, members[0], target, HomKind.PLAIN):
            preimages += len(members)
            if preimages >= 2:
                return True
    return False


def _rigid_free(source: UCQ, target: UCQ) -> bool:
    """True iff every member of either side is a plain CQ (no
    inequalities) with no head variable and no constant.

    Only then is ``⟨Q2⟩ ⇉1 ⟨Q1⟩`` decided on the given queries.  ``⟨Q⟩``
    never binds an existential to a constant or a head variable, so on
    pairs with such rigid terms the class-level check and the direct one
    disagree; fixing ``⟨Q⟩`` for rigid terms (ROADMAP item 1) deletes
    that part of this guard.  A member with inequalities stays excluded
    even then: a homomorphism from it must map each constrained pair
    onto a constrained pair, so it covers nothing of a plain member
    although it covers that member's CCQs in ``⟨Q1⟩``.
    """
    return all(not cq.head and not getattr(cq, "inequalities", None)
               and all(is_var(term) for atom in cq.atoms
                       for term in atom.terms)
               for cq in (*source, *target))


def _set_reduce(ccq):
    """Drop duplicate atoms (a K-equivalence over ⊗-idempotent K).

    A CCQ without duplicates is returned as is: rebuilding it would
    give an equal query with the same hash.
    """
    unique = set(ccq.atoms)
    if len(unique) == len(ccq.atoms):
        return ccq
    pairs = tuple(tuple(pair) for pair in
                  getattr(ccq, "inequalities", frozenset()))
    return CQWithInequalities(ccq.head, unique, pairs)


def bi_count_infty(source: UCQ | CQ, target: UCQ | CQ, *,
                   context=None) -> bool:
    """``⟨Q2⟩ →֒∞ ⟨Q1⟩`` (Def. 5.8): every isomorphism class occurs in
    ``⟨Q2⟩`` at least as often as in ``⟨Q1⟩``."""
    classes2 = isomorphism_classes(_description(context, as_ucq(source)),
                                   context=context)
    classes1 = isomorphism_classes(_description(context, as_ucq(target)),
                                   context=context)
    return all(
        len(members) <= len(classes2.get(key, ()))
        for key, members in classes1.items()
    )


def bi_count_k(source: UCQ | CQ, target: UCQ | CQ, k: float, *,
               context=None) -> bool:
    """``⟨Q2⟩ →֒k ⟨Q1⟩`` for ``k ∈ N ∪ {∞}`` (Thm. 5.13).

    Reconstructed definition: for every isomorphism class ``C`` with
    automorphism group size ``g``,

        ``min(⟨Q1⟩[C], ⌈k / g⌉)  ≤  ⟨Q2⟩[C]``.

    With ``k = ∞`` this degenerates to Def. 5.8; with ``k = 1`` it
    degenerates to per-class presence, equivalent to the local bijective
    condition ``→֒1``.
    """
    if math.isinf(k):
        return bi_count_infty(source, target, context=context)
    k = int(k)
    if k < 1:
        raise ValueError("offset must be at least 1")
    classes2 = isomorphism_classes(_description(context, as_ucq(source)),
                                   context=context)
    classes1 = isomorphism_classes(_description(context, as_ucq(target)),
                                   context=context)
    for key, members in classes1.items():
        group = _automorphisms(context, members[0])
        required = min(len(members), math.ceil(k / group))
        if required > len(classes2.get(key, ())):
            return False
    return True


def sur_infty(source: UCQ | CQ, target: UCQ | CQ, *, context=None) -> bool:
    """``⟨Q2⟩ ։∞ ⟨Q1⟩`` (Def. 5.14): a matching assigning to every CCQ
    occurrence of ``⟨Q1⟩`` a unique surjectively-mapping occurrence of
    ``⟨Q2⟩``.

    Surjectivity counts atom occurrences, so the classes here are those
    of the raw descriptions (the same canonical keys
    :func:`bi_count_k` groups by).  Hall's condition is decided as a
    capacitated matching in which each ``⟨Q1⟩`` class demands, and each
    ``⟨Q2⟩`` class supplies, as many occurrences as it has members.  At
    most one surjective search runs per pair of class representatives,
    and none for the ``⟨Q1⟩`` classes after a Hall violation.
    """
    classes2 = isomorphism_classes(_description(context, as_ucq(source)),
                                   context=context)
    classes1 = isomorphism_classes(_description(context, as_ucq(target)),
                                   context=context)
    representatives1 = [members[0] for members in classes1.values()]
    representatives2 = [members[0] for members in classes2.values()]

    def edges(i: int) -> list[int]:
        return [j for j, ccq2 in enumerate(representatives2)
                if _exists(context, ccq2, representatives1[i],
                           HomKind.SURJECTIVE)]

    return saturates([len(members) for members in classes1.values()],
                     [len(members) for members in classes2.values()],
                     edges)
