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

``⟨Q1⟩`` is grouped into isomorphism classes.  Every ingredient is
invariant under isomorphism of the target: an isomorphism renames
existential variables bijectively and fixes the head and constants, so
composing with it carries the homomorphisms (plain, surjective or
bijective) into one CCQ onto those into any isomorphic copy, and one
target's covered atoms onto the other's.  A ``⟨Q1⟩`` class is therefore
checked once, through one representative, and its size is its demand.

The conditions never see ``⟨Q⟩`` as a CCQ tuple: they read its class
table, ``(key, representative, multiplicity, automorphisms)`` rows
(:func:`repro.homomorphisms.isomorphism.description_classes`).  The
table quotients integer-coded members
(:class:`repro.queries.ccq.QueryCode`), one partition per orbit of each
member's automorphism group, labels the coded quotients, and builds a
CCQ only for each row's representative; the row's ``|Aut|`` is what
``⇉2``'s exemption and ``→֒k``'s cap read.  ``⇉2`` set-reduces one
representative per row on its code (duplicate rows dropped) and merges
the rows by the reduced key, summing multiplicities: isomorphic CCQs
have isomorphic set reducts.

When the pair is rigid-free (:func:`_rigid_free`: plain CQ members
without head variables or constants), ``⟨Q2⟩`` is never built.  Its
occurrences are the pairs ``(member m, partition π)``, and in a CCQ every
pair of distinct existentials is constrained, so ``m/π`` maps into a
rigid-free CCQ ``c`` iff some homomorphism ``m → c`` of the same kind has
kernel ``π`` (:func:`repro.homomorphisms.search.hom_kernels`).  The
``⟨Q2⟩`` side of each condition is read off those kernels:

* ``⇉2`` counts the preimages of a ``⟨Q1⟩`` class as the plain kernels
  of the ``Q2`` members into its representative, at most two per
  member, stopping at two;
* ``։∞`` matches each ``⟨Q1⟩`` class against the occurrences
  ``(member index, surjective kernel)``, each of capacity one; their
  total, ``Σ Bell(|vars(m)|)``, needs no expansion either;
* ``→֒k``/``→֒∞`` take a class's count in ``⟨Q2⟩`` as the number of
  distinct bijective kernels into its representative.  Each occurrence
  ``m/π ≅ c`` has exactly one kernel, ``π``, so the count is *not*
  divided by ``|Aut(c)|``.

The ``⇉1`` part of ``⇉2`` needs no description at all on such a pair:
it is :func:`covering_union` on the given queries, by the paper's
``Q2 ⇉1 Q1`` iff ``⟨Q2⟩ ⇉1 ⟨Q1⟩``.  A pair with a head variable, a
constant or a member with inequalities reads ``⟨Q2⟩``'s class table
too, until ROADMAP item 1 fixes ``⟨Q⟩`` for rigid terms (an
automorphism fixes those terms, so the table is exact there as well):
``⇉2`` sums the multiplicities of the ``⟨Q2⟩`` rows whose
representative maps to the ``⟨Q1⟩`` representative, ``։∞`` is the
capacitated class-level matching of
:func:`repro.homomorphisms.matching.saturates`, and the counts are
multiplicities.

Every condition reads the expensive primitives — homomorphism
existence and kernels, atom covering, the class table of ``⟨Q⟩`` and
the canonical form of a set reduct — from a
:class:`repro.core.DecisionContext` (an engine's caches).  The exported
conditions accept ``context=None`` and resolve it once, at their top,
to a fresh engine (imported lazily: the core dispatch imports this
module); the helpers below them require it.
"""

from __future__ import annotations

import math

from ..queries.atoms import is_var
from ..queries.ccq import QueryCode
from ..queries.cq import CQ
from ..queries.ucq import UCQ, as_ucq
from .isomorphism import DescriptionClass
from .matching import saturates
from .search import HomKind

__all__ = [
    "local_condition",
    "covering_union",
    "covering_2",
    "bi_count_infty",
    "bi_count_k",
    "sur_infty",
]


def local_condition(source: UCQ | CQ, target: UCQ | CQ,
                    kind: HomKind, *, context=None) -> bool:
    """``Q2 (hom-kind)1 Q1``: each target member has a source preimage."""
    from ..core.context import resolve_context
    source, target = as_ucq(source), as_ucq(target)
    finder = resolve_context(context).has_homomorphism
    return all(
        any(finder(cq2, cq1, kind) for cq2 in source)
        for cq1 in target
    )


def _union_covers(source, target_cq: CQ, *, context) -> bool:
    remaining = set(target_cq.atoms)
    for cq2 in source:
        remaining -= context.covered_atoms(cq2, target_cq)
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
    from ..core.context import resolve_context
    source, target = as_ucq(source), as_ucq(target)
    context = resolve_context(context)
    return all(_union_covers(source, cq1, context=context)
               for cq1 in target)


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

    On a rigid-free pair (:func:`_rigid_free`) part (1) is
    :func:`covering_union` on the given queries (``⟨Q2⟩ ⇉1 ⟨Q1⟩`` iff
    ``Q2 ⇉1 Q1``, Sec. 5.4), and part (2) counts the preimages of a
    ``⟨Q1⟩`` class as plain kernels of the ``Q2`` members into its
    representative (see the module docstring): set reduction changes
    neither the homomorphisms nor their kernels.  Otherwise both parts
    run on set-reduced isomorphism classes of both descriptions: ``⇉1``
    holds iff one representative of every ``⟨Q1⟩`` class is covered by
    the union of one representative per ``⟨Q2⟩`` class, and the
    preimages of a ``⟨Q1⟩`` class are counted by summing the sizes of
    the ``⟨Q2⟩`` classes whose representative maps to it, stopping at
    two.
    """
    from ..core.context import resolve_context
    source, target = as_ucq(source), as_ucq(target)
    context = resolve_context(context)
    rigid_free = _rigid_free(source, target)
    if rigid_free and not covering_union(source, target, context=context):
        return False
    classes1 = _set_reduced(context.complete_description(target),
                            context=context)
    if rigid_free:
        def reaches_two(representative: CQ) -> bool:
            return _kernels_reach_two(source, representative,
                                      context=context)
    else:
        classes2 = _set_reduced(context.complete_description(source),
                                context=context)
        representatives2 = [row.representative for row in classes2]
        if not all(_union_covers(representatives2, row.representative,
                                 context=context)
                   for row in classes1):
            return False

        def reaches_two(representative: CQ) -> bool:
            return _preimages_reach_two(classes2, representative,
                                        context=context)
    for row in classes1:
        if row.multiplicity < 2 or row.automorphisms > 1:
            continue
        if not reaches_two(row.representative):
            return False
    return True


def _set_reduced(classes: tuple[DescriptionClass, ...], *, context
                 ) -> list[DescriptionClass]:
    """The class table of the set-reduced CCQs: each row's
    representative set-reduced, rows merged by the reduced key.

    Isomorphic CCQs have isomorphic set reducts, so one representative
    per row stands for the whole row, and the merged table keeps the
    first-occurrence order and representatives that reducing every CCQ
    of ``⟨Q⟩`` and grouping them would give.  A representative with
    duplicate atoms is reduced on its :class:`QueryCode` (duplicate rows
    dropped) and canonicalised there; a CCQ is built only for the
    first reduct of each merged row.
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
    return [DescriptionClass(
        key, reduced.materialise() if isinstance(reduced, QueryCode)
        else reduced, size, group)
        for key, (reduced, size, group) in merged.items()]


def _kernels_reach_two(source: UCQ, target: CQ, *, context) -> bool:
    """True iff at least two occurrences of ``⟨source⟩`` map
    homomorphically to the rigid-free CCQ ``target``: two distinct
    ``(member, plain kernel)`` pairs."""
    preimages = 0
    for member in source:
        preimages += len(context.hom_kernels(member, target, HomKind.PLAIN,
                                             2))
        if preimages >= 2:
            return True
    return False


def _preimages_reach_two(classes2: list[DescriptionClass], target: CQ, *,
                         context) -> bool:
    """True iff at least two occurrences (CCQs of the rows) of
    ``classes2`` map homomorphically to ``target``."""
    preimages = 0
    for row in classes2:
        if context.has_homomorphism(row.representative, target,
                                    HomKind.PLAIN):
            preimages += row.multiplicity
            if preimages >= 2:
                return True
    return False


def _rigid_free(source: UCQ, target: UCQ) -> bool:
    """True iff every member of either side is a plain CQ (no
    inequalities) with no head variable and no constant.

    Only then is ``⟨Q2⟩ ⇉1 ⟨Q1⟩`` decided on the given queries and
    ``⟨Q2⟩`` read off homomorphism kernels instead of being built.
    ``⟨Q⟩`` never binds an existential to a constant or a head variable,
    so on pairs with such rigid terms the class-level check and the
    direct one disagree, and a kernel into a CCQ with rigid terms is no
    partition ``⟨Q2⟩`` has; fixing ``⟨Q⟩`` for rigid terms (ROADMAP
    item 1) deletes that part of this guard.  A member with inequalities
    stays excluded even then: a homomorphism from it must map each
    constrained pair onto a constrained pair, so it covers nothing of a
    plain member although it covers that member's CCQs in ``⟨Q1⟩``.
    """
    return all(not cq.head and not getattr(cq, "inequalities", None)
               and all(is_var(term) for atom in cq.atoms
                       for term in atom.terms)
               for cq in (*source, *target))


def bi_count_infty(source: UCQ | CQ, target: UCQ | CQ, *,
                   context=None) -> bool:
    """``⟨Q2⟩ →֒∞ ⟨Q1⟩`` (Def. 5.8): every isomorphism class occurs in
    ``⟨Q2⟩`` at least as often as in ``⟨Q1⟩``."""
    from ..core.context import resolve_context
    return _bi_count(as_ucq(source), as_ucq(target), None,
                     context=resolve_context(context))


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
    from ..core.context import resolve_context
    context = resolve_context(context)
    if math.isinf(k):
        return bi_count_infty(source, target, context=context)
    k = int(k)
    if k < 1:
        raise ValueError("offset must be at least 1")
    return _bi_count(as_ucq(source), as_ucq(target), k, context=context)


def _bi_count(source: UCQ, target: UCQ, k: int | None, *,
              context) -> bool:
    """``⟨Q2⟩ →֒k ⟨Q1⟩`` for a finite ``k``, or ``→֒∞`` for None.

    ``⟨Q2⟩[C]`` is the number of distinct bijective kernels of the
    ``Q2`` members into ``C``'s representative on a rigid-free pair
    (one per occurrence — never divided by ``|Aut|``), and the size of
    ``C``'s class in ``⟨Q2⟩`` otherwise.
    """
    classes1 = context.complete_description(target)
    if _rigid_free(source, target):
        def reaches(key, representative: CQ, required: int) -> bool:
            found = 0
            for member in source:
                found += len(context.hom_kernels(member, representative,
                                                 HomKind.BIJECTIVE, None))
                if found >= required:
                    return True
            return False
    else:
        sizes2 = {row.key: row.multiplicity
                  for row in context.complete_description(source)}

        def reaches(key, representative: CQ, required: int) -> bool:
            return sizes2.get(key, 0) >= required
    for key, representative, required, group in classes1:
        if k is not None:
            required = min(required, math.ceil(k / group))
        if not reaches(key, representative, required):
            return False
    return True


def sur_infty(source: UCQ | CQ, target: UCQ | CQ, *, context=None) -> bool:
    """``⟨Q2⟩ ։∞ ⟨Q1⟩`` (Def. 5.14): a matching assigning to every CCQ
    occurrence of ``⟨Q1⟩`` a unique surjectively-mapping occurrence of
    ``⟨Q2⟩``.

    Surjectivity counts atom occurrences, so the ``⟨Q1⟩`` classes here
    are those of the raw description (the same canonical keys
    :func:`bi_count_k` groups by).  Hall's condition is decided as a
    capacitated matching in which each ``⟨Q1⟩`` class demands as many
    occurrences as it has members.  On a rigid-free pair the supplies
    are the ``⟨Q2⟩`` occurrences ``(member index, surjective kernel)``,
    each of capacity one, out of ``Σ Bell(|vars(m)|)`` in all; otherwise
    they are the ``⟨Q2⟩`` classes, each of its size.  The edges of a
    ``⟨Q1⟩`` class are asked for only while no Hall violation has shown.
    """
    from ..core.context import resolve_context
    source, target = as_ucq(source), as_ucq(target)
    context = resolve_context(context)
    classes1 = context.complete_description(target)
    representatives1 = [row.representative for row in classes1]
    demand = [row.multiplicity for row in classes1]
    if _rigid_free(source, target):
        occurrences: dict[tuple, int] = {}

        def edges(i: int) -> list[int]:
            return [occurrences.setdefault((j, kernel), len(occurrences))
                    for j, member in enumerate(source)
                    for kernel in context.hom_kernels(
                        member, representatives1[i], HomKind.SURJECTIVE,
                        None)]

        total = sum(_bell(len(member.existential_vars()))
                    for member in source)
        return saturates(demand, [1] * total, edges)
    classes2 = context.complete_description(source)

    def class_edges(i: int) -> list[int]:
        return [j for j, row in enumerate(classes2)
                if context.has_homomorphism(row.representative,
                                            representatives1[i],
                                            HomKind.SURJECTIVE)]

    return saturates(demand, [row.multiplicity for row in classes2],
                     class_edges)


def _bell(n: int) -> int:
    """The Bell number ``B(n)``: the partitions of ``n`` variables, i.e.
    the CCQs one ``n``-variable member contributes to ``⟨Q⟩``."""
    row = [1]
    for _ in range(n):
        following = [row[-1]]
        for value in row:
            following.append(following[-1] + value)
        row = following
    return row[0]
