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

Both descriptions are taken relative to the pair's rigid terms (each
member's head variables and the constants of either side), so a block
of existentials may be bound to a head variable or a constant
(:mod:`repro.queries.ccq`).  That split is exact only at head values
that differ from each other and from the constants, so the dispatcher
(:mod:`repro.core.containment`) applies these three conditions once per
head pattern (:func:`repro.queries.ccq.head_patterns`); called
directly, a condition compares the pair as given.  ``⟨Q1⟩`` is read as
its class table,
``(key, representative, multiplicity, automorphisms)`` rows
(:func:`repro.homomorphisms.isomorphism.description_classes`): every
ingredient is invariant under isomorphism of the target (an isomorphism
renames existentials and fixes the head and constants), so a class is
checked once, through its representative, and its size is its demand.
The row's ``|Aut|`` is what ``⇉2``'s exemption and ``→֒k``'s cap read;
``⇉2`` reads the set-reduced table instead, one representative per row
set-reduced on its code and rows merged by the reduced key (isomorphic
CCQs have isomorphic set reducts;
:func:`repro.homomorphisms.isomorphism.set_reduced_classes`), which the
context memoises beside ``⟨Q1⟩``.

``⟨Q2⟩`` is never built.  Its occurrences are the pairs ``(member m,
partition π with bindings)``, and a CCQ ``c`` of ``⟨Q1⟩`` constrains
every pair of its existentials and each against every rigid term, so
``m/π`` maps into ``c`` iff some homomorphism ``m → c`` of the same kind
has kernel ``π`` (:func:`repro.homomorphisms.search.hom_kernels`;
:func:`_occurrences` reads a bound block back as ``m``'s own rigid
term).  That holds for a member with inequalities too, because ``m/π``
keeps them: a complete member is its own one-occurrence description.

* ``⇉2`` counts the preimages of a ``⟨Q1⟩`` class as the plain kernels
  of the ``Q2`` members into its representative, stopping at two;
* ``։∞`` matches each ``⟨Q1⟩`` class against the occurrences
  ``(member index, surjective kernel)``, each of capacity one, out of
  :func:`repro.queries.ccq.description_size` per member;
* ``→֒k``/``→֒∞`` count the bijective kernels into a class's
  representative from the members with its head pattern
  (:func:`_isomorphic_occurrences`): one per occurrence, so *not*
  divided by ``|Aut(c)|``.

The ``⇉1`` part of ``⇉2`` is :func:`covering_union` on the given
queries (``Q2 ⇉1 Q1`` iff ``⟨Q2⟩ ⇉1 ⟨Q1⟩``) unless ``Q2`` has a member
with inequalities: a homomorphism from one must map each constrained
pair onto a constrained pair, so it covers nothing of a plain member of
``Q1`` although it covers that member's CCQs.  Such a pair checks the
members' cover of each ``⟨Q1⟩`` representative instead.

Every condition reads the expensive primitives — homomorphism
existence and kernels, atom covering, the class table of ``⟨Q1⟩`` and
its set-reduced table — from a
:class:`repro.core.DecisionContext` (an engine's caches).  The exported
conditions accept ``context=None`` and resolve it once, at their top,
to a fresh engine (imported lazily: the core dispatch imports this
module); the helpers below them require it.
"""

from __future__ import annotations

import math
from itertools import product

from ..queries.atoms import is_var
from ..queries.ccq import (CQWithInequalities, QueryCode, description_size,
                           require_described, rigid_constants)
from ..queries.cq import CQ
from ..queries.ucq import UCQ, as_ucq
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

    Part (1) and the preimage counts of part (2) read ``Q2``'s members
    directly (see the module docstring); set reduction changes neither
    the homomorphisms nor their kernels.
    """
    from ..core.context import resolve_context
    source, target = as_ucq(source), as_ucq(target)
    context = resolve_context(context)
    constants = _pair_constants(source, target)
    inequalities = any(isinstance(member, CQWithInequalities)
                       for member in source)
    if not inequalities and not covering_union(source, target,
                                               context=context):
        return False
    classes1 = context.complete_description(target, constants, reduced=True)
    if inequalities and not all(
            _union_covers(source, row.representative, context=context)
            for row in classes1):
        return False
    for row in classes1:
        if row.multiplicity < 2 or row.automorphisms > 1:
            continue
        if not _kernels_reach_two(source, row.representative, constants,
                                  context=context):
            return False
    return True


def _pair_constants(source: UCQ, target: UCQ) -> tuple:
    """The constants both descriptions are taken relative to, once every
    ``Q2`` member is known to have a description (``⟨Q1⟩``'s
    construction checks its own members)."""
    for member in source:
        if isinstance(member, CQWithInequalities):
            require_described(member)
    return rigid_constants((*source, *target))


def _occurrences(member: CQ, target: CQ, kernel: tuple[int, ...],
                 constants: tuple) -> list[tuple[int, ...]]:
    """The occurrences of ``⟨member⟩`` that a kernel of homomorphisms
    ``member → target`` stands for, each coded as the labels of
    :func:`repro.queries.ccq.description_orbits` (a block bound to
    ``member``'s own rigid term, relative to ``constants``).

    A block bound to a constant is bound to that constant.  A block
    bound to a target head variable is bound to a member head variable
    in the same head positions; when several member head variables
    share one target head variable, each choice is its own occurrence
    (all of them map into ``target``).
    """
    if not kernel or min(kernel) >= 0:
        return [kernel]
    bound = sorted({label for label in kernel if label < 0})
    own = {(type(term), term): ~j for j, term in
           enumerate(QueryCode.of(member).relative(constants).rigid)}
    target_rigid = QueryCode.of(target).rigid
    options = []
    for label in bound:
        term = target_rigid[~label]
        if is_var(term):
            options.append(sorted({own[(type(var), var)] for var, image
                                   in zip(member.head, target.head)
                                   if image == term}))
        else:
            options.append([own[(type(term), term)]])
    occurrences = []
    for choice in product(*options):
        chosen = dict(zip(bound, choice))
        occurrences.append(tuple(chosen.get(label, label)
                                 for label in kernel))
    return occurrences


def _kernels_reach_two(source: UCQ, target: CQ, constants: tuple, *,
                       context) -> bool:
    """True iff at least two occurrences of ``⟨source⟩`` map
    homomorphically to the CCQ ``target``: two distinct ``(member,
    plain kernel)`` pairs, or one kernel standing for two
    occurrences."""
    preimages = 0
    for member in source:
        for kernel in context.hom_kernels(member, target, HomKind.PLAIN, 2):
            preimages += len(_occurrences(member, target, kernel,
                                          constants))
        if preimages >= 2:
            return True
    return False


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

    ``⟨Q2⟩[C]`` is the number of occurrences isomorphic to ``C``'s
    representative (:func:`_isomorphic_occurrences`), one per
    bijective kernel — never divided by ``|Aut|``.
    """
    constants = _pair_constants(source, target)
    for key, representative, required, group in \
            context.complete_description(target, constants):
        if k is not None:
            required = min(required, math.ceil(k / group))
        found = 0
        for member in source:
            found += _isomorphic_occurrences(member, key, representative,
                                             constants, context=context)
            if found >= required:
                break
        else:
            return False
    return True


def _isomorphic_occurrences(member: CQ, key: tuple, representative: CQ,
                            constants: tuple, *, context) -> int:
    """The occurrences of ``⟨member⟩`` isomorphic to ``representative``
    (of canonical key ``key``): bijective kernels, when the rigid terms
    map one-to-one (equal head patterns).  A pair of rigid terms the
    representative constrains and the occurrence does not (only members
    with inequalities have one) is told apart by key."""
    if _head_pattern(member.head) != _head_pattern(representative.head):
        return 0
    kernels = context.hom_kernels(member, representative, HomKind.BIJECTIVE,
                                  None)
    if not kernels or not QueryCode.of(representative).pairs:
        return len(kernels)
    code = QueryCode.of(member).relative(constants)
    return sum(
        1 for kernel in kernels
        if context.canonical_form(code.quotient(_occurrences(
            member, representative, kernel, constants)[0])).key == key)


def _head_pattern(head: tuple) -> tuple[int, ...]:
    """Which head positions repeat a variable: each position's first
    occurrence."""
    return tuple(head.index(var) for var in head)


def sur_infty(source: UCQ | CQ, target: UCQ | CQ, *, context=None) -> bool:
    """``⟨Q2⟩ ։∞ ⟨Q1⟩`` (Def. 5.14): a matching assigning to every CCQ
    occurrence of ``⟨Q1⟩`` a unique surjectively-mapping occurrence of
    ``⟨Q2⟩``.

    Surjectivity counts atom occurrences, so the ``⟨Q1⟩`` classes here
    are those of the raw description (the same canonical keys
    :func:`bi_count_k` groups by).  Hall's condition is decided as a
    capacitated matching in which each ``⟨Q1⟩`` class demands as many
    occurrences as it has members, and the supplies are the ``⟨Q2⟩``
    occurrences ``(member index, surjective kernel)``, each of capacity
    one, out of :func:`~repro.queries.ccq.description_size` per member
    in all.  The edges of a ``⟨Q1⟩`` class are asked for only while no
    Hall violation has shown.
    """
    from ..core.context import resolve_context
    source, target = as_ucq(source), as_ucq(target)
    context = resolve_context(context)
    constants = _pair_constants(source, target)
    classes1 = context.complete_description(target, constants)
    representatives1 = [row.representative for row in classes1]
    demand = [row.multiplicity for row in classes1]
    occurrences: dict[tuple, int] = {}

    def edges(i: int) -> list[int]:
        representative = representatives1[i]
        return [occurrences.setdefault((j, occurrence), len(occurrences))
                for j, member in enumerate(source)
                for kernel in context.hom_kernels(
                    member, representative, HomKind.SURJECTIVE, None)
                for occurrence in _occurrences(member, representative,
                                               kernel, constants)]

    total = sum(description_size(member, constants) for member in source)
    return saturates(demand, [1] * total, edges)
