"""Top-level containment decision procedures (the paper's Table 1).

:func:`decide_containment` answers ``Q1 ⊆K Q2`` for any registered
semiring: a pair of CQs or singleton unions goes to
:func:`decide_cq_containment`, any other pair to
:func:`decide_ucq_containment`.  Each dispatches through one table.
The rows :data:`repro.core.classes.CQ_CLASSES` and
:data:`repro.core.classes.UCQ_CLASSES` list the decidable classes in
priority order, and :data:`CQ_PROCEDURES` and :data:`UCQ_PROCEDURES`
map each class name to its procedure: the verdict's method, the
theorem, and the condition, which these procedures call through this
module's globals when they run (so a replaced
``repro.core.containment.local_condition``, say, reaches every
dispatch).  A semiring in no class falls back to the small-model
procedure (Thm. 4.17) when it is ⊕-idempotent with a decidable
polynomial order.

The procedures that read complete descriptions (``⇉2``, ``։∞``,
``→֒k``, the small model and the bag bounds) run once per head pattern
(:func:`repro.queries.ccq.head_patterns`): ``⟨Q⟩`` splits a query's
valuations exactly only at head values that differ from each other and
from the constants.

In front of exactly those procedures the UCQ dispatch tries one edge of
the classification's own order, :func:`transferred`.  ``N[X]`` keeps
the most provenance: a homomorphism ``N[X] → K`` exists for every
``K`` and is monotone in the natural order (Green, Prop. A.2), so
``Q1 ⊆N[X] Q2`` gives ``Q1 ⊆K Q2``.  The step tests one sufficient
condition for it on the original pair: every ``Q1`` member has its own
``Q2`` member with a bijective homomorphism onto it.  Those searches
are memoised, short, and hold at every head pattern, so a pair they
decide (a self pair, say) builds no ``⟨Q⟩``, no small model and no
bounds.  It runs after the universal plain-homomorphism refutation and
only before the procedures above: the CQ rows and the local UCQ rows
(``Chom``, ``C1in``, ``C1hcov``, ``C1sur``, ``C1bi``) cost no more than
the step would, so they are left to answer as they always have.  A
failed matching leaves the dispatch exactly as without the step.  Its
``True`` is sound over every ``K``: an exact class procedure agrees
with it, and where the bounds would leave a pair undecided it decides
the pair.

For semirings outside every decidable class (bag semantics ``N``,
``R+``) the verdict reports the strongest applicable bounds, one head
pattern at a time (:func:`_bounded_verdict`).  First a probe refuter
evaluates both sides on a few small tagged instances, one per ``Q1``
member with all its existentials merged into one element
(:func:`tagged_probes`): a probe on which ``Q1`` reads more than
``Q2`` *refutes* with that instance as its certificate.  Then a failed
necessary condition still *refutes*, a satisfied sufficient condition
still *confirms*, and otherwise the verdict is honestly undecided,
which for ``N`` is exactly the open-problem / undecidability frontier
the paper describes (bag containment of a CQ in a UCQ is undecidable,
so no bound closes the gap; a bounded refutation is what can answer
``False`` there).
"""

from __future__ import annotations

import math
from typing import Callable

from ..homomorphisms.covering import covers
from ..homomorphisms.matching import saturating_flow
from ..homomorphisms.search import HomKind
from ..homomorphisms.ucq_conditions import (bi_count_infty, bi_count_k,
                                            covering_2, covering_union,
                                            local_condition, sur_infty)
from ..data.instance import Instance
from ..queries.ccq import head_patterns, pattern_values
from ..queries.cq import CQ
from ..queries.evaluation import valuations
from ..queries.ucq import UCQ, as_ucq
from .classes import Classification
from .context import DecisionContext, resolve_context
from .small_model import small_model_contained
from .verdict import MemberMatching, Refutation, Verdict

__all__ = ["decide_containment", "decide_cq_containment",
           "decide_ucq_containment", "k_equivalent", "tagged_probes",
           "transferred"]


def _local(kind: HomKind) -> Callable:
    return lambda q1, q2, cls, ctx: local_condition(q2, q1, kind,
                                                    context=ctx)


#: The procedure of each :data:`~repro.core.classes.CQ_CLASSES` class:
#: ``(method, theorem, kind)``, deciding by a homomorphism ``Q2 → Q1`` of
#: that kind (None: by a homomorphic covering ``Q2 ⇉ Q1``).
CQ_PROCEDURES = {
    "Chom": ("homomorphism", "Thm. 3.3", HomKind.PLAIN),
    "Chcov": ("homomorphic-covering", "Thm. 4.3", None),
    "Cin": ("injective-homomorphism", "Thm. 4.9", HomKind.INJECTIVE),
    "Csur": ("surjective-homomorphism", "Thm. 4.14", HomKind.SURJECTIVE),
    "Cbi": ("bijective-homomorphism", "Thm. 4.10", HomKind.BIJECTIVE),
}

#: The procedure of each :data:`~repro.core.classes.UCQ_CLASSES` class:
#: ``(method, theorem, condition)``, deciding by
#: ``condition(q1, q2, classification, context)``; ``{k}`` in a theorem
#: is the semiring's offset.
UCQ_PROCEDURES = {
    # Holds once the local homomorphism, checked first, exists.
    "Chom": ("local-homomorphism", "Thm. 5.2", lambda *args: True),
    "C1in": ("local-injective", "Thm. 5.6", _local(HomKind.INJECTIVE)),
    "C1hcov": ("union-covering", "Thm. 5.24, k = 1",
               lambda q1, q2, cls, ctx: covering_union(q2, q1, context=ctx)),
    "C2hcov": ("union-covering-2", "Thm. 5.24, k = 2",
               lambda q1, q2, cls, ctx: covering_2(q2, q1, context=ctx)),
    "C1sur": ("local-surjective", "Cor. 5.18", _local(HomKind.SURJECTIVE)),
    "C∞sur": ("sur-infty-matching", "Thm. 5.17",
              lambda q1, q2, cls, ctx: sur_infty(q2, q1, context=ctx)),
    "C1bi": ("local-bijective", "Thm. 5.13, k = 1",
             _local(HomKind.BIJECTIVE)),
    "Ckbi": ("bi-count-k", "Thm. 5.13, k = {k}",
             lambda q1, q2, cls, ctx: bi_count_k(q2, q1, cls.offset,
                                                 context=ctx)),
    "C∞bi": ("bi-count-infty", "Prop. 5.10 / Prop. 5.9",
             lambda q1, q2, cls, ctx: bi_count_infty(q2, q1, context=ctx)),
}

#: The :data:`UCQ_PROCEDURES` rows whose condition reads ``⟨Q⟩``.  The
#: dispatcher tries :func:`transferred` in front of them and then runs
#: the condition on every head pattern of the pair
#: (:func:`repro.queries.ccq.head_patterns`): ``⟨Q⟩`` is exact only
#: where the head values differ from each other and from the constants.
PER_PATTERN = frozenset({"C2hcov", "C∞sur", "Ckbi", "C∞bi"})


def _check_arity(q1, q2) -> None:
    if q1.arity != q2.arity:
        raise ValueError(
            f"containment compares queries of equal arity, got "
            f"{q1.arity} and {q2.arity}")


def _k_label(offset: float) -> str:
    return "∞" if math.isinf(offset) else str(int(offset))


def _single(query) -> CQ | None:
    """The CQ a query or singleton union stands for, else None."""
    if isinstance(query, CQ):
        return query
    if isinstance(query, UCQ) and len(query.cqs) == 1:
        return query.cqs[0]
    return None


def decide_containment(q1, q2, semiring, *,
                       context: DecisionContext | None = None) -> Verdict:
    """Decide ``Q1 ⊆K Q2`` for CQs or UCQs.

    A pair of CQs or singleton unions is decided through the CQ-level
    procedures, any other pair through the UCQ-level ones; ``context``
    is forwarded as in :func:`decide_cq_containment`.
    """
    cq1, cq2 = _single(q1), _single(q2)
    if cq1 is not None and cq2 is not None:
        return decide_cq_containment(cq1, cq2, semiring, context=context)
    return decide_ucq_containment(q1, q2, semiring, context=context)


def decide_cq_containment(q1: CQ, q2: CQ, semiring, *,
                          context: DecisionContext | None = None) -> Verdict:
    """Decide ``Q1 ⊆K Q2`` for conjunctive queries.

    ``context`` supplies classification, homomorphism search and every
    other primitive (pass an engine to share its caches); ``None``
    decides on a fresh :class:`repro.api.ContainmentEngine`.
    """
    if not isinstance(q1, CQ) or not isinstance(q2, CQ):
        raise TypeError("decide_cq_containment expects CQs; use "
                        "decide_ucq_containment for unions")
    _check_arity(q1, q2)
    ctx = resolve_context(context)
    cls = ctx.classify(semiring)

    # A plain homomorphism Q2 → Q1 is necessary over every registered
    # semiring (Sec. 3.3), giving a universal fast refutation: with all
    # annotations 1 on Q1's canonical instance, Q1 reads at least 1 and
    # Q2 reads 0.  That needs 1 ⊗ 1 = 1, not positivity, so it holds
    # over L as well.
    witness = ctx.find_homomorphism(q2, q1, HomKind.PLAIN)
    if witness is None:
        return Verdict(False, "no-homomorphism",
                       explanation="no homomorphism Q2 → Q1 exists, which "
                                   "is necessary over every positive "
                                   "semiring")

    name = cls.cq_exact_class()
    if name is None:
        # No CQ-specific characterization: the UCQ machinery (on
        # singleton unions) and the small-model procedure still apply.
        return decide_ucq_containment(UCQ((q1,)), UCQ((q2,)), semiring,
                                      context=ctx)
    method, reference, kind = CQ_PROCEDURES[name]
    if kind is None:
        holds, mapping = covers(q2, q1, context=ctx), None
    else:
        mapping = (witness if kind is HomKind.PLAIN
                   else ctx.find_homomorphism(q2, q1, kind))
        holds = mapping is not None
    return Verdict(holds, method, certificate=mapping,
                   explanation=f"{semiring.name} ∈ {name} ({reference})")


def decide_ucq_containment(q1, q2, semiring, *,
                           context: DecisionContext | None = None) -> Verdict:
    """Decide ``Q1 ⊆K Q2`` for unions of conjunctive queries.

    ``context`` is forwarded as in :func:`decide_cq_containment`.
    """
    q1, q2 = as_ucq(q1), as_ucq(q2)
    if not q1.is_empty() and not q2.is_empty():
        _check_arity(q1, q2)
    ctx = resolve_context(context)
    cls = ctx.classify(semiring)

    if q1.is_empty():
        return Verdict(True, "empty-union",
                       explanation="∅ ⊆K Q holds by requirement (C3)")

    # Universal fast refutation: each member of Q1 needs some member of
    # Q2 with a plain homomorphism to it (evaluate both sides on the
    # canonical instance of the uncovered member, all annotations 1;
    # sound wherever 1 ⊗ 1 = 1, so over L as well as every positive
    # semiring).
    if not local_condition(q2, q1, HomKind.PLAIN, context=ctx):
        return Verdict(False, "no-local-homomorphism",
                       explanation="some member of Q1 admits no "
                                   "homomorphism from any member of Q2; "
                                   "necessary over every positive semiring")

    name = cls.ucq_exact_class()
    if name is None or name in PER_PATTERN:
        verdict = transferred(q1, q2, semiring, ctx)
        if verdict is not None:
            return verdict
    if name is not None:
        method, reference, condition = UCQ_PROCEDURES[name]
        reference = reference.format(k=_k_label(cls.offset))
        patterns = (head_patterns(q1, q2) if name in PER_PATTERN
                    else (((), q1, q2),))
        holds = all(condition(p1, p2, cls, ctx) for _, p1, p2 in patterns)
        return Verdict(holds, method,
                       explanation=f"{semiring.name} ∈ {name} ({reference})")
    if cls.small_model:
        holds = small_model_contained(q1, q2, semiring, context=ctx)
        return Verdict(holds, "small-model",
                       explanation=f"{semiring.name}: canonical-instance "
                                   "polynomial comparison (Thm. 4.17)")
    first = None
    for pattern, p1, p2 in head_patterns(q1, q2):
        verdict = _bounded_verdict(p1, p2, semiring, cls, context=ctx,
                                   pattern=pattern)
        if verdict.result is False:
            return verdict
        if first is None or first.result and verdict.result is None:
            first = verdict
    return first


def transferred(q1: UCQ, q2: UCQ, semiring, ctx: DecisionContext
                ) -> Verdict | None:
    """``True`` carried along ``N[X] → K`` when one sufficient condition
    for ``Q1 ⊆N[X] Q2`` holds; ``None`` when it does not.

    The condition: every ``Q1`` member gets its own ``Q2`` member with a
    bijective homomorphism from that member onto it (the Hall matcher,
    :func:`repro.homomorphisms.matching.saturating_flow`, with unit
    demands and capacities).  Each valuation of a ``Q1`` member then
    extends to a distinct valuation of its ``Q2`` member with the same
    monomial, so the member's polynomial is at most its partner's, and
    the sum over ``Q1`` at most the sum over ``Q2``.  For a CQ pair this
    is exactly ``N[X]``'s ``Cbi`` procedure (Thm. 4.10); for unions it
    is sufficient.  A bijective homomorphism maps head to head, so the
    condition holds at every head pattern.  ``N[X]`` is the free
    commutative semiring: ``N[X] → K`` exists for every ``K`` and is
    monotone in the natural order (Green, Prop. A.2), so the verdict
    holds over ``semiring``.

    The certificate is the mapping for a pair of single members, else a
    :class:`~repro.core.verdict.MemberMatching`.
    """
    members1, members2 = q1.cqs, q2.cqs
    mappings: dict[tuple[int, int], dict] = {}

    def edges(i: int) -> list[int]:
        found = []
        for j, member in enumerate(members2):
            # A bijection needs equal atom counts: skip the search (and
            # the `homs` entry its miss would leave) when they differ.
            if len(member.atoms) != len(members1[i].atoms):
                continue
            mapping = ctx.find_homomorphism(member, members1[i],
                                            HomKind.BIJECTIVE)
            if mapping is not None:
                mappings[i, j] = mapping
                found.append(j)
        return found

    flow = saturating_flow([1] * len(members1), [1] * len(members2), edges)
    if flow is None:
        return None
    if len(members1) == len(members2) == 1:
        certificate = mappings[0, 0]
    else:
        certificate = MemberMatching(tuple(
            (i, j, mappings[i, j])
            for i, j in sorted((i, j) for j, row in enumerate(flow)
                               for i in row)))
    return Verdict(True, "transferred", certificate=certificate,
                   explanation=f"transferred along N[X] → {semiring.name} "
                               "(Prop. A.2): each member of Q1 has its own "
                               "member of Q2 with a bijective homomorphism "
                               "onto it, so Q1 ⊆N[X] Q2 (Thm. 4.10)")


def tagged_probes(q1: UCQ, q2: UCQ) -> tuple[tuple, ...]:
    """The probe instances of the refuter for ``Q1 ⊆ Q2``, each with
    the fact counts on which ``Q1`` outnumbers ``Q2`` in ``N``.

    One probe per ``Q1`` member: its canonical instance with every
    existential merged into one element (the member's first
    existential) and its head variables and constants kept, so each
    fact is the image of some atom.  Each *distinct* fact gets one tag,
    its index in order of first occurrence (one tag per atom
    occurrence would turn clique 5's probe into ``(z1 + … + z20)^20``),
    and both sides' ``N[X]`` polynomials at the member's head are
    listed once, one monomial per valuation (:func:`_monomials`).  They
    are then evaluated in ``N`` with every tag at 1 or 2, in
    :func:`_tag_counts` order, and a vector is kept as
    ``(counts, lhs, rhs)`` only when ``lhs > rhs``: otherwise ``rhs``
    is ``lhs`` plus a natural number, and so is its image in every
    naturally ordered semiring.  A probe is ``(head, facts, tries)``:
    the member's head (the output tuple), the facts as ``(relation,
    row)`` pairs in tag order, and the kept vectors; members giving the
    same probe give it once, and a probe with no vector kept is
    dropped.  Nothing here names a semiring, so one computation per
    pair of head-pattern unions serves every semiring
    (:meth:`~repro.core.context.DecisionContext.tagged_probes`).
    """
    from ..semirings.natural import N

    seen, probes = set(), []
    for member in q1:
        existential = member.existential_vars()
        merged = (dict.fromkeys(existential, existential[0]) if existential
                  else {})
        facts = tuple(dict.fromkeys(
            (atom.relation, tuple(atom.substitute(merged).terms))
            for atom in member.atoms))
        if (member.head, facts) in seen:
            continue
        seen.add((member.head, facts))
        tags = {fact: tag for tag, fact in enumerate(facts)}
        relations: dict[str, dict] = {}
        for relation, row in facts:
            relations.setdefault(relation, {})[row] = 1
        instance = Instance(N, relations)
        left = _monomials(q1, instance, member.head, tags)
        right = _monomials(q2, instance, member.head, tags)
        tries = []
        for counts in _tag_counts(len(facts)):
            lhs, rhs = _value(left, counts), _value(right, counts)
            if lhs > rhs:
                tries.append((counts, lhs, rhs))
        if tries:
            probes.append((member.head, facts, tuple(tries)))
    return tuple(probes)


def _monomials(query: UCQ, instance: Instance, head: tuple,
               tags: dict) -> list[tuple[int, ...]]:
    """``query``'s ``N[X]`` polynomial at ``head`` on a probe, as one
    monomial per valuation: the tags of the facts it multiplies."""
    return [tuple(tags[atom.relation, tuple(valuation.get(term, term)
                                            for term in atom.terms)]
                  for atom in member.atoms)
            for member in query
            for valuation in valuations(member, instance, head)]


def _value(monomials: list, counts: tuple) -> int:
    """The polynomial of :func:`_monomials` with tag ``i`` at
    ``counts[i]``, in ``N``."""
    return sum(math.prod(counts[tag] for tag in monomial)
               for monomial in monomials)


def _tag_counts(count: int):
    """The fact counts the refuter tries for ``count`` tags, in order:
    all 1, all 2, then each tag alone at 2."""
    yield (1,) * count
    if count:
        yield (2,) * count
    if count > 1:
        for doubled in range(count):
            yield tuple(2 if tag == doubled else 1 for tag in range(count))


def refuted(q1: UCQ, q2: UCQ, semiring, ctx: DecisionContext,
            pattern: tuple) -> Verdict | None:
    """``False`` when a probe of :func:`tagged_probes` refutes
    ``Q1 ⊆K Q2``; ``None`` when none does.

    A probe's fact counts map to ``K`` through the unique morphism
    ``N → K`` (``n ↦ n·1``): every fact is ``1`` or ``1 ⊕ 1``, and the
    ``K``-instance with those values gives ``Q1`` and ``Q2`` the images
    of their ``N`` values (evaluation commutes with semiring
    morphisms), so where those images satisfy ``lhs ⋠ rhs`` the
    instance is a counterexample over ``K``.  Where ``1 ⊕ 1 = 1`` no
    probe is tried: every fact is then ``1``, which cannot refute past
    the plain homomorphisms the dispatch has already found.
    ``q1``/``q2`` are one head pattern of the pair (``pattern``, from
    :func:`repro.queries.ccq.head_patterns`), and the certificate's
    target is stated in the original pair's arity
    (:func:`repro.queries.ccq.pattern_values`), so it holds of the pair
    as asked.
    """
    one = semiring.one
    if semiring.eq(semiring.add(one, one), one):
        return None
    for head, facts, tries in ctx.tagged_probes(q1, q2):
        for counts, lhs, rhs in tries:
            lhs, rhs = semiring.from_int(lhs), semiring.from_int(rhs)
            if not semiring.leq(lhs, rhs):
                certificate = Refutation(
                    tuple((relation, row, semiring.from_int(count))
                          for (relation, row), count in zip(facts, counts)),
                    pattern_values(pattern, head), lhs, rhs)
                return Verdict(False, "refuted", certificate=certificate,
                               explanation=f"refuted on a probe instance "
                                           f"(a Q1 member's existentials "
                                           f"merged, each fact 1 or 1 ⊕ 1): "
                                           f"Q1 reads {lhs!r}, Q2 reads "
                                           f"{rhs!r}, and {lhs!r} ⋠ "
                                           f"{rhs!r} in {semiring.name}")
    return None


def _bounded_verdict(q1: UCQ, q2: UCQ, semiring, cls: Classification, *,
                     context: DecisionContext, pattern: tuple) -> Verdict:
    """Best-effort verdict when no exact procedure exists (e.g. bag
    semantics), on one head pattern: the dispatcher answers ``False``
    if one pattern does, ``True`` if all do, and else the first
    undecided one.

    The probe refuter (:func:`refuted`) runs first: its probes are
    memoised per pattern pair, and refuting a pair costs no complete
    description, so a refuted pair builds none.  Then the necessary
    conditions run in order until one fails, and the sufficient ones
    in order until one holds: the verdict names only that condition,
    so the conditions after it are never computed.
    """
    verdict = refuted(q1, q2, semiring, context, pattern)
    if verdict is not None:
        return verdict
    props = semiring.properties

    necessary: list[tuple[str, Callable[[], bool]]] = []
    if props.in_n2hcov:
        necessary.append(("⟨Q2⟩ ⇉2 ⟨Q1⟩ (Cor. 5.23)",
                          lambda: covering_2(q2, q1, context=context)))
    elif props.in_n1hcov or props.in_nhcov:
        necessary.append(("Q2 ⇉1 Q1",
                          lambda: covering_union(q2, q1, context=context)))
    if props.in_nsur:
        necessary.append(
            ("։1 locally", lambda: local_condition(
                q2, q1, HomKind.SURJECTIVE, context=context)))
    if props.in_nin:
        necessary.append(
            ("→֒ locally", lambda: local_condition(
                q2, q1, HomKind.INJECTIVE, context=context)))
    for description, holds in necessary:
        if not holds():
            return Verdict(False, "necessary-condition",
                           certificate=description,
                           explanation=f"necessary condition failed: "
                                       f"{description}")

    sufficient: list[tuple[str, Callable[[], bool]]] = []
    if cls.s_sur:
        sufficient.append(("⟨Q2⟩ ։∞ ⟨Q1⟩ (Cor. 5.16)",
                           lambda: sur_infty(q2, q1, context=context)))
    if cls.s_hcov:
        k = 1 if cls.s1 else 2
        sufficient.append((f"⇉{k} (Prop. 5.21)",
                           lambda: covering_union(q2, q1, context=context)
                           if k == 1 else covering_2(q2, q1, context=context)))
    if cls.s_in:
        sufficient.append(
            ("→֒ locally", lambda: local_condition(
                q2, q1, HomKind.INJECTIVE, context=context)))
    sufficient.append(
        (f"⟨Q2⟩ →֒{_k_label(cls.offset)} ⟨Q1⟩ (Prop. 5.12)",
         lambda: bi_count_k(q2, q1, cls.offset, context=context)))
    for description, holds in sufficient:
        if holds():
            return Verdict(True, "sufficient-condition",
                           certificate=description,
                           explanation=f"sufficient condition holds: "
                                       f"{description}")

    return Verdict(
        None, "bounds-only",
        sufficient=False,
        necessary=True,
        explanation=f"{semiring.name} lies in no decidable class; all "
                    "known necessary conditions hold and all known "
                    "sufficient conditions fail — the gap is the open "
                    "problem / undecidability frontier of the paper",
    )


def k_equivalent(q1, q2, semiring, *,
                 context: DecisionContext | None = None) -> Verdict:
    """Decide ``Q1 ≡K Q2`` via mutual containment (requirement (C2)),
    each direction through :func:`decide_containment`."""
    context = resolve_context(context)
    forward = decide_containment(q1, q2, semiring, context=context)
    if forward.result is False:
        return Verdict(False, forward.method, certificate=forward.certificate,
                       explanation=f"Q1 ⊆K Q2 fails: {forward.explanation}")
    backward = decide_containment(q2, q1, semiring, context=context)
    if backward.result is False:
        return Verdict(False, backward.method,
                       certificate=backward.certificate,
                       explanation=f"Q2 ⊆K Q1 fails: {backward.explanation}")
    if forward.result and backward.result:
        return Verdict(True, f"{forward.method}+{backward.method}",
                       explanation="both containments hold")
    return Verdict(None, "bounds-only",
                   explanation="one direction is undecided")
