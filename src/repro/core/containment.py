"""Top-level containment decision procedures (the paper's Table 1).

:func:`decide_cq_containment` and :func:`decide_ucq_containment` answer
``Q1 ⊆K Q2`` for any registered semiring by dispatching on its
classification:

=========  ==========================================  ==============
class      CQ procedure                                UCQ procedure
=========  ==========================================  ==============
Chom       homomorphism ``Q2 → Q1``                    local ``→``
Chcov      homomorphic covering ``Q2 ⇉ Q1``            —
C1/2hcov   —                                           ``⇉1`` / ``⟨⟩⇉2⟨⟩``
Cin/C1in   injective ``Q2 →֒ Q1``                       local ``→֒``
Csur       surjective ``Q2 ։ Q1``                      ``։1`` / ``⟨⟩։∞⟨⟩``
Cbi        bijective ``Q2 →֒→ Q1``                      ``→֒1/→֒k/→֒∞``
S¹+order   small model (Thm. 4.17)                     small model
=========  ==========================================  ==============

The procedures that read complete descriptions (``⇉2``, ``։∞``,
``→֒k``, the small model and the bag bounds) run once per head pattern
(:func:`repro.queries.ccq.head_patterns`): ``⟨Q⟩`` splits a query's
valuations exactly only at head values that differ from each other and
from the constants.

For semirings outside every decidable class (bag semantics ``N``,
``R+``) the verdict reports the strongest applicable bounds: a failed
necessary condition still *refutes*, a satisfied sufficient condition
still *confirms*, and otherwise the verdict is honestly undecided —
which for ``N`` is exactly the open-problem / undecidability frontier
the paper describes.
"""

from __future__ import annotations

import math
from typing import Callable

from ..homomorphisms.covering import covers
from ..homomorphisms.search import HomKind
from ..homomorphisms.ucq_conditions import (bi_count_infty, bi_count_k,
                                            covering_2, covering_union,
                                            local_condition, sur_infty)
from ..queries.ccq import head_patterns
from ..queries.cq import CQ
from ..queries.ucq import UCQ, as_ucq
from .classes import Classification
from .context import DecisionContext, resolve_context
from .small_model import small_model_contained
from .verdict import Verdict

__all__ = ["decide_cq_containment", "decide_ucq_containment", "k_equivalent"]


def _check_arity(q1, q2) -> None:
    if q1.arity != q2.arity:
        raise ValueError(
            f"containment compares queries of equal arity, got "
            f"{q1.arity} and {q2.arity}")


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

    # A plain homomorphism Q2 → Q1 is necessary over EVERY positive
    # semiring (Sec. 3.3), giving a universal fast refutation.
    witness = ctx.find_homomorphism(q2, q1, HomKind.PLAIN)
    if witness is None:
        return Verdict(False, "no-homomorphism",
                       explanation="no homomorphism Q2 → Q1 exists, which "
                                   "is necessary over every positive "
                                   "semiring")

    if cls.c_hom:
        return Verdict(True, "homomorphism", certificate=witness,
                       explanation=f"{semiring.name} ∈ Chom (Thm. 3.3)")
    if cls.c_hcov:
        holds = covers(q2, q1, context=ctx)
        return Verdict(holds, "homomorphic-covering",
                       explanation=f"{semiring.name} ∈ Chcov (Thm. 4.3)")
    if cls.c_in:
        mapping = ctx.find_homomorphism(q2, q1, HomKind.INJECTIVE)
        return Verdict(mapping is not None, "injective-homomorphism",
                       certificate=mapping,
                       explanation=f"{semiring.name} ∈ Cin (Thm. 4.9)")
    if cls.c_sur:
        mapping = ctx.find_homomorphism(q2, q1, HomKind.SURJECTIVE)
        return Verdict(mapping is not None, "surjective-homomorphism",
                       certificate=mapping,
                       explanation=f"{semiring.name} ∈ Csur (Thm. 4.14)")
    if cls.c_bi:
        mapping = ctx.find_homomorphism(q2, q1, HomKind.BIJECTIVE)
        return Verdict(mapping is not None, "bijective-homomorphism",
                       certificate=mapping,
                       explanation=f"{semiring.name} ∈ Cbi (Thm. 4.10)")
    # No CQ-specific characterization: the UCQ machinery (on singleton
    # unions) and the small-model procedure still apply.
    return decide_ucq_containment(UCQ((q1,)), UCQ((q2,)), semiring,
                                  context=ctx)


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
    # canonical instance of the uncovered member, all annotations 1).
    if not local_condition(q2, q1, HomKind.PLAIN, context=ctx):
        return Verdict(False, "no-local-homomorphism",
                       explanation="some member of Q1 admits no "
                                   "homomorphism from any member of Q2; "
                                   "necessary over every positive semiring")

    if cls.c_hom:
        return Verdict(True, "local-homomorphism",
                       explanation=f"{semiring.name} ∈ Chom (Thm. 5.2)")
    if cls.c1_in:
        holds = local_condition(q2, q1, HomKind.INJECTIVE, context=ctx)
        return Verdict(holds, "local-injective",
                       explanation=f"{semiring.name} ∈ C1in (Thm. 5.6)")
    if cls.c1_hcov:
        holds = covering_union(q2, q1, context=ctx)
        return Verdict(holds, "union-covering",
                       explanation=f"{semiring.name} ∈ C1hcov "
                                   "(Thm. 5.24, k = 1)")
    if cls.c2_hcov:
        holds = _every_pattern(
            q1, q2, lambda p1, p2: covering_2(p2, p1, context=ctx))
        return Verdict(holds, "union-covering-2",
                       explanation=f"{semiring.name} ∈ C2hcov "
                                   "(Thm. 5.24, k = 2)")
    if cls.c1_sur:
        holds = local_condition(q2, q1, HomKind.SURJECTIVE, context=ctx)
        return Verdict(holds, "local-surjective",
                       explanation=f"{semiring.name} ∈ C1sur (Cor. 5.18)")
    if cls.c_inf_sur:
        holds = _every_pattern(
            q1, q2, lambda p1, p2: sur_infty(p2, p1, context=ctx))
        return Verdict(holds, "sur-infty-matching",
                       explanation=f"{semiring.name} ∈ C∞sur (Thm. 5.17)")
    if cls.c1_bi:
        holds = local_condition(q2, q1, HomKind.BIJECTIVE, context=ctx)
        return Verdict(holds, "local-bijective",
                       explanation=f"{semiring.name} ∈ C1bi "
                                   "(Thm. 5.13, k = 1)")
    if cls.ck_bi:
        holds = _every_pattern(
            q1, q2,
            lambda p1, p2: bi_count_k(p2, p1, cls.offset, context=ctx))
        return Verdict(holds, "bi-count-k",
                       explanation=f"{semiring.name} ∈ Ckbi "
                                   f"(Thm. 5.13, k = {int(cls.offset)})")
    if cls.c_inf_bi:
        holds = _every_pattern(
            q1, q2, lambda p1, p2: bi_count_infty(p2, p1, context=ctx))
        return Verdict(holds, "bi-count-infty",
                       explanation=f"{semiring.name} ∈ C∞bi (Prop. 5.10 / "
                                   "Prop. 5.9)")
    if cls.small_model:
        holds = small_model_contained(q1, q2, semiring, context=ctx)
        return Verdict(holds, "small-model",
                       explanation=f"{semiring.name}: canonical-instance "
                                   "polynomial comparison (Thm. 4.17)")
    first = None
    for p1, p2 in head_patterns(q1, q2):
        verdict = _bounded_verdict(p1, p2, semiring, cls, context=ctx)
        if verdict.result is False:
            return verdict
        if first is None or first.result and verdict.result is None:
            first = verdict
    return first


def _every_pattern(q1: UCQ, q2: UCQ,
                   holds: Callable[[UCQ, UCQ], bool]) -> bool:
    """True iff ``holds`` on every head pattern of the pair
    (:func:`repro.queries.ccq.head_patterns`): a condition that reads
    ``⟨Q⟩`` is exact only where the head values differ from each other
    and from the constants."""
    return all(holds(p1, p2) for p1, p2 in head_patterns(q1, q2))


def _bounded_verdict(q1: UCQ, q2: UCQ, semiring, cls: Classification, *,
                     context: DecisionContext) -> Verdict:
    """Best-effort verdict from the known necessary and sufficient
    conditions when no exact procedure exists (e.g. bag semantics), on
    one head pattern: the dispatcher answers ``False`` if one pattern
    does, ``True`` if all do, and else the first undecided one.

    The necessary conditions run in order until one fails, the
    sufficient ones in order until one holds: the verdict names only
    that condition, so the conditions after it are never computed.
    """
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
    offset = cls.offset
    k_label = "∞" if math.isinf(offset) else str(int(offset))
    sufficient.append(
        (f"⟨Q2⟩ →֒{k_label} ⟨Q1⟩ (Prop. 5.12)",
         lambda: bi_count_k(q2, q1, offset, context=context)))
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
    """Decide ``Q1 ≡K Q2`` via mutual containment (requirement (C2))."""
    context = resolve_context(context)
    forward = (decide_cq_containment(q1, q2, semiring, context=context)
               if isinstance(q1, CQ) and isinstance(q2, CQ)
               else decide_ucq_containment(q1, q2, semiring,
                                           context=context))
    if forward.result is False:
        return Verdict(False, forward.method, certificate=forward.certificate,
                       explanation=f"Q1 ⊆K Q2 fails: {forward.explanation}")
    backward = (decide_cq_containment(q2, q1, semiring, context=context)
                if isinstance(q1, CQ) and isinstance(q2, CQ)
                else decide_ucq_containment(q2, q1, semiring,
                                            context=context))
    if backward.result is False:
        return Verdict(False, backward.method,
                       certificate=backward.certificate,
                       explanation=f"Q2 ⊆K Q1 fails: {backward.explanation}")
    if forward.result and backward.result:
        return Verdict(True, f"{forward.method}+{backward.method}",
                       explanation="both containments hold")
    return Verdict(None, "bounds-only",
                   explanation="one direction is undecided")
