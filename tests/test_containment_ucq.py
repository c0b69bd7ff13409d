"""UCQ containment decision procedures (Table 1, right column).

Each block reproduces one of the paper's Sec. 5 results, including all
worked examples (5.4, 5.7 with continuations, 5.20) and the honest
undecidability frontier for bag semantics.
"""

from __future__ import annotations

import pytest

import repro.core.containment as containment
from repro.core import decide_ucq_containment
from repro.queries import UCQ, parse_cq, parse_ucq
from repro.semirings import (B, BX, LIN, LIN_X_N2, N, N2X, N3X,
                             N2_SATURATING, NX, SORP, SSUR, TPLUS, TRIO,
                             WHY)


@pytest.fixture
def no_transfer(monkeypatch):
    """The dispatch without its ``N[X] → K`` transfer, for a pair whose
    members match bijectively but whose class procedure is under test
    (see :func:`test_bijectively_matched_members_are_transferred`)."""
    monkeypatch.setattr(containment, "transferred", lambda *args: None)


def test_bijectively_matched_members_are_transferred():
    """Each ``Q1`` member has its own ``Q2`` member with a bijective
    homomorphism onto it, so ``Q1 ⊆N[X] Q2``, and the verdict is
    carried along ``N[X] → K`` before any class procedure runs."""
    q = parse_cq("Q() :- R(u, u)")
    for q1, q2, semiring in ((UCQ((q, q)), UCQ((q, q)), SSUR),
                             (UCQ((q, q)), UCQ((q, q)), TRIO),
                             (UCQ((q,)), UCQ((q, q)), N)):
        verdict = decide_ucq_containment(q1, q2, semiring)
        assert verdict.result is True, semiring.name
        assert verdict.method == "transferred", semiring.name
        assert f"N[X] → {semiring.name}" in verdict.explanation


# --- requirement (C3): the empty union ------------------------------------

@pytest.mark.parametrize("semiring", [B, LIN, NX, N, TPLUS],
                         ids=lambda s: s.name)
def test_empty_union_contained_everywhere(semiring):
    q2 = parse_ucq(["Q() :- R(x, x)"])
    verdict = decide_ucq_containment(UCQ(()), q2, semiring)
    assert verdict.result is True
    assert verdict.method == "empty-union"


def test_nonempty_not_contained_in_empty():
    q1 = parse_ucq(["Q() :- R(x, x)"])
    verdict = decide_ucq_containment(q1, UCQ(()), B)
    assert verdict.result is False


# --- Chom (Thm. 5.2): local homomorphism check -----------------------------

def test_chom_local_check():
    q1 = parse_ucq(["Q() :- R(x, x)", "Q() :- R(x, y), R(y, x)"])
    q2 = parse_ucq(["Q() :- R(u, v)"])
    verdict = decide_ucq_containment(q1, q2, B)
    assert verdict.result is True
    assert verdict.method == "local-homomorphism"
    # reverse fails: R(u,v) has no hom from either member
    assert decide_ucq_containment(q2, q1, B).result is False


# --- C1in (Thm. 5.6): local injective --------------------------------------

def test_c1in_sorp():
    q1 = parse_ucq(["Q() :- R(x, y), S(y)"])
    q2 = parse_ucq(["Q() :- R(u, v)", "Q() :- S(w), S(w)"])
    verdict = decide_ucq_containment(q1, q2, SORP)
    assert verdict.result is True
    assert verdict.method == "local-injective"
    q2_bad = parse_ucq(["Q() :- R(u, v), R(u, v)"])
    assert decide_ucq_containment(q1, q2_bad, SORP).result is False


# --- Example 5.4: T+ needs non-local reasoning ------------------------------

def test_example_5_4():
    q1 = parse_ucq(["Q() :- R(v), S(v)"])
    q2 = parse_ucq(["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"])
    verdict = decide_ucq_containment(q1, q2, TPLUS)
    assert verdict.result is True
    assert verdict.method == "small-model"
    # …although no member alone contains Q11 (shown in the CQ tests) and
    # the local injective condition fails:
    from repro.homomorphisms import HomKind, local_condition
    assert not local_condition(q2, q1, HomKind.INJECTIVE)


# --- C1hcov (Thm. 5.24, k = 1): Ex. 5.20 ------------------------------------

def test_example_5_20_lineage():
    q1 = parse_ucq(["Q() :- R(v), S(v)"])
    q2 = parse_ucq(["Q() :- R(v)", "Q() :- S(v)"])
    verdict = decide_ucq_containment(q1, q2, LIN)
    assert verdict.result is True
    assert verdict.method == "union-covering"
    assert decide_ucq_containment(q2, q1, LIN).result is False


# --- C2hcov (Thm. 5.24, k = 2): the product semiring ------------------------

def test_c2hcov_product():
    q1 = parse_ucq(["Q() :- S(v)", "Q() :- S(v), S(v)"])
    q2_two = parse_ucq(["Q() :- S(v)", "Q() :- S(v)"])
    q2_one = parse_ucq(["Q() :- S(v)"])
    verdict = decide_ucq_containment(q1, q2_two, LIN_X_N2)
    assert verdict.result is True
    assert verdict.method == "union-covering-2"
    assert decide_ucq_containment(q1, q2_one, LIN_X_N2).result is False


def test_n2_saturating_stays_honest():
    """Bare N₂ has no necessity class: sufficient ⇉2 may decide True,
    but a failing ⇉2 must NOT be reported as False."""
    q1 = parse_ucq(["Q() :- R(v1, v0), S(v1)"])
    q2 = parse_ucq(["Q() :- R(v0, v1)", "Q() :- R(v0, v1)"])
    verdict = decide_ucq_containment(q1, q2, N2_SATURATING)
    assert verdict.result is None  # genuinely contained, but unprovable here


# --- C1sur (Cor. 5.18): Why[X] ----------------------------------------------

def test_c1sur_why():
    q1 = parse_ucq(["Q() :- R(x, y)"])
    q2 = parse_ucq(["Q() :- R(u, v), R(u, v)", "Q() :- S(w)"])
    verdict = decide_ucq_containment(q1, q2, WHY)
    assert verdict.result is True
    assert verdict.method == "local-surjective"
    q1_two = parse_ucq(["Q() :- R(x, y), R(x, z)"])
    q2_collapsing = parse_ucq(["Q() :- R(u, v), R(u, v)"])
    assert decide_ucq_containment(q1_two, q2_collapsing, WHY).result is False


# --- C∞sur (Thm. 5.17): Trio[X] and the Hall matching ------------------------

def test_cinf_sur_ssur_counts_copies(no_transfer):
    q = parse_cq("Q() :- R(u, u)")
    q1 = UCQ((q, q))
    verdict = decide_ucq_containment(q1, UCQ((q, q)), SSUR)
    assert verdict.result is True
    assert verdict.method == "sur-infty-matching"
    # one copy cannot uniquely serve two:
    assert decide_ucq_containment(q1, UCQ((q,)), SSUR).result is False
    # Why[X] (offset 1) differs: one copy suffices there.
    assert decide_ucq_containment(q1, UCQ((q,)), WHY).result is True


def test_trio_ucq_bounds_only(no_transfer):
    """Trio ∉ N1sur/N∞sur: the ⊕-side is honest about the gap — a
    sufficient ։∞ still certifies, but failures stay undecided unless a
    necessary condition refutes."""
    q = parse_cq("Q() :- R(u, u)")
    q1 = UCQ((q, q))
    certified = decide_ucq_containment(q1, UCQ((q, q)), TRIO)
    assert certified.result is True
    assert certified.method == "sufficient-condition"
    gap = decide_ucq_containment(q1, UCQ((q,)), TRIO)
    assert gap.result in (None, False)  # never a bare guess of True


# --- C1bi / Ckbi / C∞bi (Thm. 5.13, Prop. 5.9): Ex. 5.7 ----------------------

EX57_Q1 = ["Q() :- R(u, v), R(u, u)", "Q() :- R(u, v), R(v, v)"]
EX57_Q2 = ["Q() :- R(u, v), R(w, w)", "Q() :- R(u, u), R(u, u)"]


def test_example_5_7_nx():
    q1, q2 = parse_ucq(EX57_Q1), parse_ucq(EX57_Q2)
    verdict = decide_ucq_containment(q1, q2, NX)
    assert verdict.result is True
    assert verdict.method == "bi-count-infty"


def test_example_5_7_continued_offsets():
    q1_plus = parse_ucq(EX57_Q1).with_member(
        parse_cq("Q() :- R(u, u), R(u, u)"))
    q2 = parse_ucq(EX57_Q2)
    assert decide_ucq_containment(q1_plus, q2, NX).result is False
    verdict = decide_ucq_containment(q1_plus, q2, N2X)
    assert verdict.result is True
    assert verdict.method == "bi-count-k"
    assert decide_ucq_containment(q1_plus, q2, N3X).result is False


def test_c1bi_bx_local_bijective():
    q = parse_cq("Q() :- R(u, u)")
    q1 = UCQ((q, q))
    verdict = decide_ucq_containment(q1, UCQ((q,)), BX)
    assert verdict.result is True
    assert verdict.method == "local-bijective"
    assert decide_ucq_containment(q1, UCQ((q,)), NX).result is False


# --- bag semantics: the undecidability frontier ------------------------------

def test_bag_ucq_sufficient_cor_5_16(no_transfer):
    """⟨Q2⟩ ։∞ ⟨Q1⟩ implies Q1 ⊆N Q2 (Cor. 5.16)."""
    q = parse_cq("Q() :- R(u, u)")
    verdict = decide_ucq_containment(UCQ((q,)), UCQ((q, q)), N)
    assert verdict.result is True
    assert verdict.method == "sufficient-condition"


def test_bag_ucq_necessary_cor_5_23():
    """failing ⟨Q2⟩ ⇉2 ⟨Q1⟩ refutes Q1 ⊆N Q2 (Cor. 5.23).  Both members
    answer ``R(1, 'a')``, which ``Q2`` counts once; no probe of the
    refuter binds both terms at once, so the condition decides."""
    q1 = parse_ucq(["Q() :- R(x, 'a')", "Q() :- R(1, y)"])
    q2 = parse_ucq(["Q() :- R(x, y)"])
    verdict = decide_ucq_containment(q1, q2, N)
    assert verdict.result is False
    assert verdict.method == "necessary-condition"
    assert verdict.certificate == "⟨Q2⟩ ⇉2 ⟨Q1⟩ (Cor. 5.23)"


def test_bag_ucq_doubled_union_is_refuted():
    """The doubled union ``Q ∪ Q ⊆N Q`` (which also fails ``⇉2``) is
    refuted by a probe: with its one fact at 1, ``Q1`` reads 2 and
    ``Q2`` reads 1."""
    q = parse_cq("Q() :- R(u, u)")
    verdict = decide_ucq_containment(UCQ((q, q)), UCQ((q,)), N)
    assert verdict.result is False
    assert verdict.method == "refuted"
    assert (verdict.certificate.lhs, verdict.certificate.rhs) == (2, 1)


def test_bag_ucq_gap_undecided():
    q1 = parse_ucq(["Q() :- R(u, v), R(u, w)"])
    q2 = parse_ucq(["Q() :- R(x, y), R(x, y)"])
    verdict = decide_ucq_containment(q1, q2, N)
    assert verdict.result is None
    assert verdict.sufficient is False
    assert verdict.necessary is True


# --- Prop. 5.1: locality characterizes ⊕-idempotence --------------------------

def test_prop_5_1_locality_holds_in_s1():
    """For ⊕-idempotent semirings, member-wise containment lifts."""
    from repro.semirings import LIN, SORP
    q = parse_cq("Q() :- R(u, u)")
    bigger = parse_cq("Q() :- R(u, v)")
    q1 = UCQ((q, q))
    q2 = UCQ((bigger, bigger))
    for semiring in (B, LIN, SORP, TPLUS):
        assert decide_ucq_containment(q1, q2, semiring).result is True


def test_prop_5_1_locality_fails_outside_s1():
    """Over N[X] each member of {Q, Q} is contained in {Q}, yet the
    union is not — the 'only if' side of Prop. 5.1."""
    q = parse_cq("Q() :- R(u, u)")
    q1 = UCQ((q, q))
    q2 = UCQ((q,))
    from repro.core import decide_cq_containment
    assert all(
        decide_cq_containment(member, q, NX).result for member in q1)
    assert decide_ucq_containment(q1, q2, NX).result is False
