"""Certificate checking, explanations, and the endomorphism lemma."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import repro.core.containment as containment
from repro.api import ContainmentEngine
from repro.core.explain import (Explanation, check_homomorphism_certificate,
                                explain)
from repro.core.verdict import MemberMatching
from repro.homomorphisms import HomKind, find_homomorphism
from repro.homomorphisms.isomorphism import endomorphisms, is_automorphism
from repro.queries import Var, complete_description, parse_cq, parse_ucq
from repro.queries.generators import random_cq
from repro.semirings import B, N, NX, SORP, WHY
from tests.test_table1_golden import CORPUS


# --- certificate checking -------------------------------------------------

def test_valid_certificate_accepted():
    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    q2 = parse_cq("Q() :- R(u, v), R(u, v)")
    mapping = find_homomorphism(q2, q1, HomKind.PLAIN)
    assert check_homomorphism_certificate(q2, q1, mapping, HomKind.PLAIN)


def test_wrong_mapping_rejected():
    q1 = parse_cq("Q() :- R(u, v)")
    q2 = parse_cq("Q() :- R(x, y)")
    bad = {Var("x"): Var("v"), Var("y"): Var("u")}   # reversed
    assert not check_homomorphism_certificate(q2, q1, bad)


def test_partial_mapping_rejected():
    q1 = parse_cq("Q() :- R(u, v)")
    q2 = parse_cq("Q() :- R(x, y)")
    assert not check_homomorphism_certificate(q2, q1, {Var("x"): Var("u")})


def test_head_violation_rejected():
    q1 = parse_cq("Q(u) :- R(u, v)")
    q2 = parse_cq("Q(x) :- R(x, y)")
    bad = {Var("x"): Var("v"), Var("y"): Var("u")}
    assert not check_homomorphism_certificate(q2, q1, bad)


def test_kind_conditions_checked():
    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    q2 = parse_cq("Q() :- R(x, y), R(x, y)")
    mapping = find_homomorphism(q2, q1, HomKind.PLAIN)
    assert check_homomorphism_certificate(q2, q1, mapping, HomKind.PLAIN)
    assert not check_homomorphism_certificate(q2, q1, mapping,
                                              HomKind.INJECTIVE)
    assert not check_homomorphism_certificate(q2, q1, mapping,
                                              HomKind.SURJECTIVE)


@pytest.mark.parametrize("kind", list(HomKind), ids=lambda kind: kind.value)
def test_search_results_always_check(kind):
    rng = random.Random(13)
    for _ in range(15):
        q1 = random_cq(rng, max_atoms=3, max_vars=3)
        q2 = random_cq(rng, max_atoms=3, max_vars=3)
        mapping = find_homomorphism(q2, q1, kind)
        if mapping is not None:
            assert check_homomorphism_certificate(q2, q1, mapping, kind)


# --- explanations -----------------------------------------------------------

def test_explain_positive_with_certificate():
    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    q2 = parse_cq("Q() :- R(u, v), R(u, v)")
    explanation = explain(q1, q2, B)
    assert explanation.verdict.result is True
    assert explanation.certificate_valid is True
    assert "certificate checked" in explanation.summary()


def test_explain_negative_with_witness():
    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    q2 = parse_cq("Q() :- R(u, v), R(u, v)")
    explanation = explain(q1, q2, NX)
    assert explanation.verdict.result is False
    assert explanation.witness is not None
    assert "witness found" in explanation.summary()


def test_explain_undecided():
    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    q2 = parse_cq("Q() :- R(u, v), R(u, v)")
    explanation = explain(q1, q2, N)
    assert explanation.verdict.result is None
    assert "undecided" in explanation.summary()


def test_explain_handles_ucq():
    u1 = parse_ucq(["Q() :- R(u, u)"])
    u2 = parse_ucq(["Q() :- R(u, v)", "Q() :- R(u, u)"])
    explanation = explain(u1, u2, SORP)
    assert explanation.verdict.result is True


# --- transferred verdicts (a bijective member matching) ----------------------

def _union(spec):
    return parse_ucq(spec if isinstance(spec, list) else [spec])


def test_every_transferred_golden_verdict_is_checked():
    engine = ContainmentEngine()
    checked = set()
    for semiring in engine.registry:
        for label, q1, q2, equivalence in CORPUS:
            if equivalence or engine.decide(
                    q1, q2, semiring).method != "transferred":
                continue
            explanation = explain(_union(q1), _union(q2), semiring,
                                  context=engine.context)
            assert explanation.certificate_valid is True, (semiring, label)
            assert "certificate checked" in explanation.summary()
            checked.add(type(explanation.verdict.certificate))
    # Both shapes occur: a CQ pair's mapping and a union's matching.
    assert checked == {dict, MemberMatching}


def _tampering(monkeypatch, tamper):
    """Patch the dispatch's transfer step to return ``tamper`` applied
    to the certificate it finds."""
    original = containment.transferred

    def tampered(*args):
        verdict = original(*args)
        return replace(verdict, certificate=tamper(verdict.certificate))
    monkeypatch.setattr(containment, "transferred", tampered)


def test_a_tampered_cq_mapping_is_caught(monkeypatch):
    q1, q2 = parse_cq("Q() :- R(x, 'a')"), parse_cq("Q() :- R(x, y)")
    assert "certificate checked" in explain(q1, q2, N).summary()
    _tampering(monkeypatch, lambda mapping: {**mapping, Var("y"): "b"})
    explanation = explain(q1, q2, N)
    assert explanation.verdict.method == "transferred"
    assert "CERTIFICATE BAD" in explanation.summary()


CI_9 = (["Q() :- R(x, 'a')", "Q() :- S(y)"], ["Q() :- R(x, y)", "Q() :- S(y)"])


@pytest.mark.parametrize("tamper", [
    lambda matching: MemberMatching(tuple(
        (i, 0, mapping) for i, _, mapping in matching.assignment)),
    lambda matching: MemberMatching(tuple(
        (i, j, {var: "b" for var in mapping})
        for i, j, mapping in matching.assignment)),
    lambda matching: MemberMatching(matching.assignment[:1]),
], ids=["repeated-q2-member", "tampered-mapping", "unassigned-q1-member"])
def test_a_tampered_member_matching_is_caught(monkeypatch, tamper):
    q1, q2 = map(parse_ucq, CI_9)
    assert "certificate checked" in explain(q1, q2, N).summary()
    _tampering(monkeypatch, tamper)
    explanation = explain(q1, q2, N)
    assert explanation.verdict.method == "transferred"
    assert "CERTIFICATE BAD" in explanation.summary()


ROOTED = ("Q(x) :- E(x, y), E(y, z)", "Q(x) :- E(x, y)")


def test_a_refutation_is_checked_by_evaluation():
    """A ``refuted`` verdict's probe instance is re-checked on the pair
    itself, and serves as the witness: no oracle search runs."""
    q1, q2 = map(parse_cq, ROOTED)
    explanation = explain(q1, q2, N)
    assert explanation.verdict.method == "refuted"
    assert explanation.certificate_valid is True
    assert explanation.summary() == \
        "not contained [refuted; certificate checked]"
    witness = explanation.witness
    assert witness.source == "refuter probe"
    assert (witness.target, witness.lhs, witness.rhs) == ((Var("x"),), 4, 2)


def test_refutations_on_the_golden_corpus_are_checked():
    engine = ContainmentEngine()
    checked = 0
    for semiring in engine.registry:
        for label, q1, q2, equivalence in CORPUS:
            if equivalence or engine.decide(
                    q1, q2, semiring).method != "refuted":
                continue
            explanation = explain(_union(q1), _union(q2), semiring,
                                  context=engine.context)
            assert "certificate checked" in explanation.summary(), \
                (semiring.name, label)
            checked += 1
    assert checked == 32


def _tampering_refutation(monkeypatch, tamper):
    """Patch the dispatch's probe refuter to return ``tamper`` applied
    to the certificate it finds."""
    original = containment.refuted

    def tampered(*args):
        verdict = original(*args)
        if verdict is None:
            return None
        return replace(verdict, certificate=tamper(verdict.certificate))
    monkeypatch.setattr(containment, "refuted", tampered)


@pytest.mark.parametrize("tamper", [
    lambda refutation: replace(refutation, facts=(
        refutation.facts[0][:2] + (1,), *refutation.facts[1:])),
    lambda refutation: replace(refutation, target=("c",)),
    lambda refutation: replace(refutation, lhs=refutation.rhs,
                               rhs=refutation.lhs),
], ids=["changed-fact-value", "wrong-target", "swapped-sides"])
def test_a_tampered_refutation_is_caught(monkeypatch, tamper):
    q1, q2 = map(parse_cq, ROOTED)
    _tampering_refutation(monkeypatch, tamper)
    explanation = explain(q1, q2, N)
    assert explanation.verdict.method == "refuted"
    assert explanation.certificate_valid is False
    assert explanation.witness is None
    assert "CERTIFICATE BAD" in explanation.summary()


# --- the endomorphism lemma (Sec. 5.2) ---------------------------------------

def test_ccq_endomorphisms_are_automorphisms():
    """All endomorphisms of complete CCQs are automorphisms."""
    rng = random.Random(99)
    checked = 0
    for _ in range(20):
        query = random_cq(rng, max_atoms=3, max_vars=3)
        for ccq in complete_description(query):
            for mapping in endomorphisms(ccq):
                assert is_automorphism(ccq, mapping), (ccq, mapping)
                checked += 1
    assert checked > 20  # the lemma was actually exercised


def test_plain_cq_endomorphisms_can_collapse():
    """Without inequalities a query CAN fold onto itself properly —
    the contrast that makes complete descriptions useful."""
    query = parse_cq("Q() :- R(u, v), R(u, w)")
    collapsing = [
        mapping for mapping in endomorphisms(query)
        if not is_automorphism(query, mapping)
    ]
    assert collapsing  # e.g. w ↦ v


def test_is_automorphism_checks_inequalities():
    ccq = parse_cq("Q() :- R(u, v), R(v, u), u != v")
    swap = {Var("u"): Var("v"), Var("v"): Var("u")}
    assert is_automorphism(ccq, swap)
    identity = {Var("u"): Var("u"), Var("v"): Var("v")}
    assert is_automorphism(ccq, identity)
