"""The small-model procedure (Thm. 4.17, Prop. 4.19)."""

from __future__ import annotations

import random

import pytest

from repro.core import small_model_contained, small_model_tests
from repro.oracle import find_counterexample
from repro.queries import UCQ, parse_cq, parse_ucq
from repro.queries.generators import random_cq
from repro.semirings import B, N, TMINUS, TPLUS


def test_rejects_non_idempotent_semiring():
    q = parse_cq("Q() :- R(u, u)")
    with pytest.raises(ValueError):
        small_model_contained(q, q, N)


def test_test_points_enumeration():
    """⟨Q1⟩ for Ex. 4.6 has 5 CCQs; a boolean query has one () target
    each."""
    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    points = list(small_model_tests(q1, ()))
    assert len(points) == 5
    assert all(target == () for _, target in points)


def test_test_points_with_free_variables():
    q = parse_cq("Q(x) :- R(x, y)")
    points = list(small_model_tests(q, ()))
    # ⟨Q⟩ = {R(x,y) with y ≠ x, R(x,x)} (only y existential, free or
    # bound to the head variable x): 2 + 1 points of arity 1.
    assert len(points) == 3


def test_example_4_6_tropical():
    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    q2 = parse_cq("Q() :- R(u, v), R(u, v)")
    assert small_model_contained(q1, q2, TPLUS)
    assert small_model_contained(q2, q1, TPLUS)  # the paper shows =T+


def test_example_5_4_ucq():
    q1 = parse_ucq(["Q() :- R(v), S(v)"])
    q2 = parse_ucq(["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"])
    assert small_model_contained(q1, q2, TPLUS)
    assert not small_model_contained(q2, q1, TPLUS)


def test_refutes_relation_mismatch():
    q1 = parse_cq("Q() :- R(u, u)")
    q2 = parse_cq("Q() :- S(u)")
    assert not small_model_contained(q1, q2, TPLUS)


def test_agrees_with_boolean_homomorphism():
    """For B (⊕-idempotent with a decidable poly order) the small model
    must agree with the Chandra–Merlin criterion."""
    from repro.homomorphisms import has_homomorphism
    rng = random.Random(31)
    for _ in range(15):
        q1 = random_cq(rng, max_atoms=2, max_vars=2)
        q2 = random_cq(rng, max_atoms=2, max_vars=2)
        assert small_model_contained(q1, q2, B) == has_homomorphism(q2, q1)


@pytest.mark.parametrize("semiring", [TPLUS, TMINUS], ids=lambda s: s.name)
def test_small_model_never_refuted_by_oracle(semiring):
    rng = random.Random(17)
    for _ in range(12):
        q1 = random_cq(rng, max_atoms=2, max_vars=2)
        q2 = random_cq(rng, max_atoms=2, max_vars=2)
        contained = small_model_contained(q1, q2, semiring)
        witness = find_counterexample(q1, q2, semiring,
                                      rng=random.Random(3), budget=600,
                                      random_rounds=8)
        if contained:
            assert witness is None, (q1, q2, witness)
        else:
            assert witness is not None, (q1, q2)
