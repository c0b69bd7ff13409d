"""The small-model procedure (Thm. 4.17, Prop. 4.19)."""

from __future__ import annotations

import random

import pytest

from repro.api import ContainmentEngine
from repro.core import small_model_contained
from repro.oracle import find_counterexample
from repro.queries import UCQ, parse_cq, parse_ucq
from repro.queries.ccq import description_size
from repro.queries.generators import random_cq
from repro.queries.ucq import as_ucq
from repro.semirings import B, N, TMINUS, TPLUS


def test_rejects_non_idempotent_semiring():
    q = parse_cq("Q() :- R(u, u)")
    with pytest.raises(ValueError):
        small_model_contained(q, q, N)


def _test_points(q) -> int:
    """The number of test points ``(Q, t)`` of Thm. 4.17 counted through
    the class table of ``⟨q⟩``: each row stands for ``multiplicity``
    CCQs, each with one point per tuple over its terms."""
    rows = ContainmentEngine().complete_description(as_ucq(q), ())
    return sum(
        row.multiplicity * len((*row.representative.variables(),
                                *row.representative.constants())) ** q.arity
        for row in rows)


def test_test_points_enumeration():
    """⟨Q1⟩ for Ex. 4.6 has 5 CCQs; a boolean query has one () target
    each."""
    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    rows = ContainmentEngine().complete_description(as_ucq(q1), ())
    assert sum(row.multiplicity for row in rows) == 5
    assert description_size(q1, ()) == 5
    assert _test_points(q1) == 5


def test_test_points_with_free_variables():
    q = parse_cq("Q(x) :- R(x, y)")
    # ⟨Q⟩ = {R(x,y) with y ≠ x, R(x,x)} (only y existential, free or
    # bound to the head variable x): 2 + 1 points of arity 1.
    assert _test_points(q) == 3


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


@pytest.mark.parametrize("texts", [
    ("Q(x) :- R(x, y)", "Q() :- R(u, v)"),
    ("Q() :- R(x, y)", "Q(u) :- R(u, v)"),
], ids=["1-0", "0-1"])
def test_unequal_arities_are_refused(texts):
    """Both the procedure and the oracle refuse a pair whose heads
    differ in length, as the dispatch does, instead of indexing past
    the shorter head or reporting a witness."""
    q1, q2 = (parse_cq(text) for text in texts)
    message = f"equal arity, got {q1.arity} and {q2.arity}"
    with pytest.raises(ValueError, match=message):
        small_model_contained(q1, q2, TPLUS)
    with pytest.raises(ValueError, match=message):
        find_counterexample(q1, q2, N)


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
