"""CQs with inequalities, complete CQs and complete descriptions.

Pins the paper's Ex. 4.6 description (five CCQs, exact shapes), the
Bell-number growth of ``⟨Q⟩``, and — the key semantic fact — that
``⟨Q⟩ ≡K Q`` over every semiring.
"""

from __future__ import annotations

import random

import pytest

from repro.data import Instance
from repro.queries import (CQ, Atom, CQWithInequalities, UCQ, Var,
                           complete_description, complete_description_ucq,
                           evaluate, parse_cq)
from repro.queries.ccq import head_patterns, set_partitions
from repro.queries.generators import random_cq
from repro.semirings import ALL_SEMIRINGS, B, N, NX, TPLUS, WHY


# --- CQWithInequalities -----------------------------------------------

def test_inequality_validation():
    x, y = Var("x"), Var("y")
    with pytest.raises(ValueError):
        CQWithInequalities((), (Atom("R", (x, y)),), ((x, x),))
    with pytest.raises(ValueError):
        CQWithInequalities((), (Atom("R", (x, y)),), ((x, Var("w")),))


def test_respects():
    x, y = Var("x"), Var("y")
    ccq = CQWithInequalities((), (Atom("R", (x, y)),), ((x, y),))
    assert ccq.respects({x: 1, y: 2})
    assert not ccq.respects({x: 1, y: 1})
    assert ccq.respects({x: 1})  # unconstrained half


def test_is_complete():
    q = parse_cq("Q() :- R(u, v), R(u, w), u != v, u != w, v != w")
    assert q.is_complete()
    partial = parse_cq("Q() :- R(u, v), R(u, w), u != v")
    assert not partial.is_complete()


def test_substitute_collision_rejected():
    x, y = Var("x"), Var("y")
    ccq = CQWithInequalities((), (Atom("R", (x, y)),), ((x, y),))
    with pytest.raises(ValueError):
        ccq.substitute({x: y})


def test_drop_inequalities():
    ccq = parse_cq("Q() :- R(u, v), u != v")
    assert ccq.drop_inequalities() == parse_cq("Q() :- R(u, v)")


def test_ccq_equality_includes_inequalities():
    with_ineq = parse_cq("Q() :- R(u, v), u != v")
    without = CQWithInequalities((), with_ineq.atoms, ())
    assert with_ineq != without


# --- set partitions ----------------------------------------------------

BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


@pytest.mark.parametrize("n,count", sorted(BELL.items()))
def test_set_partitions_bell_numbers(n, count):
    items = tuple(range(n))
    partitions = list(set_partitions(items))
    assert len(partitions) == count
    # each partition covers the items exactly once
    for partition in partitions:
        flat = [item for block in partition for item in block]
        assert sorted(flat) == list(items)


# --- complete descriptions (Ex. 4.6) -----------------------------------

def test_example_4_6_description():
    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    description = complete_description(q1)
    assert len(description) == 5  # Bell(3)
    shapes = sorted(
        (len(ccq.existential_vars()), len(ccq.atoms), len(set(ccq.atoms)))
        for ccq in description
    )
    # Q15: 1 var, 2 copies of R(u,u); Q12: 2 vars, duplicated atom;
    # Q13/Q14: 2 vars, distinct atoms; Q11: 3 vars, distinct atoms.
    assert shapes == [(1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 2, 2), (3, 2, 2)]
    for ccq in description:
        assert ccq.is_complete()


def test_description_of_ccq_is_itself():
    ccq = parse_cq("Q() :- R(u, v), u != v")
    assert complete_description(ccq) == (ccq,)
    partial = parse_cq("Q() :- R(u, v), R(u, w), u != v")
    with pytest.raises(ValueError):
        complete_description(partial)


def test_description_ucq_is_disjoint_union():
    q1 = parse_cq("Q() :- R(u, v)")
    q2 = parse_cq("Q() :- R(u, u)")
    combined = complete_description_ucq((q1, q2))
    assert len(combined) == len(complete_description(q1)) + len(
        complete_description(q2))


def test_free_variables_not_partitioned():
    q = parse_cq("Q(x) :- R(x, y)")
    description = complete_description(q)
    # Only the existential y is partitioned: free (y ≠ x) or bound to x.
    assert len(description) == 2
    assert all(ccq.head == (Var("x"),) for ccq in description)
    assert description[1].atoms == parse_cq("Q(x) :- R(x, x)").atoms


# --- the equivalence ⟨Q⟩ ≡K Q ------------------------------------------

def _instances_for(semiring, rng):
    """A few small instances over domain {0, 1, 2}."""
    out = []
    for _ in range(4):
        relations = {"R": {}, "S": {}}
        for a in range(3):
            for b in range(3):
                if rng.random() < 0.5:
                    relations["R"][(a, b)] = semiring.sample(rng)
            if rng.random() < 0.5:
                relations["S"][(a,)] = semiring.sample(rng)
        out.append(Instance(semiring, relations))
    return out


@pytest.mark.parametrize("semiring", [B, N, NX, TPLUS, WHY],
                         ids=lambda s: s.name)
def test_complete_description_equivalent(semiring):
    rng = random.Random(77)
    for _ in range(6):
        query = random_cq(rng, max_atoms=3, max_vars=3, head_arity=1)
        description = UCQ(complete_description(query))
        for instance in _instances_for(semiring, rng):
            for target in [(0,), (1,), (2,)]:
                direct = evaluate(query, instance, target)
                split = evaluate(description, instance, target)
                assert semiring.eq(direct, split), (
                    query, instance, target, direct, split)


# --- head patterns -----------------------------------------------------

def _union(*texts: str) -> UCQ:
    return UCQ(parse_cq(text) for text in texts)


def test_a_pair_without_head_variables_is_its_own_pattern():
    q1, q2 = _union("Q() :- R(x, 'a')"), _union("Q() :- R(x, y)")
    [(_, p1, p2)] = head_patterns(q1, q2)
    assert p1 is q1 and p2 is q2


@pytest.mark.parametrize("texts", [
    ("Q(x) :- R(x, y)", "Q() :- R(u, v)"),
    ("Q() :- R(u, v)", "Q(x) :- R(x, y)"),
], ids=["1-0", "0-1"])
def test_head_patterns_reject_unequal_arities(texts):
    q1, q2 = (_union(text) for text in texts)
    with pytest.raises(ValueError, match="equal arity, got "
                       f"{q1.arity} and {q2.arity}"):
        head_patterns(q1, q2)
    # An empty union has no members to compare heads with.
    head_patterns(q1, UCQ(()))
    head_patterns(UCQ(()), q2)


def test_head_patterns_bind_and_merge_head_positions():
    q1 = _union("Q(x) :- R(x, x)", "Q(x) :- R(x, 'c')")
    q2 = _union("Q(x) :- R(x, z)")
    (_, free1, free2), (_, bound1, bound2) = head_patterns(q1, q2)
    assert free1 is q1 and free2 is q2
    # At x = 'c' both members answer with the fact R('c', 'c').
    assert bound1 == _union("Q() :- R('c', 'c')", "Q() :- R('c', 'c')")
    assert bound2 == _union("Q() :- R('c', z)")
    # A repeated head variable answers only where its positions meet;
    # an inequality the pattern breaks drops its member.
    x, y = Var("x"), Var("y")
    q1 = UCQ([parse_cq("Q(x, x) :- S(x)"),
              CQWithInequalities((x, y), [Atom("R", (x, y))], [(x, y)])])
    patterns = head_patterns(q1, _union("Q(x, y) :- R(x, y)"))
    assert [p1 for _, p1, _ in patterns] == [
        _union("Q(x) :- S(x)"),
        UCQ([CQWithInequalities((x, y), [Atom("R", (x, y))], [(x, y)])])]
