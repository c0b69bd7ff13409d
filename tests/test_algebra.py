"""The positive relational algebra layer and its UCQ compilation."""

from __future__ import annotations

import random

import pytest

from repro.algebra import check_rewrite, table
from repro.data import Instance
from repro.queries import evaluate_all
from repro.semirings import B, LIN, N, NX, TPLUS, WHY

R = table("R", "src", "dst")
S = table("S", "dst", "kind")


def bag_instance():
    return Instance(N, {
        "R": {("a", "b"): 2, ("c", "b"): 1, ("a", "d"): 1},
        "S": {("b", "x"): 3, ("d", "y"): 5},
    })


# --- construction validation -------------------------------------------

def test_table_schema_must_be_distinct():
    with pytest.raises(ValueError):
        table("R", "a", "a")


def test_selection_validates_attribute():
    with pytest.raises(ValueError):
        R.select("nope", 1)
    with pytest.raises(ValueError):
        R.select("src", "@nope")


def test_projection_validates_attributes():
    with pytest.raises(ValueError):
        R.project("nope")


def test_union_needs_matching_schema():
    with pytest.raises(ValueError):
        R.union(S)


def test_renaming_collision_rejected():
    with pytest.raises(ValueError):
        R.rename({"src": "dst"})


# --- evaluation ----------------------------------------------------------

def test_join_multiplies_annotations():
    result = R.join(S).evaluate(bag_instance())
    assert result[("a", "b", "x")] == 6
    assert result[("c", "b", "x")] == 3
    assert result[("a", "d", "y")] == 5


def test_projection_adds_annotations():
    result = R.join(S).project("src").evaluate(bag_instance())
    assert result[("a",)] == 6 + 5
    assert result[("c",)] == 3


def test_selection_constant():
    result = R.join(S).select("kind", "x").project("src").evaluate(
        bag_instance())
    assert result == {("a",): 6, ("c",): 3}


def test_selection_attribute_equality():
    instance = Instance(N, {"R": {("a", "a"): 4, ("a", "b"): 7}})
    result = R.select("src", "@dst").evaluate(instance)
    assert result == {("a", "a"): 4}


def test_union_adds():
    instance = Instance(N, {"R": {("a", "b"): 2}, "T": {("a", "b"): 5}})
    T = table("T", "src", "dst")
    assert R.union(T).evaluate(instance) == {("a", "b"): 7}


def test_rename_relabels_schema():
    renamed = R.rename({"dst": "mid"})
    assert renamed.attributes == ("src", "mid")
    chained = renamed.join(R.rename({"src": "mid"}))
    assert chained.attributes == ("src", "mid", "dst")


def test_two_hop_join():
    two_hop = R.rename({"dst": "mid"}).join(
        R.rename({"src": "mid"})).project("src", "dst")
    instance = Instance(N, {"R": {("a", "b"): 2, ("b", "c"): 3}})
    assert two_hop.evaluate(instance) == {("a", "c"): 6}


# --- compilation ----------------------------------------------------------

def test_compiled_head_matches_schema():
    ucq = R.join(S).project("src", "kind").to_ucq()
    assert ucq.arity == 2
    assert len(ucq) == 1


def test_union_compiles_to_members():
    T = table("T", "src", "dst")
    ucq = R.union(T).to_ucq()
    assert len(ucq) == 2


def test_selection_of_union_distributes():
    T = table("T", "src", "dst")
    ucq = R.union(T).select("src", "a").project("dst").to_ucq()
    assert len(ucq) == 2


def test_projecting_away_selected_constant_ok():
    ucq = R.select("dst", "b").project("src").to_ucq()
    assert ucq.cqs[0].constants() == ("b",)


def test_constant_in_head_rejected():
    with pytest.raises(ValueError):
        R.select("dst", "b").to_ucq()


SEMIRINGS = [B, N, NX, LIN, WHY, TPLUS]


def _random_instance(semiring, rng):
    relations = {"R": {}, "S": {}}
    for a in "abc":
        for b in "abc":
            if rng.random() < 0.5:
                relations["R"][(a, b)] = semiring.sample(rng)
        if rng.random() < 0.5:
            relations["S"][(a, rng.choice("xy"))] = semiring.sample(rng)
    return Instance(semiring, relations)


EXPRESSIONS = [
    R,
    R.project("src"),
    R.select("src", "@dst"),
    R.join(S),
    R.join(S).select("kind", "x").project("src"),
    R.rename({"dst": "mid"}).join(R.rename({"src": "mid"})).project(
        "src", "dst"),
    R.project("src").union(
        R.select("src", "@dst").project("src")),
    R.join(S).project("src").union(R.project("src")),
]


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("expression", EXPRESSIONS,
                         ids=[f"expr{i}" for i in range(len(EXPRESSIONS))])
def test_compilation_agrees_with_evaluation(semiring, expression):
    """The UCQ compilation is exact: same annotated answers on random
    instances over six differently-shaped semirings."""
    rng = random.Random(hash((semiring.name, repr(expression))) & 0xFFFF)
    for _ in range(3):
        instance = _random_instance(semiring, rng)
        direct = expression.evaluate(instance)
        compiled = evaluate_all(expression.to_ucq(), instance)
        assert direct == compiled, (semiring.name, expression, instance)


# --- rewrite checking --------------------------------------------------------

def test_selfjoin_elimination_semiring_dependent():
    doubled = R.join(R.rename({"dst": "dst2"})).project("src")
    single = R.project("src")
    assert check_rewrite(doubled, single, B).equivalent is True
    assert check_rewrite(doubled, single, NX).equivalent is False
    assert check_rewrite(doubled, single, LIN).equivalent is True


def test_rewrite_check_reports_direction():
    bigger = R.project("src").union(R.project("src"))
    smaller = R.project("src")
    check = check_rewrite(smaller, bigger, NX)
    assert check.forward.result is True     # smaller ⊆ bigger
    assert check.backward.result is False   # bigger ⊄ smaller over N[X]
    assert check.equivalent is False
    assert "NOT EQUIVALENT" in check.summary()


def test_rewrite_check_undecided_over_bags():
    # (Σ_d R(s, d))² against Σ_d R(s, d)²: the squared side is contained
    # in the doubled one, the other direction is the bounds gap, and no
    # probe of the refuter tells the two apart.
    doubled = R.join(R.rename({"dst": "dst2"})).project("src")
    squared = R.join(R).project("src")
    check = check_rewrite(doubled, squared, N)
    assert check.equivalent is None
    assert "UNDECIDED" in check.summary()


def test_rewrite_check_schema_mismatch():
    with pytest.raises(ValueError):
        check_rewrite(R, R.project("src"), B)
