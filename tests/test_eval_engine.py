"""End-to-end agreement of the columnar evaluator with the reference.

The central property (an ISSUE acceptance criterion): for **every**
registered semiring — numeric, tropical, and symbolic/object-dtype
alike — ``repro.eval.evaluate`` must return *byte-identical* answer
maps to the tuple-at-a-time ``repro.queries.evaluation.evaluate_all``
on randomized small instances, including the join edge cases (empty
relations, repeated variables within one atom, constants,
inequalities, cross products).
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest

from repro.api import ContainmentEngine
from repro.data.instance import Instance
from repro.eval import ColumnarInstance, build_plan, evaluate
from repro.oracle import random_annotated_instance
from repro.queries.atoms import Atom, Var
from repro.queries.ccq import CQWithInequalities
from repro.queries.cq import CQ
from repro.queries.evaluation import evaluate_all
from repro.queries.parser import parse_cq, parse_ucq
from repro.queries.ucq import UCQ, as_ucq
from repro.semirings import ALL_SEMIRINGS, LUKASIEWICZ, N, TPLUS, WHY

X, Y, Z = Var("x"), Var("y"), Var("z")

#: A UCQ exercising joins, a self-join on one atom, and a unary member.
MIXED_UCQ = UCQ([
    CQ([X, Y], [Atom("R", (X, Z)), Atom("R", (Z, Y))]),
    CQ([X, X], [Atom("R", (X, X))]),
    CQ([X, Y], [Atom("R", (X, Y)), Atom("T", (Y,))]),
])


def _member(head, atoms) -> CQ:
    """A UCQ member with head constants, or with no body at all.

    ``CQ``'s constructor insists on variable heads and a non-empty
    body; evaluation plans do not, so these members are built past
    those checks.
    """
    return CQ._from_canonical(tuple(head),
                              tuple(sorted(atoms, key=Atom.sort_key)))


#: Head constants across members, on instances over ``range(3)``:
#: member 2's constant ``1`` is a value member 1 binds to ``y``, so
#: their rows merge into one answer; ``"absent"`` occurs in no instance;
#: the body-less member merges with member 3 whenever ``R(2, 2)`` holds.
CONSTANT_HEAD_UCQ = UCQ([
    CQ([X, Y], [Atom("R", (X, Y))]),
    _member([X, 1], [Atom("T", (X,))]),
    _member([X, "absent"], [Atom("R", (X, X))]),
    _member([2, "absent"], []),
])

#: Inequalities + a constant filter + a repeated-variable atom.
EDGE_CCQ = CQWithInequalities(
    [X, Y],
    [Atom("R", (X, Y)), Atom("S", (X, 7)), Atom("R", (Y, Y))],
    [(X, Y)],
)


def _agree(query, instance, semiring):
    """Assert value- and *type*-identical answers on one instance."""
    union = as_ucq(query)
    reference = evaluate_all(union, instance)
    columnar = evaluate(union, instance, semiring).to_dict()
    assert columnar == reference
    for head, value in reference.items():
        assert type(columnar[head]) is type(value), (head, value)


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS,
                         ids=[s.name for s in ALL_SEMIRINGS])
def test_columnar_matches_reference_every_semiring(semiring):
    """The headline property: byte-identity across all 23 semirings."""
    rng = random.Random(42)
    for trial in range(8):
        instance = random_annotated_instance(
            {"R": 2, "T": 1}, semiring, rng,
            domain_size=3, facts_per_relation=8)
        _agree(MIXED_UCQ, instance, semiring)
        _agree(CONSTANT_HEAD_UCQ, instance, semiring)


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS,
                         ids=[s.name for s in ALL_SEMIRINGS])
def test_columnar_matches_reference_edge_cases(semiring):
    """Constants, intra-atom repeats and inequalities, every semiring."""
    rng = random.Random(7)
    for trial in range(5):
        instance = random_annotated_instance(
            {"R": 2, "S": 2}, semiring, rng,
            domain_size=4, facts_per_relation=10)
        # Make the constant filter selective but satisfiable.
        support = dict(instance.support("S"))
        if support:
            row = next(iter(support))
            support[(row[0], 7)] = support[row]
        tables = {name: dict(instance.support(name))
                  for name in instance.relations()}
        tables["S"] = support
        instance = Instance(semiring, tables)
        _agree(EDGE_CCQ, instance, semiring)


def test_inequality_against_a_constant():
    """``y ≠ 'a'`` drops the rows binding ``y`` to ``'a'``; a constant
    the instance never holds drops nothing."""
    instance = Instance(N, {"R": {(1, "a"): 2, (1, "b"): 3, (2, 7): 4}})
    for constant in ("a", "absent", 7):
        query = CQWithInequalities([X], [Atom("R", (X, Y))], [(Y, constant)])
        _agree(query, instance, N)


def test_empty_and_missing_relations():
    query = parse_cq("Q(x, y) :- R(x, z), R(z, y)")
    empty = Instance(N, {"R": {}})
    assert evaluate(query, empty, N).to_dict() == {}
    missing = Instance(N, {"Other": {(1,): 2}})
    assert evaluate(query, missing, N).to_dict() == {}
    assert evaluate_all(query, missing) == {}


def test_cross_product_member():
    query = UCQ([CQ([X, Y], [Atom("R", (X,)), Atom("S", (Y,))])])
    instance = Instance(N, {"R": {(1,): 2, (2,): 3},
                            "S": {(5,): 4}})
    expected = evaluate_all(query, instance)
    assert expected == {(1, 5): 8, (2, 5): 12}
    assert evaluate(query, instance).to_dict() == expected


def test_zero_product_merges_before_the_zero_drop():
    """A member's ⊗-zero still merges; only the merged ⊕-zeros drop."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    instance = Instance(LUKASIEWICZ, {
        "R": {(1, 2): half, (3, 2): quarter},
        "S": {(2,): half},
        "T": {(1,): quarter},
    })
    # max(0, ½ + ½ − 1) = 0 at x = 1, and max(0, ¼ + ½ − 1) = 0 at x = 3.
    zero_member = CQ([X], [Atom("R", (X, Y)), Atom("S", (Y,))])
    assert evaluate(zero_member, instance).to_dict() == {}
    query = UCQ([zero_member, CQ([X], [Atom("T", (X,))])])
    expected = evaluate_all(query, instance)
    assert expected == {(1,): quarter}
    assert evaluate(query, instance).to_dict() == expected


def test_boolean_head_query():
    """A 0-ary head folds the whole support into one annotation."""
    query = UCQ([CQ([], [Atom("R", (X, Y))])])
    instance = Instance(N, {"R": {(1, 2): 3, (2, 2): 4}})
    assert evaluate_all(query, instance) == {(): 7}
    assert evaluate(query, instance).to_dict() == {(): 7}


def test_prebuilt_columnar_instance_reuse():
    instance = Instance(TPLUS, {"R": {(1, 2): 3, (2, 3): 5}})
    columnar = ColumnarInstance.from_instance(instance)
    query = parse_cq("Q(x, y) :- R(x, z), R(z, y)")
    assert evaluate(query, columnar).to_dict() == {(1, 3): 8}
    with pytest.raises(ValueError):
        evaluate(query, columnar, N)


def test_answer_table_views():
    instance = Instance(N, {"R": {(1, 2): 3}})
    table = evaluate(parse_cq("Q(x, y) :- R(x, y)"), instance)
    assert len(table) == 1
    assert list(table) == [((1, 2), 3)]
    assert "AnswerTable" in repr(table)


def _why(*witnesses: str) -> frozenset:
    """A Why element: one witness set per string of variable letters."""
    return frozenset(frozenset(witness) for witness in witnesses)


EDGES = {(1, 2): 3, (2, 3): 4, (2, 4): 5, (3, 1): 2, (4, 4): 6}
WHY_EDGES = {(1, 0): _why("yz"), (1, 1): _why("z", "y"), (0, 0): _why("z", "y")}

#: ``(query, semiring, relations, rows)``: each answer table's rows in
#: the grouping order the evaluator has always produced them in.
ROW_VIEW_CASES = [
    pytest.param(parse_cq("Q(x) :- R(x, y), R(y, z)"), N, {"R": EDGES},
                 [((1,), 27), ((2,), 38), ((3,), 6), ((4,), 36)],
                 id="projecting-join"),
    pytest.param(parse_cq("Q() :- R(x, y), R(y, z)"), N, {"R": EDGES},
                 [((), 107)], id="boolean"),
    pytest.param(parse_cq("Q(x, y) :- R(x, z), S(z, y)"), N, {"R": EDGES},
                 [], id="empty"),
    pytest.param(UCQ([_member([X, "fresh"], [Atom("R", (X, Y))]),
                      _member([X, 4], [Atom("R", (X, Y))])]),
                 N, {"R": EDGES},
                 [((1, 4), 3), ((1, "fresh"), 3), ((2, 4), 9),
                  ((2, "fresh"), 9), ((3, 4), 2), ((3, "fresh"), 2),
                  ((4, 4), 6), ((4, "fresh"), 6)], id="fresh-constant"),
    pytest.param(parse_ucq(["Q(x, y) :- R(x, y)", "Q(x, y) :- R(y, x)"]),
                 N, {"R": EDGES},
                 [((1, 2), 3), ((1, 3), 2), ((2, 1), 3), ((2, 3), 4),
                  ((2, 4), 5), ((3, 1), 2), ((3, 2), 4), ((4, 2), 5),
                  ((4, 4), 12)], id="two-member-ucq"),
    pytest.param(parse_cq("Q(x, z) :- R(x, y), R(y, z)"), WHY,
                 {"R": WHY_EDGES},
                 [((1, 1), _why("z", "yz", "y")), ((1, 0), _why("yz")),
                  ((0, 0), _why("z", "yz", "y"))], id="why"),
    pytest.param(parse_cq("Q(x, z) :- R(x, y), R(y, z)"), N,
                 {"R": {(1, 2): 2 ** 40, (2, 3): 2 ** 40, (3, 3): 2 ** 33}},
                 [((1, 3), 2 ** 80), ((2, 3), 2 ** 73), ((3, 3), 2 ** 66)],
                 id="n-overflow"),
]


@pytest.mark.parametrize("query, semiring, tables, expected",
                         ROW_VIEW_CASES)
def test_answer_rows_behave_like_the_row_list(query, semiring, tables,
                                              expected):
    """``AnswerTable.rows`` is a view over the decoded columns with the
    row list's order, length, iteration, indexing, ``==`` and ``repr``."""
    instance = Instance(semiring, tables)
    table = evaluate(query, instance)
    rows = table.rows
    listed = list(rows)
    assert listed == expected
    assert list(rows) == listed  # iteration is repeatable
    assert list(table) == listed
    assert len(rows) == len(table) == len(expected)
    assert rows == expected and expected == rows
    assert not rows != expected and not expected != rows
    assert rows != expected + [((), 0)] and expected + [((), 0)] != rows
    assert rows != tuple(expected)
    assert repr(rows) == repr(listed)
    for index in range(-len(expected), len(expected)):
        assert rows[index] == expected[index]
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            rows[index]
    for part in (slice(None), slice(1, None), slice(None, -1),
                 slice(None, None, -1), slice(0, None, 2), slice(5, 2)):
        assert type(rows[part]) is list
        assert rows[part] == expected[part]
    assert table.to_dict() == dict(expected) == evaluate_all(query, instance)


def test_walking_rows_keeps_no_per_answer_objects():
    """Evaluating a 10k-answer join and walking its rows once leaves
    O(1) new GC-tracked objects: each ``(head, annotation)`` pair dies
    as soon as the walk moves on."""
    rng = random.Random(5)
    instance = Instance(N, {
        "E": {(rng.randrange(150), rng.randrange(30)): rng.randrange(1, 9)
              for _ in range(1500)},
        "F": {(rng.randrange(30), rng.randrange(150)): rng.randrange(1, 9)
              for _ in range(1500)},
    })
    columnar = ColumnarInstance.from_instance(instance)
    query = parse_cq("Q(x, z) :- E(x, y), F(y, z)")
    engine = ContainmentEngine()
    assert len(evaluate(query, columnar, context=engine)) >= 10_000
    gc.disable()
    try:
        before = len(gc.get_objects())
        table = evaluate(query, columnar, context=engine)
        walked = sum(1 for _ in table.rows)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert walked == len(table) >= 10_000
    assert grown < 100, grown


#: Domain values the decode must hand back unchanged: tuples (one value
#: each, never spread over an object array) and strings.
MIXED_VALUE_ROWS = {(("a", 1), "s"): 2, ("s", ("b", (2, 3))): 3,
                    (("b", (2, 3)), ("a", 1)): 5, ("t", "s"): 7}
#: ``1`` and ``True`` in different rows: the interner gives them one id.
CONFLATED_ROWS = {(1, "s"): 11, (True, ("a", 1)): 13, ("t", True): 17}


@pytest.mark.parametrize("semiring", [N, WHY], ids=["N", "Why"])
def test_decode_keeps_tuple_string_and_conflated_values(semiring):
    rng = random.Random(3)
    base = random_annotated_instance({"R": 2}, semiring, rng,
                                     domain_size=2, facts_per_relation=5)
    values = list(dict(base.support("R")).values())

    def instance(rows):
        return Instance(semiring, {"R": {
            row: values[index % len(values)]
            for index, row in enumerate(rows)}})

    mixed = instance(MIXED_VALUE_ROWS)
    conflated = instance({**MIXED_VALUE_ROWS, **CONFLATED_ROWS})
    for text in ("Q(x, y) :- R(x, y)", "Q(x, z) :- R(x, y), R(y, z)",
                 "Q(y) :- R(x, y)"):
        query = parse_cq(text)
        reference = evaluate_all(query, mixed)
        assert reference, text
        columnar = evaluate(query, mixed).to_dict()
        assert columnar == reference
        assert sorted(map(repr, columnar)) == sorted(map(repr, reference))
        # Conflated values decode to the first one interned, which is
        # ``==`` to (not always the same object as) the reference's.
        assert evaluate(query, conflated).to_dict() == \
            evaluate_all(query, conflated)


def test_decode_head_constants_the_instance_never_interned():
    """Fresh head constants (a tuple among them) decode past the
    interner's ids, and the interner itself stays untouched."""
    instance = Instance(N, {"R": {(1, ("a", 1)): 2, (2, 3): 4}})
    columnar = ColumnarInstance.from_instance(instance)
    query = UCQ([_member([X, "fresh"], [Atom("R", (X, Y))]),
                 _member([("t", 2), Y], [Atom("R", (X, Y))]),
                 _member([X, 3], [Atom("R", (X, Y))])])
    expected = evaluate_all(query, instance)
    assert (("t", 2), ("a", 1)) in expected
    assert evaluate(query, columnar).to_dict() == expected
    assert columnar.interner.lookup("fresh") is None
    assert len(columnar.interner) == 4


@pytest.mark.parametrize("semiring", [N, TPLUS, WHY],
                         ids=["N", "T+", "Why"])
def test_one_member_union_equals_the_cq_and_a_doubled_union(semiring):
    """A lone member skips the union-level regroup; two identical
    members go through it.  All three answer maps are the reference's."""
    rng = random.Random(11)
    cq = parse_cq("Q(x, z) :- R(x, y), R(y, z)")
    for trial in range(4):
        instance = random_annotated_instance(
            {"R": 2}, semiring, rng, domain_size=4, facts_per_relation=10)
        answers = evaluate(cq, instance).to_dict()
        assert answers == evaluate_all(cq, instance)
        assert evaluate(UCQ([cq]), instance).to_dict() == answers
        doubled = UCQ([cq, cq])
        assert evaluate(doubled, instance).to_dict() == \
            evaluate_all(doubled, instance)


def test_plan_rejects_unsafe_queries():
    with pytest.raises(ValueError):
        build_plan(CQ([X, Y], [Atom("R", (X,))]))  # y unbound in head
    with pytest.raises(ValueError):
        build_plan(CQWithInequalities([X], [Atom("R", (X,))], [(X, Y)]))


def test_engine_evaluate_and_plan_cache_stats():
    engine = ContainmentEngine()
    instance = Instance(TPLUS, {"R": {(1, 2): 3, (2, 3): 5}})
    text = "Q(x, y) :- R(x, z), R(z, y)"
    first = engine.evaluate(text, instance)
    second = engine.evaluate(text, instance, "T+")
    assert first.to_dict() == second.to_dict() == {(1, 3): 8}
    # Convention: ``calls`` counts actual plan builds, ``hits`` recalls.
    layers = engine.cache_stats()["layers"]["eval_plans"]
    assert layers["calls"] == 1
    assert layers["hits"] == 1
    assert layers["entries"] == 1
    assert layers["hit_ratio"] == 0.5
    assert engine.stats.evaluations == 2


def test_eval_plans_snapshot_round_trip(tmp_path):
    from repro.service.snapshot import load_snapshot, save_snapshot

    warm = ContainmentEngine()
    instance = Instance(N, {"R": {(1, 2): 3}})
    warm.evaluate("Q(x, y) :- R(x, y)", instance)
    path = tmp_path / "warm.snapshot"
    sizes = save_snapshot(warm, path)
    assert sizes["eval_plans"] == 1

    cold = ContainmentEngine()
    restored = load_snapshot(cold, path)
    assert restored["eval_plans"] == 1
    cold.evaluate("Q(x, y) :- R(x, y)", instance)
    layers = cold.cache_stats()["layers"]["eval_plans"]
    assert layers["hits"] == 1 and layers["calls"] == 0
