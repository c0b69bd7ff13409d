"""Unit tests for the columnar storage and kernel layers.

The evaluator's end-to-end agreement is pinned in
``tests/test_eval_engine.py``; here the building blocks are checked in
isolation — interning semantics, dtype selection and demotion, exact
saturating/tropical kernels, and the join primitives.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import ContainmentEngine
from repro.data.instance import Instance
from repro.eval import evaluate
from repro.eval.columns import ColumnarInstance, ValueInterner
from repro.eval.join import (_DENSE_FACTOR, _KEY_LIMIT, join_indices,
                             pack_pairs, pack_rows, stable_order)
from repro.eval.kernels import GenericObjectOps, ops_for
from repro.queries.evaluation import evaluate_all
from repro.queries.parser import parse_cq
from repro.semirings import (B, N, N2_SATURATING, N3_SATURATING, TMINUS,
                             TPLUS, VITERBI, WHY)


# -- interning ----------------------------------------------------------


def test_interner_round_trip():
    interner = ValueInterner()
    values = ["a", 7, ("x", 1), "a", 7]
    idents = [interner.intern(value) for value in values]
    assert idents == [0, 1, 2, 0, 1]
    assert [interner.value(ident) for ident in idents[:3]] == \
        ["a", 7, ("x", 1)]
    assert interner.lookup("never") is None
    assert len(interner) == 3
    assert interner.by_id == ["a", 7, ("x", 1)]


def test_interner_conflates_like_dict_keys():
    """``1``/``True`` must merge, because Instance's dict rows do."""
    interner = ValueInterner()
    assert interner.intern(1) == interner.intern(True)
    assert interner.intern(0) == interner.intern(False)


# -- dtype selection and demotion ---------------------------------------


def test_numeric_semirings_get_dtype_kernels():
    assert ops_for(N).dtype == np.int64
    assert ops_for(N2_SATURATING).dtype == np.int64
    assert ops_for(TPLUS).dtype == np.float64
    assert ops_for(TMINUS).dtype == np.float64
    assert ops_for(B).dtype == np.bool_


def test_symbolic_semirings_fall_back_to_objects():
    assert isinstance(ops_for(WHY), GenericObjectOps)
    # Viterbi weights are Fractions: float64 would break byte-identity.
    assert isinstance(ops_for(VITERBI), GenericObjectOps)


def test_overflowing_counts_demote_to_generic():
    huge = 2 ** 80
    instance = Instance(N, {"R": {(1,): huge, (2,): 3}})
    columnar = ColumnarInstance.from_instance(instance)
    assert isinstance(columnar.ops, GenericObjectOps)
    assert sorted(columnar.ops.decode(
        columnar.relations["R"].annotations)) == [3, huge]


#: Payloads that encode into int64 but overflow while evaluating: a
#: product past 2**63, and a segment sum past it.
RUN_TIME_OVERFLOWS = [
    pytest.param("Q(x, z) :- E(x, y), F(y, z)",
                 {"E": {(1, 2): 2 ** 40}, "F": {(2, 3): 2 ** 40}},
                 {(1, 3): 2 ** 80}, id="product"),
    pytest.param("Q() :- E(x, y)",
                 {"E": {(i, 0): 2 ** 61 for i in range(8)}},
                 {(): 2 ** 64}, id="segment-sum"),
]


@pytest.mark.parametrize("text, tables, expected", RUN_TIME_OVERFLOWS)
def test_run_time_overflow_demotes_to_generic(text, tables, expected):
    query = parse_cq(text)
    instance = Instance(N, tables)
    columnar = ColumnarInstance.from_instance(instance)
    assert columnar.ops.dtype == np.int64  # encoding still fits
    reference = evaluate_all(query, instance)
    assert reference == expected
    for answers in (evaluate(query, columnar).to_dict(),
                    ContainmentEngine().evaluate(text, instance).to_dict()):
        assert answers == reference
        assert all(type(value) is int for value in answers.values())
    # The caller's pre-built instance keeps its dtype kernels.
    assert columnar.ops.dtype == np.int64


def test_columnar_instance_encodes_annotations_exactly():
    # math.inf is T+'s ⊕-zero: Instance drops that fact at construction,
    # so only the finite costs reach the column store.
    instance = Instance(TPLUS, {"R": {(1,): 3, (2,): math.inf, (3,): 0}})
    columnar = ColumnarInstance.from_instance(instance)
    decoded = columnar.ops.decode(columnar.relations["R"].annotations)
    assert sorted(decoded) == [0, 3]
    assert all(type(value) is int for value in decoded)


# -- exact kernels ------------------------------------------------------


def test_natural_kernels_guard_overflow():
    ops = ops_for(N)
    near = np.asarray([2 ** 62], dtype=np.int64)
    with pytest.raises(OverflowError):
        ops.add(near, near)
    with pytest.raises(OverflowError):
        ops.mul(near, near)
    with pytest.raises(OverflowError):
        ops.encode([2 ** 70])


def test_saturating_kernels_clip_exactly():
    ops = ops_for(N3_SATURATING)
    a = ops.encode([0, 1, 2, 3])
    assert ops.add(a, a).tolist() == [0, 2, 3, 3]
    assert ops.mul(a, a).tolist() == [0, 1, 3, 3]
    # Segment fold: clip-once-of-true-sum equals the iterated clip.
    values = ops.encode([2, 2, 2, 1])
    starts = np.asarray([0, 2], dtype=np.int64)
    folded = ops.segment_add(values, starts).tolist()
    assert folded == [3, 3]
    iterated = N3_SATURATING.add(N3_SATURATING.add(2, 2), 2)
    assert N3_SATURATING.add(2, 2) == folded[0] and iterated == 3


def test_tropical_kernels_restore_int_types():
    ops = ops_for(TPLUS)
    encoded = ops.encode([3, math.inf, 0])
    decoded = ops.decode(encoded)
    assert decoded == [3, math.inf, 0]
    assert type(decoded[0]) is int and type(decoded[1]) is float
    starts = np.asarray([0, 2], dtype=np.int64)
    assert ops.segment_add(encoded, starts).tolist() == [3.0, 0.0]


def test_boolean_kernels():
    ops = ops_for(B)
    a = ops.encode([True, False, True])
    b = ops.encode([False, False, True])
    assert ops.add(a, b).tolist() == [True, False, True]
    assert ops.mul(a, b).tolist() == [False, False, True]
    starts = np.asarray([0, 2], dtype=np.int64)
    assert ops.segment_add(b, starts).tolist() == [False, True]
    assert all(type(value) is bool for value in ops.decode(a))


def test_generic_segment_add_replays_reference_accumulation():
    import random

    rng = random.Random(0)
    ops = GenericObjectOps(WHY)
    values = [WHY.sample(rng) for _ in range(4)]
    encoded = ops.encode(values)
    starts = np.asarray([0, 3], dtype=np.int64)
    folded = ops.decode(ops.segment_add(encoded, starts))
    assert folded[0] == WHY.add(WHY.add(values[0], values[1]), values[2])
    assert folded[1] == values[3]
    # The fold order itself: the first value, then ``add`` left to right.
    spelled = GenericObjectOps(WHY)
    spelled.semiring = SimpleNamespace(add=lambda a, b: f"({a}+{b})")
    assert spelled.decode(spelled.segment_add(
        spelled.encode(["a", "b", "c", "d"]), starts)) == ["((a+b)+c)", "d"]


# -- join primitives ----------------------------------------------------


def test_pack_rows_keys_equal_iff_rows_equal():
    columns = [np.asarray([1, 1, 2, 1], dtype=np.int64),
               np.asarray([5, 5, 5, 6], dtype=np.int64)]
    key = pack_rows(columns, 4)
    assert key[0] == key[1]
    assert len({int(key[0]), int(key[2]), int(key[3])}) == 3


def test_pack_pairs_is_consistent_across_sides():
    left = [np.asarray([10, 20, 30], dtype=np.int64)]
    right = [np.asarray([30, 10, 40], dtype=np.int64)]
    left_key, right_key = pack_pairs(left, right)
    assert left_key[0] == right_key[1]
    assert left_key[2] == right_key[0]
    assert right_key[2] not in set(left_key.tolist())


def _nested_loop(left, right):
    """The join pairs by right row, then by left row."""
    return [(i, j) for j, rv in enumerate(right) for i, lv in enumerate(left)
            if lv == rv]


def _join_pairs(left, right):
    li, ri = join_indices(np.asarray(left, dtype=np.int64),
                          np.asarray(right, dtype=np.int64))
    assert li.dtype == ri.dtype == np.int64
    return list(zip(li.tolist(), ri.tolist()))


def test_join_indices_match_nested_loop():
    left, right = [1, 2, 2, 3], [2, 3, 4, 2]
    assert _join_pairs(left, right) == \
        [(1, 0), (2, 0), (3, 1), (1, 3), (2, 3)]
    assert _join_pairs(left, right) == _nested_loop(left, right)


@pytest.mark.parametrize("seed", range(6))
def test_join_indices_order_matches_nested_loop_on_random_keys(seed):
    """Duplicates on both sides, ids ``0`` and the largest id, and both
    the direct count and the densify step, in the exact pair order."""
    rng = np.random.default_rng(seed)
    top = int(rng.integers(1, 40))
    for high in (top, 2 ** 40, np.iinfo(np.int64).max):
        left = rng.integers(0, top + 1, 30).tolist() + [0, 0, top]
        right = rng.integers(0, top + 1, 25).tolist() + [top, 0, top]
        if high != top:  # spread the ids over a sparse key space
            spread = {key: key * (high // top) for key in range(top)}
            spread[top] = high
            left = [spread[key] for key in left]
            right = [spread[key] for key in right]
            assert high > _DENSE_FACTOR * (len(left) + len(right))
        rng.shuffle(left)
        rng.shuffle(right)
        assert _join_pairs(left, right) == _nested_loop(left, right)
        # The largest id on the right side only matches nothing.
        below = [key for key in left if key != max(right)]
        assert _join_pairs(below, right) == _nested_loop(below, right)


def test_pack_pairs_three_columns_past_the_key_limit():
    """Three 2**21-wide columns overflow ``_KEY_LIMIT``: the packed key
    is re-densified mid-way and still joins exactly like the rows."""
    rng = np.random.default_rng(5)
    width = 2 ** 21
    assert width ** 3 >= _KEY_LIMIT
    pool = rng.integers(0, width, (6, 3))
    pool[0] = width - 1
    pool[1] = 0
    left_rows = pool[rng.integers(0, 6, 40)]
    right_rows = pool[rng.integers(0, 6, 30)]
    left_key, right_key = pack_pairs(list(left_rows.T), list(right_rows.T))
    left = [tuple(row) for row in left_rows.tolist()]
    right = [tuple(row) for row in right_rows.tolist()]
    assert _join_pairs(left_key, right_key) == _nested_loop(left, right)


@pytest.mark.parametrize("high", [1, 2 ** 16, 2 ** 16 + 1, 2 ** 40,
                                  2 ** 48 + 1])
def test_stable_order_is_a_stable_argsort(high):
    keys = np.random.default_rng(high).integers(0, high, 500)
    assert stable_order(keys).tolist() == \
        np.argsort(keys, kind="stable").tolist()


def test_join_indices_empty_sides():
    empty = np.zeros(0, dtype=np.int64)
    some = np.asarray([1, 2], dtype=np.int64)
    for left, right in ((empty, some), (some, empty), (empty, empty)):
        li, ri = join_indices(left, right)
        assert len(li) == 0 and len(ri) == 0
