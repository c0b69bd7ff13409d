"""Vectorized hash joins over columnar K-relations.

The executor runs an :class:`~repro.eval.plan.EvalPlan` step by step,
maintaining a *frontier*: one int64 id column per bound variable plus
the running ⊗-annotation column.  Each step filters its relation by
constants and intra-atom repeated variables, equi-joins the result
against the frontier on the shared variables (cross product when there
are none — the planner makes that a last resort), multiplies
annotations, and applies the inequality filters that just became fully
bound.

Join machinery is semiring-independent — annotations only ever flow
through fancy indexing and the kernel set's ``mul`` — and counts
instead of sorting: every key column holds dense interned ids, so
multi-column keys pack into a single non-negative int64 per row by id
width (progressively re-densified so the key space never overflows),
the left side's keys index a CSR table (``bincount`` + ``cumsum``) that
the right side probes directly, and one-to-many matches are expanded
with the ``repeat``/``arange`` trick instead of any Python-level loop.

Zero annotations are *kept* through the pipeline: the support carries
no ⊕-zeros, but ⊗ may produce them (Łukasiewicz), and the reference
evaluator only drops zeros from the final answer map — parity requires
doing the same.
"""

from __future__ import annotations

import numpy as np

from ..queries.atoms import Var, is_var
from .columns import ColumnarInstance
from .plan import EvalPlan

__all__ = ["Frontier", "join_indices", "pack_pairs", "pack_rows",
           "run_plan", "stable_order"]

#: Packed join keys are re-densified before they could exceed this.
_KEY_LIMIT = 2 ** 62
#: :func:`join_indices` counts over the key space directly while it is
#: at most this many times the rows of both sides (so its count table
#: stays a few words per row).
_DENSE_FACTOR = 4


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), …`` concatenated — the arange-per-group trick."""
    total = int(counts.sum())
    if not total:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts,
                                                        counts)


def stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for non-negative keys.

    Keys below 2**48 sort in 16-bit digits, least significant first:
    numpy's stable sort of a 16-bit key is a radix sort.
    """
    high = int(key.max()) if len(key) else 0
    if high >= 2 ** 48:
        return np.argsort(key, kind="stable")
    order = np.arange(len(key))
    for shift in range(0, high.bit_length(), 16):
        digit = (key[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def pack_rows(columns: list[np.ndarray], row_count: int) -> np.ndarray:
    """One int64 key per row; keys are equal iff the rows are equal.

    The columns hold non-negative ids, so each one widens the key by
    its maximum plus one; no per-column sort is needed.
    """
    key = np.zeros(row_count, dtype=np.int64)
    if not row_count:
        return key
    cardinality = 1
    for column in columns:
        width = int(column.max()) + 1
        if cardinality * width >= _KEY_LIMIT:
            dense, key = np.unique(key, return_inverse=True)
            cardinality = max(len(dense), 1)
        key = key * width + column
        cardinality *= width
    return key


def pack_pairs(left_columns: list[np.ndarray],
               right_columns: list[np.ndarray]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Consistent join keys for both sides of an equi-join.

    The two sides are packed *together* (one :func:`pack_rows` over
    their concatenation), so equal rows get equal keys across sides.
    """
    left_count = len(left_columns[0])
    key = pack_rows([np.concatenate(pair)
                     for pair in zip(left_columns, right_columns)],
                    left_count + len(right_columns[0]))
    return key[:left_count], key[left_count:]


def join_indices(left_key: np.ndarray, right_key: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """All matching ``(left_row, right_row)`` pairs of an equi-join.

    Keys must be non-negative (packed ids).  Pairs come ordered by right
    row, then by left row.  A key space wider than
    ``_DENSE_FACTOR`` times the rows is densified once first.
    """
    empty = np.zeros(0, dtype=np.int64)
    left_count = len(left_key)
    if not left_count or not len(right_key):
        return empty, empty
    size = int(max(left_key.max(), right_key.max())) + 1
    if size > _DENSE_FACTOR * (left_count + len(right_key)):
        uniques, dense = np.unique(np.concatenate([left_key, right_key]),
                                   return_inverse=True)
        left_key, right_key = dense[:left_count], dense[left_count:]
        size = len(uniques)
    counts = np.bincount(left_key, minlength=size)
    starts = np.cumsum(counts) - counts
    order = stable_order(left_key)
    match_counts = counts[right_key]
    right_rows = np.repeat(np.arange(len(right_key), dtype=np.int64),
                           match_counts)
    offsets = (np.repeat(starts[right_key], match_counts)
               + _ranges(match_counts))
    return order[offsets], right_rows


def cross_indices(left_count: int, right_count: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of the full cross product."""
    left_rows = np.repeat(np.arange(left_count, dtype=np.int64),
                          right_count)
    right_rows = np.tile(np.arange(right_count, dtype=np.int64),
                         left_count)
    return left_rows, right_rows


class Frontier:
    """The executor's intermediate table."""

    __slots__ = ("columns", "annotations", "row_count")

    def __init__(self, columns: dict[Var, np.ndarray],
                 annotations: np.ndarray):
        self.columns = columns
        self.annotations = annotations
        self.row_count = len(annotations)

    def select(self, keep: np.ndarray) -> "Frontier":
        """The sub-frontier of the rows selected by a boolean mask."""
        return Frontier({var: column[keep]
                         for var, column in self.columns.items()},
                        self.annotations[keep])


def _filtered_relation(step, relation, interner):
    """Apply const/dup filters; ``(columns per out var, annotations)``.

    Returns ``None`` when a constant was never interned — no row can
    match, the member evaluates to the empty table.
    """
    keep = None
    for position, constant in step.const_filters:
        ident = interner.lookup(constant)
        if ident is None:
            return None
        mask = relation.columns[position] == ident
        keep = mask if keep is None else keep & mask
    for later, first in step.dup_filters:
        mask = relation.columns[later] == relation.columns[first]
        keep = mask if keep is None else keep & mask
    if keep is None:
        columns = {var: relation.columns[position]
                   for var, position in step.out_vars}
        return columns, relation.annotations
    rows = np.nonzero(keep)[0]
    columns = {var: relation.columns[position][rows]
               for var, position in step.out_vars}
    return columns, relation.annotations[rows]


def run_plan(plan: EvalPlan, instance: ColumnarInstance) -> Frontier | None:
    """Execute ``plan``; ``None`` means the answer table is empty.

    The returned frontier has one id column per query variable and the
    un-aggregated ⊗-annotation per surviving valuation; head grouping
    and the final ⊕-fold are the engine's job.
    """
    ops = instance.ops
    frontier: Frontier | None = None
    for step in plan.steps:
        relation = instance.relations.get(step.relation)
        if relation is None or relation.arity != step.arity:
            return None
        filtered = _filtered_relation(step, relation, instance.interner)
        if filtered is None:
            return None
        columns, annotations = filtered
        if frontier is None:
            frontier = Frontier(dict(columns), annotations)
        else:
            if step.join_vars:
                left_rows, right_rows = join_indices(*pack_pairs(
                    [frontier.columns[var] for var in step.join_vars],
                    [columns[var] for var in step.join_vars]))
            else:
                left_rows, right_rows = cross_indices(frontier.row_count,
                                                      len(annotations))
            merged = {var: column[left_rows]
                      for var, column in frontier.columns.items()}
            for var in step.new_vars:
                merged[var] = columns[var][right_rows]
            frontier = Frontier(
                merged, ops.mul(frontier.annotations[left_rows],
                                annotations[right_rows]))
        for x, y in step.ineq_checks:
            if is_var(y):
                frontier = frontier.select(
                    frontier.columns[x] != frontier.columns[y])
            elif (ident := instance.interner.lookup(y)) is not None:
                frontier = frontier.select(frontier.columns[x] != ident)
        if not frontier.row_count:
            return None
    return frontier
