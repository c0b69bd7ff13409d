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
through fancy indexing and the kernel set's ``mul`` — and is built from
sorting primitives: multi-column keys are packed into a single int64
per row (progressively re-densified so the key space never overflows),
matches are found with ``searchsorted`` against the sorted distinct
left keys, and one-to-many matches are expanded with the
``repeat``/``arange`` trick instead of any Python-level loop.

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
           "run_plan"]

#: Packed join keys are re-densified before they could exceed this.
_KEY_LIMIT = 2 ** 62


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), …`` concatenated — the arange-per-group trick."""
    total = int(counts.sum())
    if not total:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts,
                                                        counts)


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

    Per key column the two sides are densified *together*, so equal
    values get equal codes across sides — a per-side :func:`pack_rows`
    would not line up.
    """
    left_count = len(left_columns[0])
    left_key = np.zeros(left_count, dtype=np.int64)
    right_key = np.zeros(len(right_columns[0]), dtype=np.int64)
    cardinality = 1
    for left_column, right_column in zip(left_columns, right_columns):
        combined = np.concatenate([left_column, right_column])
        uniques, codes = np.unique(combined, return_inverse=True)
        width = max(len(uniques), 1)
        if cardinality * width >= _KEY_LIMIT:
            combined_keys = np.concatenate([left_key, right_key])
            dense, rekeyed = np.unique(combined_keys, return_inverse=True)
            left_key = rekeyed[:left_count]
            right_key = rekeyed[left_count:]
            cardinality = max(len(dense), 1)
        left_key = left_key * width + codes[:left_count]
        right_key = right_key * width + codes[left_count:]
        cardinality *= width
    return left_key, right_key


def join_indices(left_key: np.ndarray, right_key: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """All matching ``(left_row, right_row)`` pairs of an equi-join."""
    empty = np.zeros(0, dtype=np.int64)
    if not len(left_key) or not len(right_key):
        return empty, empty
    order = np.argsort(left_key, kind="stable")
    sorted_left = left_key[order]
    uniques, starts = np.unique(sorted_left, return_index=True)
    counts = np.diff(np.append(starts, len(sorted_left)))
    positions = np.searchsorted(uniques, right_key)
    positions = np.minimum(positions, len(uniques) - 1)
    matched = uniques[positions] == right_key
    groups = positions[matched]
    match_counts = counts[groups]
    right_rows = np.repeat(np.nonzero(matched)[0], match_counts)
    offsets = np.repeat(starts[groups], match_counts) + _ranges(match_counts)
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
        elif step.join_vars:
            left_key, right_key = pack_pairs(
                [frontier.columns[var] for var in step.join_vars],
                [columns[var] for var in step.join_vars])
            left_rows, right_rows = join_indices(left_key, right_key)
            merged = {var: column[left_rows]
                      for var, column in frontier.columns.items()}
            for var in step.new_vars:
                merged[var] = columns[var][right_rows]
            frontier = Frontier(
                merged, ops.mul(frontier.annotations[left_rows],
                                annotations[right_rows]))
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
