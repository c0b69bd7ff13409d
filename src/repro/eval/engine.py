"""Columnar UCQ evaluation: plans + joins + kernels, end to end.

:func:`evaluate` is the columnar counterpart of
:func:`repro.queries.evaluation.evaluate_all` and is contractually
**byte-identical** to it: same answer tuples, same normalized
annotation values, for every registered semiring (the randomized
cross-validation suite in ``tests/test_eval_engine.py`` enforces this).
The correspondence, member by member:

* every support-hitting valuation of a CQ appears as exactly one
  frontier row of :func:`repro.eval.join.run_plan` (the joins range
  over the support, as the backtracking search does);
* the row's ⊗-annotation is the product over the plan's atom steps —
  commutative and canonical, so the different multiplication order
  does not show;
* head grouping + ``segment_add`` replays the per-head ⊕-accumulation,
  UCQ members merge into one answer map, and ⊕-zeros are dropped only
  at the very end (zero *products* flow through joins, exactly like
  the reference keeps them until its final filter).

Plan lookups go through the supplied
:class:`~repro.core.context.DecisionContext` — the default memoizes
process-wide, a :class:`~repro.api.engine.ContainmentEngine` (itself a
context) routes into its snapshot-persisted ``eval_plans`` LRU.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from ..core.context import DEFAULT_CONTEXT, DecisionContext
from ..data.instance import Instance
from ..queries.atoms import is_var
from ..queries.cq import CQ
from ..queries.ucq import UCQ
from ..semirings.base import Semiring
from .columns import ColumnarInstance
from .join import pack_rows, run_plan

__all__ = ["AnswerTable", "evaluate"]


class AnswerTable:
    """The K-annotated answer relation of one evaluation.

    Rows are ``(head_tuple, annotation)`` pairs with non-zero
    annotations, in a deterministic (grouping) order; :meth:`to_dict`
    gives the exact shape of
    :func:`repro.queries.evaluation.evaluate_all` for comparisons.
    """

    __slots__ = ("semiring", "arity", "rows")

    def __init__(self, semiring: Semiring, arity: int,
                 rows: list[tuple[tuple, Any]]):
        self.semiring = semiring
        self.arity = arity
        self.rows = rows

    def to_dict(self) -> dict[tuple, Any]:
        """``head tuple → annotation`` (the reference evaluator's shape)."""
        return dict(self.rows)

    def __iter__(self) -> Iterator[tuple[tuple, Any]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<AnswerTable arity={self.arity} rows={len(self.rows)} "
                f"semiring={self.semiring.name}>")


def _member_answers(cq: CQ, columnar: ColumnarInstance,
                    context: DecisionContext) -> list[tuple[tuple, Any]]:
    """One CQ member's aggregated ``(head, annotation)`` pairs.

    Zeros are *not* dropped here — members merge first, the union-level
    filter runs last, mirroring the reference.
    """
    plan = context.eval_plan(cq)
    ops = columnar.ops
    if not plan.steps:
        # The empty conjunction has exactly one (empty) valuation.
        return [(tuple(plan.head), columnar.semiring.one)]
    frontier = run_plan(plan, columnar)
    if frontier is None:
        return []
    var_columns = [frontier.columns[term] for term in plan.head
                   if is_var(term)]
    key = pack_rows(var_columns, frontier.row_count)
    _, representatives, group_ids = np.unique(
        key, return_index=True, return_inverse=True)
    aggregated = ops.decode(ops.segment_add(
        frontier.annotations, group_ids.astype(np.int64),
        len(representatives)))
    decoded_columns = [
        columnar.interner.values(column[representatives])
        for column in var_columns
    ]
    answers = []
    for group, annotation in enumerate(aggregated):
        variable_values = iter(
            column[group] for column in decoded_columns)
        head = tuple(next(variable_values) if is_var(term) else term
                     for term in plan.head)
        answers.append((head, annotation))
    return answers


def evaluate(query, instance: Instance | ColumnarInstance,
             semiring: Semiring | None = None, *,
             context: DecisionContext = DEFAULT_CONTEXT) -> AnswerTable:
    """Evaluate a CQ or UCQ columnar-ly; all non-zero answers.

    ``instance`` may be a plain :class:`Instance` (transposed on the
    fly) or a pre-built :class:`ColumnarInstance` for repeated
    evaluations over the same data.  ``semiring`` defaults to the
    instance's; passing one that differs from a pre-built columnar
    instance's is an error (the annotation columns are already encoded
    for a specific kernel set).
    """
    if isinstance(instance, ColumnarInstance):
        if semiring is not None and semiring is not instance.semiring:
            raise ValueError(
                "pre-built ColumnarInstance is encoded for "
                f"{instance.semiring.name}, not {semiring.name}")
        columnar = instance
    else:
        columnar = ColumnarInstance.from_instance(instance, semiring)
    semiring = columnar.semiring
    if isinstance(query, CQ):
        members: tuple[CQ, ...] = (query,)
        arity = query.arity
    elif isinstance(query, UCQ):
        members = query.cqs
        arity = query.arity if len(query) else 0
    else:
        raise TypeError(f"expected CQ or UCQ, got {type(query).__name__}")
    answers: dict[tuple, Any] = {}
    for cq in members:
        for head, value in _member_answers(cq, columnar, context):
            if head in answers:
                answers[head] = semiring.add(answers[head], value)
            else:
                answers[head] = value
    rows = [(head, value) for head, value in answers.items()
            if not semiring.is_zero(value)]
    return AnswerTable(semiring, arity, rows)
