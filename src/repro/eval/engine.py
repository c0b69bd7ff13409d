"""Columnar UCQ evaluation: plans + joins + kernels, end to end.

:func:`evaluate` is the columnar counterpart of
:func:`repro.queries.evaluation.evaluate_all`: its answer map is
``==`` to the reference's, with the same normalized annotation values
and types, for every registered semiring (the randomized
cross-validation suite in ``tests/test_eval_engine.py`` enforces this).
It is repr-identical too unless dict-equal values of different types
(``1``, ``True``, ``1.0``) sit in different rows: the interner gives
them one id, which decodes to the value interned first
(``test_decode_keeps_tuple_string_and_conflated_values`` pins this).
The correspondence, member by member:

* every support-hitting valuation of a CQ appears as exactly one
  frontier row of :func:`repro.eval.join.run_plan` (the joins range
  over the support, as the backtracking search does);
* the row's ⊗-annotation is the product over the plan's atom steps —
  commutative and canonical, so the different multiplication order
  does not show;
* head grouping + ``segment_add`` replays the per-head ⊕-accumulation:
  each member groups its frontier rows by their head id columns (a
  head constant is one more id, fresh past the interner's if the
  instance never saw it); when two or more members have rows, those
  rows are concatenated in member order and grouped once more, so the
  cross-member ⊕ is a single ``segment_add`` too (a lone member's rows
  are already one per head);
* ⊕-zeros are dropped only after that merge, by one mask over the
  encoded column (zero *products* flow through joins, exactly like
  the reference keeps them until its final filter), and only the
  surviving rows are decoded: into one value list per head position
  and one annotation list, which :class:`AnswerRows` pairs up as
  they are walked.

Everything stays in int64 id space and encoded annotation columns
until that last step, for CQs and UCQs alike.  A dtype kernel that
overflows at run time demotes the whole evaluation to
:class:`~repro.eval.kernels.GenericObjectOps` at the :func:`evaluate`
entry, as an overflow at encode time demotes the whole instance.

Plan lookups go through the supplied
:class:`~repro.core.context.DecisionContext`: a
:class:`~repro.api.engine.ContainmentEngine` (itself a context) routes
them into its snapshot-persisted ``eval_plans`` LRU, and
:func:`evaluate` without one plans on a fresh engine.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from typing import Any, Iterator

import numpy as np

from ..core.context import DecisionContext, resolve_context
from ..data.instance import Instance
from ..queries.atoms import is_var
from ..queries.cq import CQ
from ..queries.ucq import UCQ
from ..semirings.base import Semiring, VectorizedOps
from .columns import ColumnarInstance
from .join import pack_rows, run_plan, stable_order
from .kernels import GenericObjectOps, object_array

__all__ = ["AnswerRows", "AnswerTable", "evaluate"]


class AnswerRows(Sequence):
    """Read-only ``(head_tuple, annotation)`` rows over decoded columns.

    Holds one list of decoded values per head position and the list of
    annotations; each pair is built only as a consumer walks it, so no
    per-answer tuple outlives its use.  Behaves like the list of those
    pairs: ``len``, repeatable iteration, ``int`` and ``slice``
    indexing (a slice is a list), ``==`` with a list and ``repr``.
    """

    __slots__ = ("_heads", "_annotations")

    def __init__(self, heads: list[list], annotations: list):
        self._heads = heads
        self._annotations = annotations

    def __len__(self) -> int:
        return len(self._annotations)

    def __iter__(self) -> Iterator[tuple[tuple, Any]]:
        heads = (zip(*self._heads) if self._heads
                 else repeat((), len(self._annotations)))
        return zip(heads, self._annotations)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(AnswerRows([column[index] for column in self._heads],
                                   self._annotations[index]))
        annotation = self._annotations[index]
        return tuple(column[index] for column in self._heads), annotation

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, AnswerRows)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # unhashable, as a list

    def __repr__(self) -> str:
        return repr(list(self))


class AnswerTable:
    """The K-annotated answer relation of one evaluation.

    :attr:`rows` is an :class:`AnswerRows` view of ``(head_tuple,
    annotation)`` pairs with non-zero annotations, in a deterministic
    (grouping) order, built pair by pair from the decoded head columns;
    :meth:`to_dict` gives the exact shape of
    :func:`repro.queries.evaluation.evaluate_all` for comparisons.
    """

    __slots__ = ("semiring", "arity", "rows")

    def __init__(self, semiring: Semiring, arity: int,
                 heads: list[list], annotations: list):
        self.semiring = semiring
        self.arity = arity
        self.rows = AnswerRows(heads, annotations)

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


def _group(head_columns: list[np.ndarray], values: np.ndarray,
           ops: VectorizedOps) -> tuple[list[np.ndarray], np.ndarray]:
    """One row per distinct head: representative id columns + ⊕-folds.

    A stable sort keeps each head's rows in their original order, so
    the object path's ``segment_add`` replays the reference's
    first-value-then-``add`` accumulation.
    """
    keys = pack_rows(head_columns, len(values))
    order = stable_order(keys)
    sorted_keys = keys[order]
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    folded = ops.segment_add(values[order], starts)
    representatives = order[starts]
    return [column[representatives] for column in head_columns], folded


def _member_answers(cq: CQ, columnar: ColumnarInstance, constant_ids: dict,
                    *, context: DecisionContext
                    ) -> tuple[list[np.ndarray], np.ndarray] | None:
    """One CQ member's answers, still in id space.

    Returns one int64 id column per head position (a head constant
    contributes a constant column of its id from ``constant_ids``) with
    one row per distinct head, plus the encoded ⊕-fold per row.  ``None``
    means the member has no valuation.  Zeros are *not* dropped here —
    members merge first, the union-level mask runs last, mirroring the
    reference.
    """
    plan = context.eval_plan(cq)
    if plan.steps:
        frontier = run_plan(plan, columnar)
        if frontier is None:
            return None
        columns = frontier.columns
        annotations = frontier.annotations
    else:
        # The empty conjunction has exactly one (empty) valuation.
        columns = {}
        annotations = columnar.ops.encode([columnar.semiring.one])
    head_columns = [
        np.full(len(annotations), constant_ids[term], dtype=np.int64)
        if term in constant_ids else columns[term]
        for term in plan.head
    ]
    return _group(head_columns, annotations, columnar.ops)


def _nonzero(values: np.ndarray, columnar: ColumnarInstance) -> np.ndarray:
    """Mask of the encoded annotations that are not the ⊕-zero."""
    semiring = columnar.semiring
    if columnar.ops.dtype is None:
        # Object elements: the semiring's own test decides (a
        # ProductSemiring compares componentwise through its ``eq``).
        is_zero = np.frompyfunc(semiring.is_zero, 1, 1)
        return ~is_zero(values).astype(bool)
    return values != columnar.ops.encode([semiring.zero])[0]


def _answers(members: tuple[CQ, ...], columnar: ColumnarInstance, *,
             context: DecisionContext) -> tuple[list[list], list]:
    """The non-zero answers of a union of members, column by column.

    Returns one list of decoded values per head position and the list
    of decoded annotations, row-aligned; :class:`AnswerRows` pairs them
    up on demand.
    """
    interner = columnar.interner
    # Head constants join the id space.  One the instance never interned
    # gets a fresh id past the interner's, which stays untouched.
    constant_ids: dict[Any, int] = {}
    fresh: list[Any] = []
    for cq in members:
        for term in cq.head:
            if not is_var(term) and term not in constant_ids:
                ident = interner.lookup(term)
                if ident is None:
                    ident = len(interner) + len(fresh)
                    fresh.append(term)
                constant_ids[term] = ident
    parts = [part for part in (
        _member_answers(cq, columnar, constant_ids, context=context)
        for cq in members) if part is not None]
    if not parts:
        return [], []
    if len(parts) == 1:
        head_columns, values = parts[0]
    else:
        head_columns = [np.concatenate(column)
                        for column in zip(*(heads for heads, _ in parts))]
        values = np.concatenate([folded for _, folded in parts])
        head_columns, values = _group(head_columns, values, columnar.ops)
    keep = _nonzero(values, columnar)
    table = interner.table()
    if fresh:
        table = np.concatenate([table, object_array(fresh)])
    decoded = [table[column[keep]].tolist() for column in head_columns]
    return decoded, columnar.ops.decode(values[keep])


def evaluate(query, instance: Instance | ColumnarInstance,
             semiring: Semiring | None = None, *,
             context: DecisionContext | None = None) -> AnswerTable:
    """Evaluate a CQ or UCQ columnar-ly; all non-zero answers.

    ``instance`` may be a plain :class:`Instance` (transposed on the
    fly) or a pre-built :class:`ColumnarInstance` for repeated
    evaluations over the same data.  ``semiring`` defaults to the
    instance's; passing one that differs from a pre-built columnar
    instance's is an error (the annotation columns are already encoded
    for a specific kernel set).

    A dtype kernel that overflows at run time (an ``N`` product or
    segment sum beyond int64) demotes the evaluation to
    :class:`~repro.eval.kernels.GenericObjectOps`: the annotation
    columns are decoded, re-encoded as exact Python objects and the
    query is run again.  ``context`` supplies the plans (``None``: a
    fresh engine).
    """
    context = resolve_context(context)
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
    try:
        heads, annotations = _answers(members, columnar, context=context)
    except OverflowError:
        if isinstance(columnar.ops, GenericObjectOps):
            raise
        heads, annotations = _answers(members, columnar.generic(),
                                      context=context)
    return AnswerTable(semiring, arity, heads, annotations)
