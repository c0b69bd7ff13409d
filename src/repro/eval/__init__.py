"""Columnar evaluation of UCQs over annotated instances.

The subsystem splits along the obvious seams — :mod:`~repro.eval.plan`
(static join plans, numpy-free, engine-cacheable),
:mod:`~repro.eval.columns` (K-relations transposed into interned id
columns plus an encoded annotation column),
:mod:`~repro.eval.kernels` (per-semiring ⊕/⊗ kernel dispatch with a
generic object-array fallback), :mod:`~repro.eval.join` (vectorized
hash joins) and :mod:`~repro.eval.engine` (the ``evaluate`` entry
point, ``==`` to the tuple-at-a-time reference evaluator and
repr-identical to it unless dict-equal values of different types such
as ``1`` and ``True`` sit in different rows, which decode to the value
interned first).
"""

from .columns import ColumnarInstance, ColumnarRelation, ValueInterner
from .engine import AnswerTable, evaluate
from .kernels import GenericObjectOps, ops_for
from .plan import AtomStep, EvalPlan, build_plan

__all__ = [
    "AnswerTable",
    "AtomStep",
    "ColumnarInstance",
    "ColumnarRelation",
    "EvalPlan",
    "GenericObjectOps",
    "ValueInterner",
    "build_plan",
    "evaluate",
    "ops_for",
]
