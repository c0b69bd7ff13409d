"""Kernel dispatch: columnar ⊕/⊗ for *every* registered semiring.

Numeric semirings declare exact dtype kernels through
:meth:`repro.semirings.base.Semiring.vectorized_ops`
(see :mod:`repro.semirings._vectorized`).  Everything else — Why/Lin
frozensets, provenance polynomials, ``Fraction``-valued Viterbi/fuzzy
semirings (floats would break byte-identical agreement), product
semirings — runs on :class:`GenericObjectOps`: object-dtype columns
whose element-wise operations call the scalar semiring through
``np.frompyfunc`` and whose segment fold replays exactly the
first-value-then-``add`` accumulation of
:func:`repro.queries.evaluation.evaluate_all`.

:func:`ops_for` is the single dispatch point.  A declared kernel that
*refuses* an actual payload (``OverflowError`` — ``N`` counts beyond
int64) is demoted to the generic path: at encode time by
:meth:`repro.eval.columns.ColumnarInstance.from_instance`, at run time
by :func:`repro.eval.engine.evaluate`.  Exactness never depends on the
dtype fast path being applicable.
"""

from __future__ import annotations

import functools
from typing import Any, Sequence

import numpy as np

from ..semirings.base import Semiring, VectorizedOps

__all__ = ["GenericObjectOps", "object_array", "ops_for"]


def object_array(values: Sequence[Any]) -> np.ndarray:
    """``values`` as a 1-d object array, one element per value (a tuple
    stays one element, it is not broadcast)."""
    return np.fromiter(values, dtype=object, count=len(values))


class GenericObjectOps(VectorizedOps):
    """Object-dtype fallback kernels: scalar semiring ops, element-wise.

    Works for every semiring by construction — ``encode`` stores the
    normalized Python elements themselves, so ``decode`` is the
    identity and agreement with the tuple-at-a-time evaluator is
    trivial.  Throughput is bounded by the Python-level operations, but
    the join machinery around it (interning, hashing, expansion) is
    still vectorized.
    """

    dtype = None

    def __init__(self, semiring: Semiring):
        self.semiring = semiring
        self._add = np.frompyfunc(semiring.add, 2, 1)
        self._mul = np.frompyfunc(semiring.mul, 2, 1)

    def encode(self, values: Sequence[Any]) -> np.ndarray:
        return object_array(values)

    def decode(self, array: np.ndarray) -> list:
        return list(array)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._add(a, b)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._mul(a, b)

    def segment_add(self, values: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
        add = self.semiring.add
        items = values.tolist()
        bounds = starts.tolist() + [len(items)]
        return object_array([
            functools.reduce(add, items[begin:end])
            for begin, end in zip(bounds, bounds[1:])])


def ops_for(semiring: Semiring) -> VectorizedOps:
    """The columnar kernels for ``semiring``.

    Prefers the semiring's declared exact dtype kernels and falls back
    to :class:`GenericObjectOps`.  A declared kernel may still raise
    ``OverflowError`` on real payloads; the retry on
    :class:`GenericObjectOps` happens in one place per stage —
    :meth:`~repro.eval.columns.ColumnarInstance.from_instance` for
    encoding, the :func:`repro.eval.engine.evaluate` entry for the run.
    """
    declared = semiring.vectorized_ops()
    if declared is not None:
        return declared
    return GenericObjectOps(semiring)
