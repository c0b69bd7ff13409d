"""Concrete :class:`~repro.semirings.base.VectorizedOps` kernels.

This module is the only semiring-side code that imports numpy, and it
is only imported lazily from the ``vectorized_ops()`` hooks — the rest
of the semiring package stays importable without numpy installed.

Exactness is the whole point: the columnar evaluator promises answers
byte-identical to the tuple-at-a-time fold, so each kernel either
computes the same normalized Python values the scalar operations would,
or refuses.  Refusal is spelled ``OverflowError`` from :meth:`encode`
(or from an arithmetic kernel that detects int64 wraparound); the
column store (at encode time) and the evaluator's entry (at run time)
catch it and fall back to the generic object-array path.  Silent
wraparound never reaches an answer.

Covered semirings:

``N``
    int64 columns.  Addition guards ``a + b < a`` (non-negative domain)
    and multiplication guards the classic ``r // b != a`` check; segment
    sums pre-check ``max · count`` against 2**63.
``N_k``
    int64 columns.  Saturating folds are exact because
    ``min(min(a+b,k)+c, k) == min(a+b+c, k)``: the kernel clips the
    *true* sum once, so segment aggregation is a plain sum + clip.
``T+`` / ``T−``
    float64 columns — elements are small non-negative ints plus the
    semiring's infinity, and ⊗ is integer addition, so every value stays
    far below 2**53 where float64 arithmetic is exact.  Decode restores
    ``int`` for finite values and ``math.inf``/``-math.inf`` otherwise,
    through one int64 cast and one masked assignment.
``B``
    bool columns; ``|`` / ``&`` / ``logical_or.reduceat``.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from .base import VectorizedOps

__all__ = ["BooleanOps", "NaturalOps", "SaturatingNaturalOps",
           "TropicalMaxPlusOps", "TropicalMinPlusOps"]

#: Finite tropical costs must stay exactly representable (and leave
#: headroom for segment sums) in float64.
_TROPICAL_LIMIT = 2 ** 52


class NaturalOps(VectorizedOps):
    """Exact int64 kernels for bag semantics ``N``."""

    dtype = np.int64

    def encode(self, values: Sequence[Any]) -> np.ndarray:
        # np.asarray raises OverflowError itself for ints beyond int64.
        return np.asarray(list(values), dtype=np.int64)

    def decode(self, array: np.ndarray) -> list:
        return array.tolist()

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        result = a + b
        if result.size and bool(np.any(result < a)):
            raise OverflowError("int64 overflow in N addition")
        return result

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        result = a * b
        nonzero = b != 0
        if result.size and bool(np.any(result[nonzero] // b[nonzero]
                                       != a[nonzero])):
            raise OverflowError("int64 overflow in N multiplication")
        return result

    def segment_add(self, values: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
        if not starts.size:
            return np.zeros(0, dtype=np.int64)
        if int(values.max()) * values.size >= 2 ** 63:
            raise OverflowError("int64 overflow risk in N segment sum")
        return np.add.reduceat(values, starts)


class SaturatingNaturalOps(VectorizedOps):
    """int64 kernels for the saturating semirings ``N_k``."""

    dtype = np.int64

    def __init__(self, cap: int):
        self.cap = cap

    def encode(self, values: Sequence[Any]) -> np.ndarray:
        array = np.asarray(list(values), dtype=np.int64)
        if array.size and (int(array.min()) < 0
                           or int(array.max()) > self.cap):
            raise OverflowError(f"values outside N_{self.cap} range")
        return array

    def decode(self, array: np.ndarray) -> list:
        return array.tolist()

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a, b ≤ cap so the true sum cannot overflow int64.
        return np.minimum(a + b, self.cap)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.minimum(a * b, self.cap)

    def segment_add(self, values: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
        if not starts.size:
            return np.zeros(0, dtype=np.int64)
        # min(min(a+b,k)+c, k) == min(a+b+c, k): clip the true sum once.
        if self.cap * values.size >= 2 ** 63:
            raise OverflowError(
                f"int64 overflow risk in N_{self.cap} segment sum")
        return np.minimum(np.add.reduceat(values, starts), self.cap)


class _TropicalOps(VectorizedOps):
    """Shared float64 machinery for the two tropical semirings."""

    dtype = np.float64

    #: The semiring's additive identity (``math.inf`` or ``-math.inf``).
    infinity: float

    def encode(self, values: Sequence[Any]) -> np.ndarray:
        encoded = []
        for value in values:
            if value == self.infinity:
                encoded.append(self.infinity)
                continue
            number = int(value)
            if number != value or not -_TROPICAL_LIMIT < number < \
                    _TROPICAL_LIMIT:
                raise OverflowError(
                    f"tropical cost {value!r} is not an exactly "
                    "representable integer")
            encoded.append(float(number))
        return np.asarray(encoded, dtype=np.float64)

    def decode(self, array: np.ndarray) -> list:
        infinite = np.isinf(array)
        values = np.where(infinite, 0, array).astype(np.int64).astype(object)
        values[infinite] = self.infinity
        return values.tolist()

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # ⊗ is numeric addition in both tropical semirings.
        result = a + b
        if result.size and bool(np.any(np.isfinite(result)
                                       & (np.abs(result) >= 2 ** 53))):
            raise OverflowError("tropical cost left the float64-exact "
                                "integer range")
        return result


class TropicalMinPlusOps(_TropicalOps):
    """Kernels for ``T+`` (min-plus, ``∞`` is the zero)."""

    infinity = math.inf

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.minimum(a, b)

    def segment_add(self, values: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
        if not starts.size:
            return np.zeros(0, dtype=np.float64)
        return np.minimum.reduceat(values, starts)


class TropicalMaxPlusOps(_TropicalOps):
    """Kernels for ``T−`` (max-plus, ``−∞`` is the zero)."""

    infinity = -math.inf

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.maximum(a, b)

    def segment_add(self, values: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
        if not starts.size:
            return np.zeros(0, dtype=np.float64)
        return np.maximum.reduceat(values, starts)


class BooleanOps(VectorizedOps):
    """Kernels for set semantics ``B``."""

    dtype = np.bool_

    def encode(self, values: Sequence[Any]) -> np.ndarray:
        return np.asarray([bool(value) for value in values],
                          dtype=np.bool_)

    def decode(self, array: np.ndarray) -> list:
        return array.tolist()

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a | b

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a & b

    def segment_add(self, values: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
        if not starts.size:
            return np.zeros(0, dtype=np.bool_)
        return np.logical_or.reduceat(values, starts)
