"""Columnar storage of K-instances.

An :class:`Instance` stores a K-relation as a dict from tuples to
annotations — the right shape for point lookups and incremental
construction, the wrong one for scanning a million rows.  This module
transposes: a :class:`ColumnarRelation` holds one int64 array per
attribute position (domain values interned to dense ids) plus one
annotation column encoded by the semiring's
:class:`~repro.semirings.base.VectorizedOps` kernels (object dtype on
the generic fallback path).

Interning uses a plain dict, so it conflates exactly the values Python
dict keys conflate (``1``/``True``, ``1``/``1.0``) — deliberately: the
dict-backed :class:`Instance` already merges such rows at construction,
and the columnar evaluator must reproduce the reference evaluator's
equality semantics bit for bit.

Annotation encoding is *optimistic*: the semiring's declared dtype
kernels are tried first, and an ``OverflowError`` from any relation's
``encode`` (counts beyond int64, tropical costs outside the
float64-exact range) demotes the whole instance to
:class:`~repro.eval.kernels.GenericObjectOps` — correctness never
depends on the fast path being applicable.  An overflow that only
shows while evaluating is demoted by :func:`repro.eval.engine.evaluate`
through :meth:`ColumnarInstance.generic`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..data.instance import Instance
from ..semirings.base import Semiring, VectorizedOps
from .kernels import GenericObjectOps, object_array, ops_for

__all__ = ["ColumnarInstance", "ColumnarRelation", "ValueInterner"]


class ValueInterner:
    """Bidirectional map between domain values and dense int ids."""

    __slots__ = ("_ids", "by_id", "_table")

    def __init__(self):
        self._ids: dict[Any, int] = {}
        #: The interned values, indexed by id (read it, never mutate it).
        self.by_id: list[Any] = []
        self._table: np.ndarray | None = None

    def intern(self, value: Any) -> int:
        """The id of ``value``, allocating one on first sight."""
        found = self._ids.get(value)
        if found is None:
            found = len(self.by_id)
            self._ids[value] = found
            self.by_id.append(value)
        return found

    def lookup(self, value: Any) -> int | None:
        """The id of ``value``, or ``None`` if it was never interned."""
        return self._ids.get(value)

    def value(self, ident: int) -> Any:
        """The value behind an id."""
        return self.by_id[ident]

    def table(self) -> np.ndarray:
        """:attr:`by_id` as an object array, so an id column decodes with
        one take (built on first use, rebuilt after new interning)."""
        if self._table is None or len(self._table) != len(self.by_id):
            self._table = object_array(self.by_id)
        return self._table

    def __len__(self) -> int:
        return len(self.by_id)


class ColumnarRelation:
    """One K-relation as columns: ``arity`` id arrays + annotations."""

    __slots__ = ("name", "arity", "columns", "annotations", "row_count")

    def __init__(self, name: str, arity: int,
                 columns: tuple[np.ndarray, ...],
                 annotations: np.ndarray):
        self.name = name
        self.arity = arity
        self.columns = columns
        self.annotations = annotations
        self.row_count = len(annotations)


class ColumnarInstance:
    """A K-instance transposed into columns, ready for the executor.

    ``semiring`` is the *evaluation* semiring (defaults to the
    instance's own), ``ops`` the kernel set actually in use, and
    ``interner`` the shared domain dictionary across all relations.
    """

    __slots__ = ("semiring", "ops", "interner", "relations")

    def __init__(self, semiring: Semiring, ops: VectorizedOps,
                 interner: ValueInterner,
                 relations: dict[str, ColumnarRelation]):
        self.semiring = semiring
        self.ops = ops
        self.interner = interner
        self.relations = relations

    @classmethod
    def from_instance(cls, instance: Instance,
                      semiring: Semiring | None = None
                      ) -> "ColumnarInstance":
        """Transpose ``instance``; see the module docstring for the
        kernel-demotion contract."""
        semiring = semiring or instance.semiring
        interner = ValueInterner()
        raw: dict[str, tuple[int, list[list[int]], list[Any]]] = {}
        for name in instance.relations():
            arity = instance.arity(name)
            id_columns: list[list[int]] = [[] for _ in range(arity)]
            annotations: list[Any] = []
            for row, annotation in instance.support(name):
                for position, value in enumerate(row):
                    id_columns[position].append(interner.intern(value))
                annotations.append(annotation)
            raw[name] = (arity, id_columns, annotations)
        ops = ops_for(semiring)
        for attempt_ops in (ops, GenericObjectOps(semiring)):
            try:
                relations = {
                    name: ColumnarRelation(
                        name, arity,
                        tuple(np.asarray(column, dtype=np.int64)
                              for column in id_columns),
                        attempt_ops.encode(annotations),
                    )
                    for name, (arity, id_columns, annotations) in raw.items()
                }
                return cls(semiring, attempt_ops, interner, relations)
            except OverflowError:
                if isinstance(attempt_ops, GenericObjectOps):
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def generic(self) -> "ColumnarInstance":
        """This instance on :class:`GenericObjectOps`: the same id
        columns, the annotation columns decoded and re-encoded as exact
        Python objects (the run-time demotion of
        :func:`repro.eval.engine.evaluate`)."""
        ops = GenericObjectOps(self.semiring)
        relations = {
            name: ColumnarRelation(
                name, relation.arity, relation.columns,
                ops.encode(self.ops.decode(relation.annotations)))
            for name, relation in self.relations.items()
        }
        return ColumnarInstance(self.semiring, ops, self.interner, relations)
