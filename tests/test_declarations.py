"""The semiring and cache-layer declarations check themselves.

A ``Semiring`` subclass with an incoherent ``poly_order`` fails when
the class is defined, an incomplete ``VectorizedOps`` kernel cannot be
instantiated, and whether a semiring's polynomial order is decidable
is derived from its class.  The cache-layer registry
(``repro.api.layers``) is checked against the engine and the snapshot
module it drives.
"""

from __future__ import annotations

import pytest

from repro.api.engine import ContainmentEngine, _LRU
from repro.api.layers import CACHE_LAYERS, SNAPSHOT_LAYERS
from repro.semirings import ALL_SEMIRINGS
from repro.semirings.base import Semiring, VectorizedOps
from repro.service import snapshot
from repro.service.snapshot import read_snapshot, save_snapshot

#: Semirings without a polynomial-order decision procedure.
_NO_POLY_ORDER = {"L", "Trio[X]", "Ssur[X]", "N", "Lin[X]×N_2", "R+"}


# -- semirings -----------------------------------------------------------


def test_unknown_poly_order_kind_fails_at_class_definition():
    with pytest.raises(TypeError, match="mid-plus"):
        class TypoSemiring(Semiring):  # noqa: F841 - defining is the test
            poly_order = "mid-plus"


def test_poly_order_kind_without_poly_leq_fails_at_class_definition():
    with pytest.raises(TypeError, match="poly_leq"):
        class UndecidedSemiring(Semiring):  # noqa: F841
            poly_order = "min-plus"


def test_incomplete_kernel_cannot_be_instantiated():
    class HalfOps(VectorizedOps):
        def encode(self, values): ...
        def decode(self, array): ...
        def add(self, a, b): ...
        def mul(self, a, b): ...

    with pytest.raises(TypeError, match="segment_add"):
        HalfOps()


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS,
                         ids=lambda semiring: semiring.name)
def test_vectorized_ops_is_a_kernel_or_none(semiring):
    ops = semiring.vectorized_ops()
    assert ops is None or isinstance(ops, VectorizedOps)


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS,
                         ids=lambda semiring: semiring.name)
def test_poly_order_decidable_is_derived_from_poly_leq(semiring):
    assert semiring.poly_order_decidable == (
        semiring.name not in _NO_POLY_ORDER)


# -- cache layers --------------------------------------------------------


def test_cache_layer_names_and_attrs_are_unique():
    names = [layer.name for layer in CACHE_LAYERS]
    attrs = [layer.attr for layer in CACHE_LAYERS]
    assert len(set(names)) == len(names)
    assert len(set(attrs)) == len(attrs)


def test_every_engine_store_is_a_registered_layer():
    engine = ContainmentEngine()
    stores = {attr for attr, value in vars(engine).items()
              if isinstance(value, _LRU)}
    registered = {layer.attr for layer in CACHE_LAYERS}
    assert stores <= registered
    assert all(hasattr(engine, attr) for attr in registered)


def test_snapshot_layers_match_the_registry(tmp_path):
    assert snapshot._LAYERS is SNAPSHOT_LAYERS
    engine = ContainmentEngine()
    engine.decide("Q() :- R(x, y)", "Q() :- R(x, x)", "B")
    path = tmp_path / "engine.snap"
    assert set(save_snapshot(engine, path)) == set(SNAPSHOT_LAYERS)
    assert tuple(read_snapshot(path)) == SNAPSHOT_LAYERS
