"""The semiring and cache-layer declarations check themselves.

A ``Semiring`` subclass with an incoherent ``poly_order`` fails when
the class is defined, an incomplete ``VectorizedOps`` kernel cannot be
instantiated, and whether a semiring's polynomial order is decidable
is derived from its class.  The cache-layer registry
(``repro.api.layers``) is checked against the engine and the snapshot
module it drives: one workload fills every layer, a snapshot restores
every entry, every ``_memo`` key is the argument list of its compute
function, and a pickle may restore only through a ``repro`` class.
"""

from __future__ import annotations

import io
import json
import pickle

import pytest

from repro.api.engine import ContainmentEngine, _LRU
from repro.api.layers import CACHE_LAYERS, SNAPSHOT_LAYERS
from repro.cli import main
from repro.data import Instance
from repro.homomorphisms.search import HomKind
from repro.polynomials import Polynomial, canonical_pair
from repro.queries.ccq import complete_description
from repro.queries.parser import parse_cq
from repro.queries.ucq import UCQ
from repro.semirings import ALL_SEMIRINGS, TPLUS, B
from repro.semirings.base import Semiring, VectorizedOps
from repro.service import snapshot
from repro.service.snapshot import (SnapshotError, load_snapshot,
                                    read_snapshot, save_snapshot)

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


#: One pair per layer family: ``B`` (homomorphism search), the lineage
#: semiring ``Lin[X]`` (homomorphic covering), a rigid-free ``N`` UCQ
#: pair (homomorphism kernels, complete descriptions and canonical
#: forms) and ``T+`` (tropical order certificates).
_FILLING_PAIRS = (
    ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)", "B"),
    ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)", "Lin[X]"),
    (["Q() :- R(v), S(v)"], ["Q() :- R(v)", "Q() :- S(v)"], "N"),
    ("Q() :- R(v), S(v)", ["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"],
     "T+"),
)


def _fill_every_layer(engine: ContainmentEngine) -> list[str]:
    """Decide :data:`_FILLING_PAIRS` and evaluate one query; returns
    the verdict documents and the answer rows as text."""
    out = [json.dumps(engine.decide(q1, q2, semiring).to_dict(),
                      ensure_ascii=False)
           for q1, q2, semiring in _FILLING_PAIRS]
    instance = Instance.from_facts(engine.semiring("N"), [
        ("R", ("a", "b"), 2), ("R", ("b", "c"), 3)])
    table = engine.evaluate("Q(x) :- R(x, y), R(y, z)", instance)
    out.append(repr(table.rows))
    return out


def _entries(engine: ContainmentEngine) -> dict[str, int]:
    info = engine.cache_info()
    return {layer.name: info[layer.entries] for layer in CACHE_LAYERS}


def test_one_workload_fills_and_restores_every_layer(tmp_path):
    cold = ContainmentEngine()
    answers = _fill_every_layer(cold)
    entries = _entries(cold)
    assert all(entries.values()), entries
    path = tmp_path / "engine.snap"
    save_snapshot(cold, path)
    restored = ContainmentEngine()
    load_snapshot(restored, path)
    assert _entries(restored) == entries
    # Replay on the structural layers alone: without recalled verdicts
    # every primitive must still come from the restored caches.
    replayed = ContainmentEngine()
    load_snapshot(replayed, path, include_verdicts=False)
    assert _fill_every_layer(replayed) == answers
    info = replayed.cache_info()
    calls = {layer.calls: info[layer.calls] for layer in CACHE_LAYERS
             if layer.calls is not None}
    assert calls == dict.fromkeys(calls, 0)
    assert info["poly_hits"] > 0 and info["poly_rejected"] == 0


_Q1 = parse_cq("Q() :- R(x, y)")
_Q2 = parse_cq("Q() :- R(u, v), R(v, w)")
#: A ``T+`` pair that ``canonical_pair`` renames.
_P1 = Polynomial.parse_terms([(1, "yy")])
_P2 = Polynomial.parse_terms([(1, "y")])

#: ``layer → (engine method, its arguments)`` for every layer that
#: fills through ``ContainmentEngine._memo``.
_MEMO_CALLS = {
    "classifications": ("classification", (B,)),
    "parsed": ("parse", ("Q() :- R(x, y)",)),
    "homs": ("find_homomorphism", (_Q1, _Q2, HomKind.PLAIN)),
    "kernels": ("hom_kernels", (_Q1, _Q2, HomKind.PLAIN, 2)),
    "covered": ("covered_atoms", (_Q1, _Q2)),
    "descriptions": ("complete_description", (UCQ([_Q2]), ())),
    "canonical": ("canonical_form", (_Q2,)),
    "small_models": ("small_model_pairs", (UCQ([_Q1]), UCQ([_Q2]))),
    "probes": ("tagged_probes", (UCQ([_Q2]), UCQ([_Q1]))),
    "eval_plans": ("eval_plan", (parse_cq("Q(x) :- R(x, y)"),)),
    "poly_orders": ("poly_leq", (TPLUS, _P1, _P2)),
}

#: The stored key where the engine method passes ``_memo`` other
#: arguments than its own: ``poly_leq`` passes the order kind and the
#: canonical pair.
_MEMO_KEYS = {
    "poly_orders": ("min-plus", *canonical_pair(_P1, _P2)[:2]),
}


def test_every_memo_layer_has_a_key_case():
    assert set(_MEMO_CALLS) == {layer.name for layer in CACHE_LAYERS} \
        - {"verdicts"}


@pytest.mark.parametrize("layer", sorted(_MEMO_CALLS))
def test_memo_key_is_the_argument_list(layer):
    engine = ContainmentEngine()
    method, args = _MEMO_CALLS[layer]
    getattr(engine, method)(*args)
    [spec] = [spec for spec in CACHE_LAYERS if spec.name == layer]
    keys = [key for key, _ in getattr(engine, spec.attr).items()]
    assert keys == [_MEMO_KEYS.get(
        layer, args[0] if len(args) == 1 else args)]


def test_a_checked_layer_names_its_check_and_its_counter():
    from repro.api import engine as api_engine

    for layer in CACHE_LAYERS:
        assert (layer.check is None) == (layer.rejected is None), layer
        assert layer.check is None or callable(
            getattr(api_engine, layer.check)), layer


def test_memo_passes_exactly_its_key_arguments():
    engine = ContainmentEngine()
    seen = []

    def compute(*args):
        seen.append(args)
        return None  # a cacheable value like any other

    assert engine._memo("homs", compute, _Q1, _Q2, HomKind.PLAIN) is None
    assert engine._memo("homs", compute, _Q1, _Q2, HomKind.PLAIN) is None
    assert engine._memo("parsed", compute, "text") is None
    assert seen == [(_Q1, _Q2, HomKind.PLAIN), ("text",)]
    assert (_Q1, _Q2, HomKind.PLAIN) in engine._homs
    assert "text" in engine._parsed
    assert (engine.stats.hom_calls, engine.stats.hom_hits) == (1, 1)


class _RecordingUnpickler(pickle.Unpickler):
    """Records every global a pickle resolves."""

    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data))
        self.resolved = []

    def find_class(self, module, name):
        obj = super().find_class(module, name)
        self.resolved.append(obj)
        return obj


def test_queries_restore_through_their_class_only():
    query = parse_cq("Q(x) :- R(x, y), R(x, z), S(z)")
    ccq = complete_description(query)[1]  # y, z apart, and from x
    assert ccq.inequalities
    for original in (query, ccq):
        unpickler = _RecordingUnpickler(
            pickle.dumps(original, protocol=pickle.HIGHEST_PROTOCOL))
        restored = unpickler.load()
        assert type(original) in unpickler.resolved
        assert all(isinstance(obj, type) for obj in unpickler.resolved)
        assert type(restored) is type(original)
        assert restored == original
        assert hash(restored) == hash(original)
        assert restored._hom_cache == {}


def _global_payload(module: str, name: str) -> bytes:
    """A protocol-2 pickle that calls ``module.name()`` (GLOBAL, REDUCE)."""
    return (b"\x80\x02c" + f"{module}\n{name}\n".encode()
            + b")R.")


@pytest.mark.parametrize("module, name, message", [
    # The retired restore hook of snapshot version 1: gone from the
    # package, so the reference cannot resolve at all.
    ("repro.queries.cq", "_restore_cq", "corrupted snapshot"),
    # A function that exists: the unpickler resolves classes only.
    ("repro.queries.ccq", "complete_description",
     "disallowed type repro.queries.ccq.complete_description"),
])
def test_a_pickled_function_reference_is_rejected(tmp_path, module, name,
                                                  message):
    path = tmp_path / "function.snap"
    path.write_bytes(_global_payload(module, name))
    with pytest.raises(SnapshotError, match=message):
        read_snapshot(path)
    engine = ContainmentEngine()
    with pytest.raises(SnapshotError, match=message):
        load_snapshot(engine, path)
    assert not any(_entries(engine).values())


def test_batch_starts_cold_on_a_rejected_snapshot(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text(json.dumps(
        {"semiring": "B", "q1": "Q() :- R(x, y)", "q2": "Q() :- R(x, x)"})
        + "\n", encoding="utf-8")
    cold = tmp_path / "cold.jsonl"
    assert main(["batch", "--input", str(requests),
                 "--output", str(cold)]) == 0
    path = tmp_path / "function.snap"
    path.write_bytes(_global_payload("repro.queries.cq", "_restore_cq"))
    warm = tmp_path / "warm.jsonl"
    capsys.readouterr()
    assert main(["batch", "--input", str(requests), "--output", str(warm),
                 "--snapshot", str(path)]) == 0
    assert "starting cold" in capsys.readouterr().err
    assert warm.read_bytes() == cold.read_bytes()
