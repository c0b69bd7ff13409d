"""Warm-start snapshots: round trips, rejection, layer policies."""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.api import ContainmentEngine
from repro.service import (SNAPSHOT_MAGIC, SNAPSHOT_VERSION, SnapshotError,
                           load_snapshot, merge_states, read_snapshot,
                           save_snapshot, write_snapshot)
from tests.test_description_classes import chain, clique

WORKLOAD = [
    ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)", "B"),
    ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)", "Lin[X]"),
    ("Q() :- R(u, v)", "Q() :- R(u, v), R(u, v)", "N"),
    (["Q() :- R(v), S(v)"], ["Q() :- R(v)", "Q() :- S(v)"], "N[X]"),
    ("Q() :- E(x, y), E(y, z)", "Q() :- E(u, v), E(v, u)", "T+"),
]


def run_workload(engine: ContainmentEngine):
    return [engine.decide(q1, q2, semiring).to_dict()
            for q1, q2, semiring in WORKLOAD]


def entry_counts(engine: ContainmentEngine) -> dict[str, int]:
    info = engine.cache_info()
    return {key: value for key, value in info.items()
            if key.endswith("_entries")}


def test_round_trip_restores_every_cache_layer(tmp_path):
    path = tmp_path / "caches.snap"
    warmed = ContainmentEngine()
    baseline = run_workload(warmed)
    save_snapshot(warmed, path)

    restored = ContainmentEngine()
    counts = load_snapshot(restored, path)
    assert counts["verdicts"] == len(WORKLOAD)
    # The restored engine holds exactly the same cache population …
    assert entry_counts(restored) == entry_counts(warmed)
    assert restored.export_caches() == warmed.export_caches()
    # … and replaying the workload shows identical hit behavior: every
    # verdict is served from the verdict cache, no primitive recomputes.
    docs = run_workload(restored)
    stats = restored.stats
    assert stats.verdict_hits == len(WORKLOAD)
    assert stats.parse_calls == 0
    assert stats.classify_calls == 0
    assert stats.hom_calls == 0
    assert stats.cover_calls == 0
    assert stats.description_calls == 0
    for cold_doc, warm_doc in zip(baseline, docs):
        assert warm_doc["cached"] is True
        assert {k: v for k, v in warm_doc.items() if k != "cached"} \
            == {k: v for k, v in cold_doc.items() if k != "cached"}


def test_structural_snapshot_keeps_documents_byte_identical(tmp_path):
    path = tmp_path / "structural.snap"
    warmed = ContainmentEngine()
    baseline = run_workload(warmed)
    save_snapshot(warmed, path, include_verdicts=False)

    restored = ContainmentEngine()
    counts = load_snapshot(restored, path)
    assert counts["verdicts"] == 0
    assert restored.cache_info()["verdict_entries"] == 0
    # Decisions recompute (no verdict layer) but reuse every structural
    # layer — and the documents, cached flag included, equal a cold run.
    docs = run_workload(restored)
    assert docs == baseline
    stats = restored.stats
    assert stats.verdict_hits == 0
    assert stats.parse_calls == 0
    assert stats.classify_calls == 0
    assert stats.hom_calls == 0


#: ``N`` pairs whose verdicts come from the bag bounds search, ``⇉2``
#: included.
BAG_PAIRS = [(chain(5), chain(4)), (clique(4), clique(3))]


def test_warm_bag_decisions_recompute_no_description(tmp_path):
    # A structural snapshot carries ⟨Q1⟩ and ⇉2's set-reduced table, so
    # a restored engine re-decides bag pairs without one description
    # or canonical form, hit or miss.
    path = tmp_path / "bag.snap"
    warmed = ContainmentEngine()
    cold = [json.dumps(warmed.decide(q1, q2, "N").to_dict())
            for q1, q2 in BAG_PAIRS]
    save_snapshot(warmed, path, include_verdicts=False)

    restored = ContainmentEngine()
    restored.import_caches(read_snapshot(path))
    warm = [json.dumps(restored.decide(q1, q2, "N").to_dict())
            for q1, q2 in BAG_PAIRS]
    assert warm == cold
    stats = restored.stats
    assert stats.verdict_hits == 0
    assert stats.description_calls == 0
    assert stats.canon_calls == stats.canon_hits == 0


def test_missing_file_raises_snapshot_error(tmp_path):
    with pytest.raises(SnapshotError, match="cannot read"):
        read_snapshot(tmp_path / "absent.snap")


def test_corrupted_bytes_rejected(tmp_path):
    path = tmp_path / "corrupt.snap"
    path.write_bytes(b"this is not a pickle at all")
    with pytest.raises(SnapshotError, match="corrupted"):
        load_snapshot(ContainmentEngine(), path)


def test_truncated_snapshot_rejected(tmp_path):
    path = tmp_path / "caches.snap"
    engine = ContainmentEngine()
    run_workload(engine)
    save_snapshot(engine, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(SnapshotError, match="corrupted"):
        read_snapshot(path)


@pytest.mark.parametrize("version", [*range(1, SNAPSHOT_VERSION),
                                     SNAPSHOT_VERSION + 1])
def test_other_versions_are_refused(tmp_path, version):
    # A reader accepts exactly its own version: every older layout and
    # any newer one is refused whole.
    path = tmp_path / f"v{version}.snap"
    envelope = {"magic": SNAPSHOT_MAGIC, "version": version,
                "semirings": [], "caches": {}}
    path.write_bytes(pickle.dumps(envelope))
    with pytest.raises(SnapshotError,
                       match=f"version {version} is not supported"):
        read_snapshot(path)


def test_version_4_snapshot_is_refused_as_stale(tmp_path, capsys):
    # Version 4 rows lack the automorphism-group size (and version 5
    # entries the rigid-term key) a version-10 description carries: such
    # a file must be refused whole, and a batch run must start cold and
    # still answer.
    from repro.cli import main
    from repro.queries import UCQ, parse_cq

    assert SNAPSHOT_VERSION == 10
    union = UCQ([parse_cq("Q() :- R(u, v)")])
    warmed = ContainmentEngine()
    rows = tuple(tuple(row[:3])
                 for row in warmed.complete_description(union, ()))
    path = tmp_path / "v4.snap"
    envelope = {"magic": SNAPSHOT_MAGIC, "version": 4, "semirings": [],
                "caches": {"descriptions": [(union, rows)]}}
    path.write_bytes(pickle.dumps(envelope))
    with pytest.raises(SnapshotError, match="version 4 is not supported"):
        read_snapshot(path)
    engine = ContainmentEngine()
    with pytest.raises(SnapshotError, match="stale|version"):
        load_snapshot(engine, path)
    assert engine.cache_info()["description_entries"] == 0

    requests = tmp_path / "requests.jsonl"
    requests.write_text('{"semiring": "N", "q1": "Q() :- R(u, v)", '
                        '"q2": "Q() :- R(u, v)"}\n', encoding="utf-8")
    code = main(["batch", "--snapshot", str(path), "--input",
                 str(requests), "--output", str(tmp_path / "out.jsonl")])
    err = capsys.readouterr().err
    assert code == 0
    assert "starting cold" in err and "version 4" in err
    assert '"result": true' in (tmp_path / "out.jsonl").read_text(
        encoding="utf-8")


def test_foreign_pickle_rejected(tmp_path):
    path = tmp_path / "foreign.snap"
    path.write_bytes(pickle.dumps({"something": "else"}))
    with pytest.raises(SnapshotError, match="not a repro engine snapshot"):
        read_snapshot(path)
    path.write_bytes(pickle.dumps([1, 2, 3]))
    with pytest.raises(SnapshotError, match="not a snapshot envelope"):
        read_snapshot(path)


def test_snapshot_will_not_import_arbitrary_callables(tmp_path):
    # A snapshot is an input file: references to types outside the
    # repro package (and a few builtin containers) must not resolve.
    path = tmp_path / "evil.snap"
    envelope = {"magic": SNAPSHOT_MAGIC, "version": SNAPSHOT_VERSION,
                "caches": {"parsed": [("x", os.path.join)]}}
    path.write_bytes(pickle.dumps(envelope))
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_snapshot_rejects_dotted_global_traversal(tmp_path):
    # Protocol 4's STACK_GLOBAL accepts dotted names, which would let a
    # crafted pickle reach e.g. ``os.system`` *through* a repro module
    # that imports ``os``.  Hand-assemble exactly that payload.
    def short_unicode(text: str) -> bytes:
        raw = text.encode("utf-8")
        return b"\x8c" + bytes([len(raw)]) + raw

    payload = (b"\x80\x04"                                 # PROTO 4
               + short_unicode("repro.service.snapshot")
               + short_unicode("os.system")
               + b"\x93"                                   # STACK_GLOBAL
               + b".")                                     # STOP
    path = tmp_path / "dotted.snap"
    path.write_bytes(payload)
    with pytest.raises(SnapshotError, match="dotted|corrupted"):
        read_snapshot(path)


def test_snapshot_rejects_module_level_functions(tmp_path):
    # Even inside the repro package, only classes may resolve — module
    # imports, helpers and functions must not.
    def short_unicode(text: str) -> bytes:
        raw = text.encode("utf-8")
        return b"\x8c" + bytes([len(raw)]) + raw

    payload = (b"\x80\x04"
               + short_unicode("repro.service.snapshot")
               + short_unicode("load_snapshot")
               + b"\x93" + b".")
    path = tmp_path / "helper.snap"
    path.write_bytes(payload)
    with pytest.raises(SnapshotError, match="disallowed|corrupted"):
        read_snapshot(path)


def test_malformed_layer_entries_rejected(tmp_path):
    path = tmp_path / "layers.snap"
    envelope = {"magic": SNAPSHOT_MAGIC, "version": SNAPSHOT_VERSION,
                "caches": {"parsed": [("only-a-key",)]}}
    path.write_bytes(pickle.dumps(envelope))
    with pytest.raises(SnapshotError, match="malformed entry"):
        read_snapshot(path)


def test_snapshot_with_retired_enumeration_layer_still_loads(tmp_path):
    # Older engines also cached full homomorphism enumerations, so
    # their snapshots carry one more entry list.  It is ignored; every
    # layer this engine still has restores in full.
    from repro.homomorphisms import HomKind, homomorphisms
    from repro.queries import parse_cq

    warmed = ContainmentEngine()
    baseline = run_workload(warmed)
    state = warmed.export_caches()
    source = parse_cq("Q() :- R(u, v)")
    target = parse_cq("Q() :- R(u, v), R(v, w)")
    state["hom_enums"] = [
        ((source, target, HomKind.PLAIN),
         tuple(homomorphisms(source, target, HomKind.PLAIN)))]
    path = tmp_path / "old.snap"
    write_snapshot(state, path, semirings=warmed.registry.names())

    restored = ContainmentEngine()
    counts = load_snapshot(restored, path)
    assert counts == {layer: len(entries) for layer, entries
                      in warmed.export_caches().items()}
    assert entry_counts(restored) == entry_counts(warmed)
    assert run_workload(restored) == [dict(doc, cached=True)
                                      for doc in baseline]


def test_unknown_semiring_entries_are_skipped():
    engine = ContainmentEngine()
    run_workload(engine)
    state = engine.export_caches()
    state["classifications"] = [("NOT-A-SEMIRING", classification)
                                for _, classification
                                in state["classifications"]]
    state["verdicts"] = [(("NOT-A-SEMIRING",) + key[1:], doc)
                         for key, doc in state["verdicts"]]
    counts = ContainmentEngine().import_caches(state)
    assert counts["classifications"] == 0
    assert counts["verdicts"] == 0
    assert counts["parsed"] > 0  # structural layers still import


def test_unregistered_semiring_instances_never_exported():
    from repro.semirings.boolean import BooleanSemiring

    engine = ContainmentEngine()
    private = BooleanSemiring()  # same name as "B", different instance
    engine.decide("Q() :- R(u, v)", "Q() :- R(u, u)", private)
    state = engine.export_caches()
    assert state["verdicts"] == []
    assert state["classifications"] == []


def test_merge_states_concatenates_layers(tmp_path):
    first = ContainmentEngine()
    first.decide(*WORKLOAD[0])
    second = ContainmentEngine()
    second.decide(*WORKLOAD[2])
    merged = merge_states([first.export_caches(), second.export_caches()])
    restored = ContainmentEngine()
    counts = restored.import_caches(merged)
    assert counts["verdicts"] == 2
    assert restored.decide(*WORKLOAD[0]).cached
    assert restored.decide(*WORKLOAD[2]).cached


def test_atomic_overwrite_keeps_snapshot_readable(tmp_path):
    path = tmp_path / "caches.snap"
    engine = ContainmentEngine()
    engine.decide(*WORKLOAD[0])
    save_snapshot(engine, path)
    engine.decide(*WORKLOAD[1])
    save_snapshot(engine, path)  # overwrite in place
    counts = load_snapshot(ContainmentEngine(), path)
    assert counts["verdicts"] == 2
    leftovers = [name for name in os.listdir(tmp_path)
                 if name.startswith(".snapshot-")]
    assert leftovers == []


def test_write_snapshot_records_registry_names(tmp_path):
    path = tmp_path / "caches.snap"
    engine = ContainmentEngine()
    write_snapshot(engine.export_caches(), path,
                   semirings=engine.registry.names())
    with open(path, "rb") as handle:
        envelope = pickle.load(handle)
    assert envelope["magic"] == SNAPSHOT_MAGIC
    assert "B" in envelope["semirings"]
