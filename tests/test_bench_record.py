"""``scripts/bench_record.py`` on a synthetic perfbench record directory."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {spec["name"]: spec for spec in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _launch(items: int, seconds: float) -> dict:
    passes = {"items": items, "scaled_s": seconds, "raw_s": seconds,
              "failed": 0, "latencies_ms": [seconds * 1e3 / items] * items,
              "raw_latencies_ms": [seconds * 1e3 / items] * items}
    return {"cold": passes, "warm": dict(passes), "digest": "same",
            "work_counts": {"decisions": items}, "facts_per_item": 2.0,
            "peak_rss_mb": 50.0 + items}


def _write_records(directory: Path, workload: str, scale: float,
                   launch_scale: float) -> None:
    untraced = {
        "seconds": 10, "launches": 3, "setup_samples_s": [0.5, 0.7, 0.6],
        "machine": {"nproc": 2, "python": "3.11"},
        "work_identity": {"identical": True, "counts": {"decisions": 20}},
        "launch_records": [_launch(20, seconds * launch_scale)
                           for seconds in (2.0, 1.0, 0.5)],
        "result": {"correct": True, "attempted": 60, "failed": 0,
                   "metrics": {name: {"value": scale, "unit": spec["unit"]}
                               for name, spec in END_TO_END.items()}}}
    traced = {"result": {
        "correct": True, "attempted": 40, "failed": 0,
        "metrics": {"homomorphisms.covered_atoms.calls":
                    {"value": 40, "unit": "count"}}}}
    for trace, record in ((0, untraced), (1, traced)):
        path = directory / f"{workload}-seed7919-trace{trace}"
        path.mkdir(parents=True)
        (path / "record.json").write_text(json.dumps(record),
                                          encoding="utf-8")


def _record(tmp_path: Path, name: str, scale: float,
            launch_scale: float = 1.0) -> Path:
    records = tmp_path / f"records-{name}"
    for workload in ("bag_bounds", "table1_mix", "eval_columnar"):
        _write_records(records, workload, scale, launch_scale)
    output = tmp_path / f"BENCH_{name}.json"
    assert bench_record.main(["--output", str(output), "--records",
                              str(records)]) == 0
    return output


def test_condenses_records_into_medians_and_quartiles(tmp_path):
    document = json.loads(_record(tmp_path, "old", 1.0).read_text())
    assert document["seed"] == 7919
    bag = document["workloads"]["bag_bounds"]
    assert (bag["correct"], bag["failed"], bag["launches"]) == (True, 0, 3)
    # Per-launch throughput 10, 20 and 40 decisions per second.
    decisions = bag["end_to_end"]["decisions_per_s"]
    assert decisions == {"value": 1.0, "unit": "1/s", "median": 20.0,
                         "q1": 15.0, "q3": 30.0}
    assert bag["end_to_end"]["setup_s"]["median"] == pytest.approx(0.6)
    assert bag["end_to_end"]["facts_per_s"]["median"] == 40.0
    assert bag["machine"] == {"nproc": 2, "python": "3.11"}
    assert bag["work_identity"]["counts"] == {"decisions": 20}
    assert bag["traced"] == {"correct": True, "attempted": 40, "failed": 0}
    assert bag["per_layer"]["homomorphisms.covered_atoms.calls"][
        "value"] == 40


def test_compare_flags_moves_beyond_the_bounds(tmp_path, capsys):
    old = _record(tmp_path, "old", 1.0)
    # Every metric doubles: throughput gets better, time, latency and
    # memory get worse, each beyond its bound.
    new = _record(tmp_path, "new", 2.0)
    assert bench_record.main(["--compare", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 * len(END_TO_END)
    for line in lines:
        name = line.split()[1]
        expected = ("better" if END_TO_END[name]["better"] == "higher"
                    else "WORSE")
        assert line.endswith(expected), line
    assert bench_record.main(["--compare", str(old), str(old)]) == 0
    assert not any(line.endswith(("WORSE", "better"))
                   for line in capsys.readouterr().out.splitlines())


def _line(lines: list[str], workload: str, name: str) -> str:
    [line] = [line for line in lines
              if line.split()[:2] == [workload, name]]
    return line


def test_flagged_moves_print_both_quartiles(tmp_path, capsys):
    old = _record(tmp_path, "old", 1.0)
    # Same launches, doubled headline values: every flagged median lies
    # inside the old quartiles, and the exit status is still 1.
    same_spread = _record(tmp_path, "same", 2.0)
    assert bench_record.main(["--compare", str(old), str(same_spread)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert _line(lines, "bag_bounds", "decisions_per_s").endswith(
        "q1–q3 15–30 -> 15–30 (inside old q1–q3) better")
    assert _line(lines, "table1_mix", "setup_s").endswith(
        "q1–q3 0.55–0.65 -> 0.55–0.65 (inside old q1–q3) WORSE")
    # Launches twice as fast: per-launch throughput 20, 40 and 80, so
    # the new median (40) lies above the old quartiles (15–30).
    faster = _record(tmp_path, "faster", 2.0, launch_scale=0.5)
    assert bench_record.main(["--compare", str(old), str(faster)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert _line(lines, "eval_columnar", "decisions_per_s").endswith(
        "q1–q3 15–30 -> 30–60 better")
    # Unflagged lines carry no quartiles.
    assert bench_record.main(["--compare", str(old), str(old)]) == 0
    assert not any("q1–q3" in line
                   for line in capsys.readouterr().out.splitlines())
