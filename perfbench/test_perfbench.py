"""Self-test of the benchmark at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import probes  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


_REPORTS: dict = {}


def _run(workload: str, trace: int, fresh: bool = False) -> dict:
    """One smoke run's final JSON line (cached unless ``fresh``)."""
    if not fresh and (workload, trace) in _REPORTS:
        return _REPORTS[workload, trace]
    output = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, check=True, capture_output=True, text=True,
        timeout=170).stdout
    report = _REPORTS[workload, trace] = json.loads(output.splitlines()[-1])
    return report


@pytest.fixture(scope="module", params=WORKLOADS)
def workload(request):
    return request.param


def _assert_named(report: dict, entries: list[dict]) -> None:
    assert report["correct"] is True
    assert report["failed"] == 0
    assert report["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in entries}
    got = {name: value["unit"] for name, value in report["metrics"].items()}
    assert got == expected
    for value in report["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    report = _run(workload, 0)
    _assert_named(report, SPEC["end_to_end"])
    for name, value in report["metrics"].items():
        assert value["value"] > 0, name


def test_every_per_layer_metric_is_present_in_the_traced_run(workload):
    _assert_named(_run(workload, 1), SPEC["per_layer"])


def test_benchmark_json_matches_the_metric_tables():
    assert {e["name"] for e in SPEC["end_to_end"]} == set(metrics.END_TO_END)
    assert {e["name"] for e in SPEC["per_layer"]} == set(metrics.PER_LAYER)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        table = (metrics.END_TO_END if entry["name"] in metrics.END_TO_END
                 else metrics.PER_LAYER)
        unit, better, _ = table[entry["name"]]
        assert (entry["unit"], entry["better"]) == (unit, better)


def test_traced_count_metrics_repeat_exactly():
    for workload in ("bag_bounds", "table1_mix"):
        first, second = _run(workload, 1), _run(workload, 1, fresh=True)
        for name in metrics.COUNT_METRICS:
            assert (first["metrics"][name]["value"]
                    == second["metrics"][name]["value"]), (workload, name)


def test_work_counts_do_not_depend_on_the_hash_seed(tmp_path):
    import inputs
    inputs.write_jsonl(inputs.bag_stream(5, smoke=True),
                       tmp_path / "stream.jsonl")
    counts = []
    for hash_seed in ("0", "1"):
        output = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload",
             "bag_bounds", "--input", str(tmp_path)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed), check=True,
            capture_output=True, text=True, timeout=170).stdout
        counts.append(json.loads(output.splitlines()[-1])["work_counts"])
    assert counts[0] == counts[1]


def test_an_injected_verdict_mismatch_is_a_failed_operation():
    clock = probes.ScaledClock(lambda: 0.001, 0.001)
    passes = worker.Passes(clock)
    reference = passes.run(["a", "b", "c"], str.upper)
    passes.run(["a", "b", "c"], str.upper, reference)
    assert passes.failed == 0
    tampered = list(reference)
    tampered[1] = "X"
    passes.run(["a", "b", "c"], str.upper, tampered)
    assert passes.failed == 1


def test_a_doubled_probe_time_halves_the_scale_factor():
    base = probes.scale_factor(0.002, 0.001, 0.001)
    assert probes.scale_factor(0.002, 0.002, 0.002) == pytest.approx(base / 2)
    times = iter([0.001, 0.001, 0.002, 0.002])
    clock = probes.ScaledClock(lambda: next(times), 0.002, chunk_s=0.0)
    clock.time_items([1], lambda item: item)
    clock.time_items([2], lambda item: item)
    first, second = (chunk["factor"] for chunk in clock.chunks)
    assert second == pytest.approx(first / 2)


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = metrics.tail([float(i) for i in range(1000)])
    assert (percentile, beyond) == (99.0, 10)
    assert value == 989.0


def test_without_the_program_the_benchmark_fails_fast(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
