"""Run-to-run spread of the end-to-end metrics, raw and probe-scaled.

Runs ``run.py`` once per seed on each workload and prints, per metric,
the distance between the first and third quartile of the runs (as
``statistics.quantiles(values, n=4)`` gives them) as a share of their
median, for the reported (scaled) value and, where the run record keeps
one, the raw value::

    python3 perfbench/spread.py --workload bag_bounds --seeds 1-10 --seconds 10

Each run's final JSON line and record land in
``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def iqr_share(values: list[float]) -> float:
    """Interquartile distance over the median (0 for fewer than 2)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args(argv)
    runs = []
    for seed in _seeds(args.seeds):
        output = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=ROOT, check=True, capture_output=True, text=True).stdout
        result = json.loads(output.splitlines()[-1])
        record = json.loads((ROOT / ".perfbench" / (
            f"{args.workload}-seed{seed}-trace0") / "record.json").read_text())
        runs.append({"seed": seed, "result": result,
                     "raw": record.get("raw_metrics", {})})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}", file=sys.stderr)
    out = ROOT / ".perfbench" / f"spread-{args.workload}.json"
    out.write_text(json.dumps(runs))
    print(f"{'metric':24} {'median':>12} {'scaled IQR':>11} {'raw IQR':>8}")
    for metric in runs[0]["result"]["metrics"]:
        scaled = [run["result"]["metrics"][metric]["value"] for run in runs]
        raw = [run["raw"][metric] for run in runs if metric in run["raw"]]
        raw_text = f"{iqr_share(raw):8.3f}" if raw else f"{'-':>8}"
        print(f"{metric:24} {statistics.median(scaled):12.6g} "
              f"{iqr_share(scaled):11.3f} {raw_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
