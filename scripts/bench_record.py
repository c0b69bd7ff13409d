"""Condense perfbench run records into one committed ``BENCH_<PR>.json``,
or compare two such files against the ``BENCHMARK.json`` bounds.

Record: run the three workloads untraced and traced at the claim seed
7919, then condense their
``.perfbench/<workload>-seed7919-trace{0,1}/record.json`` files::

    for workload in bag_bounds table1_mix eval_columnar; do
        for trace in 0 1; do
            python3 perfbench/run.py --workload $workload --seed 7919 \\
                --seconds 10 --trace $trace
        done
    done
    python3 scripts/bench_record.py --output BENCH_<n>.json

Per workload the file holds the untraced run's end-to-end metrics (the
reported value, plus the median and quartiles of the same figure taken
per launch), its correctness counts, the machine block, the work-identity
counts of a cold pass, and the traced run's per-layer metrics.

Compare::

    python3 scripts/bench_record.py --compare BENCH_<m>.json BENCH_<n>.json

prints every end-to-end metric per workload with its relative move and
flags each move beyond that metric's ``BENCHMARK.json`` bound as
``WORSE`` or ``better``.  A flagged line also prints both records'
per-launch quartiles (``q1–q3``), and says ``(inside old q1–q3)`` when
the new median lies between the old quartiles: such a move is within
the old record's own launch-to-launch spread, so it may be noise
rather than a code change.  The exit status is 1 when a metric got
worse beyond its bound or a run was not correct, else 0; the
quartiles never change it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bag_bounds", "table1_mix", "eval_columnar")
SEED = 7919


def _spread(values: list[float]) -> dict:
    """Median and quartiles of per-launch figures."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _read(records: Path, workload: str, trace: int) -> dict:
    path = records / f"{workload}-seed{SEED}-trace{trace}" / "record.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def condense(records: Path) -> dict:
    """The ``BENCH_*.json`` document for the records under ``records``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import metrics

    workloads = {}
    for workload in WORKLOADS:
        untraced = _read(records, workload, 0)
        traced = _read(records, workload, 1)
        # Summarize every pass for eval_columnar, as perfbench/run.py's
        # _measure does; the record does not store that choice.
        per_launch = [
            metrics.summarize([launch], workload == "eval_columnar")["metrics"]
            for launch in untraced["launch_records"]]
        end_to_end = {}
        for name, entry in untraced["result"]["metrics"].items():
            samples = (untraced["setup_samples_s"] if name == "setup_s"
                       else [figures[name] for figures in per_launch])
            end_to_end[name] = {"value": entry["value"], "unit": entry["unit"],
                                **_spread(samples)}
        workloads[workload] = {
            "seconds": untraced["seconds"],
            "launches": untraced["launches"],
            "correct": untraced["result"]["correct"],
            "attempted": untraced["result"]["attempted"],
            "failed": untraced["result"]["failed"],
            "end_to_end": end_to_end,
            "machine": untraced["machine"],
            "work_identity": untraced["work_identity"],
            "traced": {key: traced["result"][key]
                       for key in ("correct", "attempted", "failed")},
            "per_layer": traced["result"]["metrics"],
        }
    return {"seed": SEED, "workloads": workloads}


def compare(old: dict, new: dict, bounds: dict) -> tuple[list[str], bool]:
    """Report lines and whether ``new`` regressed against ``old``."""
    lines, regressed = [], False
    for workload, after in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            lines.append(f"{workload:14} only in the new file")
            continue
        if not after["correct"] or after["failed"]:
            regressed = True
            lines.append(f"{workload:14} NOT CORRECT "
                         f"(failed={after['failed']})")
        for name, spec in bounds.items():
            was = before["end_to_end"][name]["value"]
            now = after["end_to_end"][name]["value"]
            change = now / was - 1 if was else 0.0
            worse = -change if spec["better"] == "higher" else change
            flag = ""
            if worse > spec["bound"]:
                flag, regressed = "WORSE", True
            elif -worse > spec["bound"]:
                flag = "better"
            if flag:
                flag = _spread_note(before["end_to_end"][name],
                                    after["end_to_end"][name]) + flag
            lines.append(f"{workload:14} {name:22} {was:12.6g} -> "
                         f"{now:12.6g} {spec['unit']:4} {change:+8.1%} "
                         f"(bound {spec['bound']:.0%}) {flag}".rstrip())
    return lines, regressed


def _spread_note(before: dict, after: dict) -> str:
    """``q1–q3 OLD -> NEW`` for a flagged metric, marked when the new
    median lies inside the old quartiles; empty for records that carry
    no quartiles."""
    if not all(key in entry for entry in (before, after)
               for key in ("median", "q1", "q3")):
        return ""
    note = (f"q1–q3 {before['q1']:.6g}–{before['q3']:.6g} -> "
            f"{after['q1']:.6g}–{after['q3']:.6g} ")
    if before["q1"] <= after["median"] <= before["q3"]:
        note += "(inside old q1–q3) "
    return note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--output", type=Path,
                      help="write the condensed records to this file")
    mode.add_argument("--compare", nargs=2, type=Path,
                      metavar=("OLD", "NEW"),
                      help="compare two condensed files")
    parser.add_argument("--records", type=Path, default=ROOT / ".perfbench",
                        help="directory of perfbench run records")
    args = parser.parse_args(argv)
    if args.output is not None:
        document = condense(args.records)
        args.output.write_text(json.dumps(document, indent=1) + "\n",
                               encoding="utf-8")
        return 0
    old, new = (json.loads(path.read_text(encoding="utf-8"))
                for path in args.compare)
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {spec["name"]: spec for spec in specs["end_to_end"]}
    lines, regressed = compare(old, new, bounds)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
