"""Benchmark of the containment engine and its columnar evaluator:
three seeded workloads, probe-scaled timings and a separate traced run
that splits the work per layer.

Run from the repository root::

    python3 perfbench/run.py --workload bag_bounds --seed 1 --seconds 10 --trace 0

``--workload all`` runs the three workloads in turn.  Every run prints
each metric with its unit, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full run record (machine block, every probe-scaled chunk, set-up
samples, raw and scaled figures, work-identity counts) is written to
``.perfbench/<workload>-seed<seed>-trace<trace>/record.json``; a traced
run also writes its spans there, one JSON line each, as
``spans-<worker pid>.jsonl``.

Workloads (see ``WORKLOADS`` for why each exists):

* ``bag_bounds`` — cold then warm decisions over ``N`` and ``R+``;
* ``table1_mix`` — cold then warm decisions over the other 21 semirings;
* ``eval_columnar`` — columnar evaluation of five query shapes under
  ``T+`` and ``N`` over a seeded instance loaded from CSV.

The traced run of ``table1_mix`` also drives ``repro serve --async``
with open-loop traffic (``serve.py``) for the serving layer's metrics.
A ``serve_gateway`` workload with bounded end-to-end metrics was tried
and left out: its tail latency, set by the worker's garbage-collection
and snapshot-flush stalls, spread 19-35 % between runs, more than any
bound this benchmark may set.

The seed named for claim checks (a seed not used while a change is
written) is ``CLAIM_SEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = {
    "bag_bounds": "bag-semantics bounds search (covering, descriptions, "
                  "canonical forms): the measured hotspot",
    "table1_mix": "classification, dispatch, memo lookups and the tropical "
                  "LP across 21 semirings; the bag-path layers sit idle",
    "eval_columnar": "columnar joins and numpy kernels over a seeded "
                     "instance; no homomorphism search at all",
}
#: The seed for claim checks.
CLAIM_SEED = 7919
#: Nominal seconds of one worker launch (decisions: set-up, a cold pass
#: and its warm passes).  The launch and pass counts are derived from
#: ``--seconds`` with these constants, never from a measured speed, so a
#: run's work does not depend on how fast the host was.
LAUNCH_S = {"bag_bounds": 2.5, "table1_mix": 2.5}
#: Warm passes per decision launch: a warm bag pass is about a fifth of
#: a cold one, a warm table1 pass about two thirds, so the warm passes of
#: a launch time about as much work as its cold pass.
WARM_PASSES = {"bag_bounds": 5, "table1_mix": 2}
#: ``eval_columnar`` launches three workers (each a CSV load and
#: transposition) and spreads its passes over them.
EVAL_LAUNCHES = 3
EVAL_PASS_S = 0.8
#: Set-up samples per untraced run.  Launches that time passes give one
#: each; the rest come from launches that stop once ready, placed
#: between them so the samples spread over the run.  ``setup_s`` is
#: their median, unscaled.
SETUP_SAMPLES = 9
#: Facts of the columnar instance (per semiring).
EVAL_FACTS = 100_000
WORKER_TIMEOUT_S = 150.0


def _machine(pinned_cpu: int | None) -> dict:
    import networkx
    import numpy
    import scipy

    import probes
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "networkx": networkx.__version__,
        "nominal_py_probe_s": probes.NOMINAL_PY_PROBE_S,
        "nominal_mem_probe_s": probes.NOMINAL_MEM_PROBE_S,
        "pinned_cpu": pinned_cpu,
    }


def _prepare(workload: str, workdir: Path, seed: int, smoke: bool) -> None:
    import inputs
    from worker import eval_path
    if workload == "bag_bounds":
        inputs.write_jsonl(inputs.bag_stream(seed, smoke),
                           workdir / "stream.jsonl")
    elif workload == "table1_mix":
        stream = inputs.table1_stream(seed)
        inputs.write_jsonl(stream[:200] if smoke else stream,
                           workdir / "stream.jsonl")
    elif workload == "eval_columnar":
        facts = 2000 if smoke else EVAL_FACTS
        relations = inputs.eval_instance(seed, facts)
        for semiring in inputs.EVAL_SEMIRINGS:
            inputs.write_csv(relations, eval_path(workdir, semiring))


def _launch(args, workdir: Path, trace: int, passes: int | None) -> tuple:
    """Run one worker; returns ``(seconds to ready, its JSON part)``.

    ``passes=None`` makes a set-up-only launch, whose part is ``None``.
    """
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--input", str(workdir),
               "--seed", str(args.seed), "--trace", str(trace)]
    command += (["--setup-only"] if passes is None
                else ["--passes", str(passes)])
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                               stdin=subprocess.DEVNULL, text=True)
    try:
        line = process.stdout.readline()
        ready_s = time.perf_counter() - start
        if line != "ready\n":
            raise RuntimeError(f"worker failed during set-up: {line!r}")
        output, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        process.kill()
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"worker exited with {process.returncode}")
    if passes is None:
        return ready_s, None
    return ready_s, json.loads(output.splitlines()[-1])


def _measure(args, workdir: Path) -> dict:
    """Launch the workers of a decision or columnar run and merge them.

    A traced run makes two launches, untraced then traced, each with one
    warm pass, and reports the difference of their scaled timed work as
    the tracing overhead.
    """
    import metrics
    all_passes = args.workload == "eval_columnar"
    if all_passes:
        launches = EVAL_LAUNCHES
        passes = max(2, round(args.seconds / EVAL_LAUNCHES / EVAL_PASS_S))
    else:
        launches = max(2, round(args.seconds / LAUNCH_S[args.workload]))
        passes = 1 + WARM_PASSES[args.workload]
    if args.smoke:
        launches, passes = 2, 2
    if args.trace:
        passes = 2
        schedule = [(0, passes), (1, passes)]
    else:
        # Set-up-only launches (``None``) fill the gaps between the
        # launches that time passes.
        samples = launches if args.smoke else max(launches, SETUP_SAMPLES)
        timed_at = {index * samples // launches for index in range(launches)}
        schedule = [(0, passes if index in timed_at else None)
                    for index in range(samples)]
    setup, parts = [], []
    for trace, launch_passes in schedule:
        ready_s, part = _launch(args, workdir, trace, launch_passes)
        setup.append(ready_s)
        if part is not None:
            parts.append(part)
    summary = metrics.summarize(parts, all_passes)
    summary["metrics"]["setup_s"] = statistics.median(setup)
    summary["raw_metrics"]["setup_s"] = statistics.median(setup)
    summary["record"] = {
        "launches": len(parts), "passes_per_launch": passes,
        "setup_samples_s": setup,
        "tail": summary.pop("tail"),
        "raw_metrics": summary.pop("raw_metrics"),
        "work_identity": summary.pop("work_identity"),
        "pinned_cpu": parts[0]["pinned_cpu"],
        "pythonhashseed": parts[0]["pythonhashseed"],
        "launch_records": [
            {key: value for key, value in part.items() if key != "layers"}
            for part in parts],
    }
    if args.trace:
        def timed(part):
            return part["cold"]["scaled_s"] + (
                part["warm"]["scaled_s"] if all_passes else 0.0)
        layers = parts[1]["layers"]
        layers["trace.overhead_share"] = timed(parts[1]) / timed(parts[0]) - 1
        summary["layers"] = layers
    return summary


def run_workload(args) -> dict:
    workdir = ROOT / ".perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    _prepare(args.workload, workdir, args.seed, args.smoke)
    result = _measure(args, workdir)
    if args.trace and args.workload == "table1_mix":
        import serve
        served = serve.run(ROOT, workdir, args.seed, args.seconds,
                           smoke=args.smoke)
        result["layers"].update(served.pop("layers"))
        result["record"]["serve"] = served
        result["attempted"] += served["attempted"]
        result["failed"] += served["failed"]
        result["correct"] = result["correct"] and served["correct"]
    record = result["record"]
    record["machine"] = _machine(record["pinned_cpu"])
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  why=WORKLOADS[args.workload])
    if args.trace:
        values, specs = result["layers"], _spec("PER_LAYER")
    else:
        values, specs = result["metrics"], _spec("END_TO_END")
    report = {"correct": bool(result["correct"]),
              "attempted": int(result["attempted"]),
              "failed": int(result["failed"]),
              "metrics": {name: {"value": values[name], "unit": specs[name]}
                          for name in specs}}
    record["result"] = report
    with open(workdir / "record.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    for path in workdir.iterdir():
        if path.suffix in (".csv", ".snap") or path.name == "stream.jsonl":
            path.unlink()
    return report


def _spec(table: str) -> dict:
    import metrics
    return {name: spec[0] for name, spec in getattr(metrics, table).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and few launches (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        args.workload = name
        report = reports[name] = run_workload(args)
        for metric, entry in report["metrics"].items():
            print(f"{name:14} {metric:58} {entry['value']:14.6g} "
                  f"{entry['unit']}")
        print(f"{name:14} attempted={report['attempted']} "
              f"failed={report['failed']} correct={report['correct']}")
    if len(reports) == 1:
        final = reports[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in reports.values()),
                 "attempted": sum(r["attempted"] for r in reports.values()),
                 "failed": sum(r["failed"] for r in reports.values()),
                 "metrics": {f"{name}.{metric}": entry
                             for name, report in reports.items()
                             for metric, entry in report["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
