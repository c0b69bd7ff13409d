"""The measured process of the decision and columnar workloads.

``run.py`` launches this script several times per run.  Each launch
pins itself to one vCPU, imports the engine, reads the generated input
(for ``eval_columnar`` it also loads the CSV files and transposes them)
and prints ``ready``; the launcher's clock from spawn to that line is
one ``setup_s`` sample, unscaled.  With ``--setup-only`` the launch
ends there.  Otherwise it times its ``--passes`` passes and prints one
JSON line with the raw material of the metrics (see ``Passes.export``),
which ``run.py`` merges across launches.

A decision launch runs one cycle: a cold pass on a fresh engine, then
``--passes`` - 1 warm passes, each on a fresh engine restored from the
cold pass's snapshot (verdicts excluded).
A later cold pass in the same process ran 10-20 % slower (scaled) than
the first, so cold passes are never repeated within a process.

Usage (normally through run.py)::

    python3 perfbench/worker.py --workload bag_bounds --input DIR [--trace 1]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probes  # noqa: E402

# Pin before the heavy imports, so that set-up runs on the same vCPU as
# the timed work.
CPU = probes.pin_to_one_cpu()

import inputs  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ("bag_bounds", "table1_mix", "eval_columnar")


def mismatches(reference: list, observed: list) -> int:
    """Positions at which two result streams differ (a length
    difference counts every missing position)."""
    return (sum(a != b for a, b in zip(reference, observed))
            + abs(len(reference) - len(observed)))


def _digest(results: list[str]) -> str:
    return hashlib.sha256("\n".join(results).encode()).hexdigest()


def _work_counts(info: dict) -> dict:
    """Engine-boundary call and hit counters from ``cache_info()``."""
    return {key: value for key, value in info.items()
            if key.endswith(("_calls", "_hits", "_rejected"))
            or key == "decisions"}


class Passes:
    """Scaled and raw timings of a group of timed passes."""

    def __init__(self, clock: probes.ScaledClock):
        self.clock = clock
        self.latencies_ms: list[float] = []
        self.raw_latencies_ms: list[float] = []
        self.item_chunks: list[int] = []
        self.passes: list[dict] = []
        self.failed = 0

    def run(self, items, fn, reference: list | None = None) -> list:
        """Time ``fn`` over ``items``; results differing from
        ``reference`` count as failed."""
        gc.collect()  # every pass starts from the same collector state
        first = len(self.clock.chunks)
        rows = self.clock.time_items(items, fn)
        self.passes.append({"items": len(rows),
                            "raw_s": self.clock.raw_total(first),
                            "scaled_s": self.clock.scaled_total(first),
                            "chunks": [first, len(self.clock.chunks)]})
        results = [result for result, _, _ in rows]
        for _, seconds, chunk in rows:
            scaled = seconds * self.clock.factor(chunk)
            self.latencies_ms.append(scaled * 1000.0)
            self.raw_latencies_ms.append(seconds * 1000.0)
            self.item_chunks.append(chunk)
        if reference is not None:
            self.failed += mismatches(reference, results)
        return results

    def export(self) -> dict:
        """The JSON-able material ``metrics.summarize`` merges."""
        return {"items": sum(entry["items"] for entry in self.passes),
                "scaled_s": sum(entry["scaled_s"] for entry in self.passes),
                "raw_s": sum(entry["raw_s"] for entry in self.passes),
                "failed": self.failed, "passes": self.passes,
                "latencies_ms": self.latencies_ms,
                "raw_latencies_ms": self.raw_latencies_ms,
                "item_chunks": self.item_chunks}


def _decisions(args, requests: list[dict], tracer) -> dict:
    from repro import ContainmentEngine
    from repro.api.documents import ContainmentRequest
    from repro.service.snapshot import read_snapshot, save_snapshot

    clock = probes.ScaledClock()
    cold, warm = Passes(clock), Passes(clock)
    snapshot = Path(args.input) / f"engine-{os.getpid()}.snap"

    def decide(engine):
        def one(request):
            document = engine.decide_request(
                ContainmentRequest.from_dict(request, parse=engine.parse))
            return json.dumps(document.to_dict(), ensure_ascii=False)
        return one

    def new_engine():
        engine = ContainmentEngine()
        if tracer is not None:
            tracer.trace_engine(engine)
        return engine

    engine = new_engine()
    reference = cold.run(requests, decide(engine))
    cold_stats = engine.cache_info()
    start = time.perf_counter()
    save_snapshot(engine, snapshot, include_verdicts=False)
    save_s = time.perf_counter() - start
    del engine
    # The file is read once: reading (unpickling) dominates a restore
    # and is the load time.
    start = time.perf_counter()
    state = read_snapshot(snapshot)
    read_s = time.perf_counter() - start
    for _ in range(args.passes - 1):
        warm_engine = new_engine()
        warm_engine.import_caches(state)
        warm.run(requests, decide(warm_engine), reference)
    size = snapshot.stat().st_size
    snapshot.unlink()
    part = {"cold": cold.export(), "warm": warm.export(),
            "digest": _digest(reference),
            "work_counts": _work_counts(cold_stats),
            "facts_per_item": sum(map(inputs.canonical_facts, requests))
            / len(requests),
            "snapshot": {"save_s": save_s, "load_s": read_s, "bytes": size},
            "chunks": clock.chunks}
    if tracer is not None:
        layers = metrics.traced_layers(
            tracer, [cold_stats, warm_engine.cache_info()])
        metrics.engine_layers(layers, warm_engine.cache_stats())
        layers["service.snapshot.save_s"] = save_s
        layers["service.snapshot.load_s"] = read_s
        layers["service.snapshot.bytes"] = size
        part["layers"] = layers
    return part


def eval_path(directory, semiring: str) -> Path:
    """The annotated CSV of one evaluation semiring."""
    return Path(directory) / ("tplus.csv" if semiring == "T+"
                              else f"{semiring.lower()}.csv")


def _eval_setup(args) -> dict:
    from repro.data.instance import Instance
    from repro.eval.columns import ColumnarInstance
    from repro.semirings.registry import DEFAULT_REGISTRY

    loaded = {}
    for name in inputs.EVAL_SEMIRINGS:
        instance = Instance.from_csv(eval_path(args.input, name),
                                     DEFAULT_REGISTRY.get(name))
        loaded[name] = (instance, ColumnarInstance.from_instance(instance))
    return loaded


def _evaluations(args, loaded: dict, tracer) -> dict:
    from repro import ContainmentEngine
    from repro.data.instance import Instance
    from repro.queries.evaluation import evaluate_all
    from repro.queries.parser import parse_cq
    from repro.queries.ucq import UCQ

    clock = probes.ScaledClock(probes.memory_probe,
                               probes.NOMINAL_MEM_PROBE_S)
    items = [(name, texts) for name in inputs.EVAL_SEMIRINGS
             for _, texts in inputs.EVAL_SHAPES]

    def evaluate(item):
        name, texts = item
        table = engine.evaluate(texts, loaded[name][1])
        return repr(sorted(map(repr, table.rows)))

    engine = ContainmentEngine()
    if tracer is not None:
        tracer.trace_engine(engine)
    # The first pass plans every query (cold plan cache); later passes
    # recall the plans.
    cold, warm = Passes(clock), Passes(clock)
    reference = cold.run(items, evaluate)
    for _ in range(args.passes - 1):
        warm.run(items, evaluate, reference)
    if tracer is not None:
        tracer.undo()  # keep the reference check out of the trace
    # Columnar answers must equal the tuple-at-a-time reference on a
    # seeded subsample of every instance: the facts whose values all lie
    # in a random twentieth of the domain (dense enough for joins to
    # match, small enough for the tuple-at-a-time evaluator).
    rng = random.Random(f"subsample-{args.seed}")
    reference_failed = 0
    for name, texts in items:
        instance = loaded[name][0]
        width = (max(instance.active_domain()) + 1) // 20
        low = rng.randrange(width * 19)
        sample = Instance.from_facts(instance.semiring, [
            (relation, row, value)
            for relation in instance.relations()
            for row, value in instance.support(relation)
            if all(low <= cell < low + width for cell in row)])
        query = UCQ(tuple(parse_cq(text) for text in texts))
        columnar = ContainmentEngine().evaluate(query, sample).to_dict()
        reference_failed += columnar != evaluate_all(query, sample)

    def consumed(name, texts) -> int:
        relations = loaded[name][1].relations
        return sum(relations[atom.relation].row_count
                   for text in texts for atom in parse_cq(text).atoms)
    part = {"cold": cold.export(), "warm": warm.export(),
            "digest": _digest(reference),
            "reference_checks": len(items),
            "reference_failed": reference_failed,
            "facts_per_item": sum(consumed(name, texts)
                                  for name, texts in items) / len(items),
            "chunks": clock.chunks}
    if tracer is not None:
        layers = metrics.traced_layers(tracer, [engine.cache_info()])
        stats = engine.cache_stats()
        metrics.engine_layers(layers, stats)
        layers["eval.plans.hit_ratio"] = (
            stats["layers"]["eval_plans"]["hit_ratio"] or 0.0)
        part["layers"] = layers
    return part


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--input", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=2,
                        help="timed passes, the first cold (at least 2)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once ready (a set-up sample)")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install_modules()  # the CSV loaders are layer boundaries
    if args.workload == "eval_columnar":
        loaded = _eval_setup(args)
    else:
        from repro import ContainmentEngine
        ContainmentEngine()
        requests = inputs.read_jsonl(Path(args.input) / "stream.jsonl")
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.workload == "eval_columnar":
        part = _evaluations(args, loaded, tracer)
    else:
        part = _decisions(args, requests, tracer)
    if tracer is not None:
        part["spans"] = tracer.write(
            Path(args.input) / f"spans-{os.getpid()}.jsonl")
    part.update(pinned_cpu=CPU, pythonhashseed=os.environ.get("PYTHONHASHSEED"),
                peak_rss_mb=resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(part), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
