"""Metric names, units and the per-layer readings of a traced run.

Every workload emits every end-to-end metric; how each reads on each
workload is stated in ``END_TO_END``.  Every traced run emits every
per-layer metric; a layer a workload never reaches reads 0.  Each
per-layer entry names the end-to-end metric and workload it should
move.
"""

from __future__ import annotations

import statistics

#: ``name → (unit, better, meaning per workload)``.
END_TO_END = {
    "setup_s": ("s", "lower",
                "interpreter start to ready for the first timed request "
                "(median of repeated launches)"),
    "decisions_per_s": ("1/s", "higher",
                        "cold decisions per second (bag_bounds, table1_mix); "
                        "evaluations per second (eval_columnar)"),
    "warm_decisions_per_s": ("1/s", "higher",
                             "decisions per second on engines restored from "
                             "the cold pass's snapshot; evaluations per "
                             "second with cached plans"),
    "facts_per_s": ("1/s", "higher",
                    "instance facts consumed per second: canonical-instance "
                    "facts of the decided pairs, or instance facts read by "
                    "the evaluations"),
    "latency_p50_ms": ("ms", "lower", "median per request or evaluation"),
    "latency_tail_ms": ("ms", "lower",
                        "highest percentile with at least 10 samples beyond"),
    "peak_rss_mb": ("MB", "lower",
                    "peak RSS of the measured processes (on eval_columnar "
                    "it includes the memory probe's table, about 10 MB)"),
}

_LAYERS = ("classifications", "parsed", "homs", "hom_enums", "covered",
           "descriptions", "canonical", "poly_orders", "eval_plans",
           "verdicts")
_CONDITIONS = ("local_condition", "covering_union", "covering_2",
               "sur_infty", "bi_count_k", "small_model_contained")
_KINDS = ("plain", "injective", "surjective", "bijective")

#: ``name → (unit, better, moves)``: the end-to-end metric and workload
#: each per-layer metric should move.
PER_LAYER: dict[str, tuple[str, str, str]] = {}
for _layer in _LAYERS:
    PER_LAYER[f"api.{_layer}.hit_ratio"] = (
        "1", "higher", "warm_decisions_per_s on bag_bounds, table1_mix")
    PER_LAYER[f"api.{_layer}.entries"] = (
        "count", "higher", "warm_decisions_per_s on bag_bounds, table1_mix")
PER_LAYER["api.decide.self_s"] = (
    "s", "lower", "latency_p50_ms on table1_mix")
PER_LAYER["core.classification.calls"] = (
    "count", "lower", "decisions_per_s on table1_mix")
PER_LAYER["core.classification.s"] = (
    "s", "lower", "decisions_per_s on table1_mix")
for _name in _CONDITIONS:
    _moves = ("decisions_per_s on table1_mix"
              if _name in ("small_model_contained", "local_condition")
              else "decisions_per_s on bag_bounds")
    PER_LAYER[f"core.condition.{_name}.calls"] = ("count", "lower", _moves)
    PER_LAYER[f"core.condition.{_name}.s"] = ("s", "lower", _moves)
_HOM = ("decisions_per_s, latency_tail_ms on bag_bounds; "
        "no change on eval_columnar")
for _kind in _KINDS:
    PER_LAYER[f"homomorphisms.find_homomorphism.{_kind}.calls"] = (
        "count", "lower", _HOM)
    PER_LAYER[f"homomorphisms.find_homomorphism.{_kind}.self_s"] = (
        "s", "lower", _HOM)
PER_LAYER["homomorphisms.find_homomorphism.surjective.success_ratio"] = (
    "1", "higher", _HOM)
PER_LAYER["homomorphisms.covered_atoms.calls"] = ("count", "lower", _HOM)
PER_LAYER["homomorphisms.covered_atoms.self_s"] = ("s", "lower", _HOM)
PER_LAYER["homomorphisms.covered_atoms.mappings"] = ("count", "lower", _HOM)
PER_LAYER["homomorphisms.canonical_form.calls"] = ("count", "lower", _HOM)
PER_LAYER["homomorphisms.canonical_form.self_s"] = ("s", "lower", _HOM)
_PARSE = "latency_p50_ms on table1_mix"
PER_LAYER["queries.parse.calls"] = ("count", "lower", _PARSE)
PER_LAYER["queries.parse.self_s"] = ("s", "lower", _PARSE)
_DESC = "decisions_per_s on bag_bounds"
PER_LAYER["queries.complete_description.calls"] = ("count", "lower", _DESC)
PER_LAYER["queries.complete_description.self_s"] = ("s", "lower", _DESC)
PER_LAYER["queries.complete_description.members"] = ("count", "lower", _DESC)
_LP = "decisions_per_s, latency_tail_ms on table1_mix"
PER_LAYER["polynomials.poly_leq.lp_calls"] = ("count", "lower", _LP)
PER_LAYER["polynomials.poly_leq.revalidations"] = (
    "count", "lower", "warm_decisions_per_s on table1_mix")
PER_LAYER["polynomials.poly_leq.rejected"] = (
    "count", "lower", "warm_decisions_per_s on table1_mix")
PER_LAYER["polynomials.poly_leq.self_s"] = ("s", "lower", _LP)
PER_LAYER["eval.load_s"] = ("s", "lower", "setup_s on eval_columnar")
PER_LAYER["eval.transpose_s"] = ("s", "lower", "setup_s on eval_columnar")
_EVAL = ("facts_per_s, latency_p50_ms on eval_columnar; "
         "no change on bag_bounds, table1_mix")
PER_LAYER["eval.run_plan.self_s"] = ("s", "lower", _EVAL)
PER_LAYER["eval.group.self_s"] = ("s", "lower", _EVAL)
PER_LAYER["eval.rows_per_answer"] = ("1", "lower", _EVAL)
PER_LAYER["eval.plans.hit_ratio"] = ("1", "higher", _EVAL)
# The serving session of the table1_mix traced run has no bounded
# end-to-end metric (see run.py); its figures are recorded alongside.
_SNAP = "the served session's set-up (table1_mix trace record)"
PER_LAYER["service.snapshot.save_s"] = ("s", "lower", _SNAP)
PER_LAYER["service.snapshot.load_s"] = ("s", "lower", _SNAP)
PER_LAYER["service.snapshot.bytes"] = ("B", "lower", _SNAP)
PER_LAYER["service.ping_p50_ms"] = (
    "ms", "lower", "the served session's median latency")
_ADMIT = "the served session's tail latency and on-time share"
PER_LAYER["service.accepted"] = ("count", "higher", _ADMIT)
for _counter in ("shed", "expired", "respawns", "max_backlog"):
    PER_LAYER[f"service.{_counter}"] = ("count", "lower", _ADMIT)
PER_LAYER["loadgen.lateness_p99_ms"] = (
    "ms", "lower", "the served session's tail (generator health)")
PER_LAYER["trace.overhead_share"] = (
    "1", "lower", "traced over untraced scaled time, minus one")

#: Per-layer metrics that count work: identical across traced runs of
#: the same code and inputs.
COUNT_METRICS = tuple(
    name for name in PER_LAYER
    if name.endswith((".calls", ".entries", ".members", ".mappings",
                      ".lp_calls", ".revalidations", ".rejected",
                      "hit_ratio", "success_ratio", "rows_per_answer")))

_TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` at the highest listed
    percentile that leaves at least ten samples beyond it.

    The value is the sample of rank ``ceil(p/100 * n)`` (nearest rank).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in _TAIL_PERCENTILES:
        tenths = round(percentile * 10)
        rank = max(1, -(-tenths * n // 1000))  # integer ceil
        if n - rank >= 10:
            return ordered[rank - 1], percentile, n - rank
    return statistics.median(ordered), 50.0, n - (n + 1) // 2


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def empty_layers() -> dict:
    return {name: 0.0 if PER_LAYER[name][0] not in ("count", "B") else 0
            for name in PER_LAYER}


def engine_layers(layers: dict, cache_stats: dict) -> None:
    """Fill ``api.<layer>.*`` from a ``cache_stats()`` report."""
    for name, stats in cache_stats["layers"].items():
        layers[f"api.{name}.hit_ratio"] = stats["hit_ratio"] or 0.0
        layers[f"api.{name}.entries"] = stats["entries"]


def traced_layers(tracer, engines_stats: list[dict]) -> dict:
    """Per-layer metrics from a tracer and the flat ``cache_info()``
    counters of every traced engine."""
    layers = empty_layers()
    calls, self_s, total_s, counts = (tracer.calls, tracer.self_s,
                                      tracer.total_s, tracer.counts)
    layers["api.decide.self_s"] = self_s["api.decide"]
    layers["core.classification.calls"] = calls["core.classification"]
    layers["core.classification.s"] = total_s["core.classification"]
    for name in _CONDITIONS:
        layers[f"core.condition.{name}.calls"] = calls[f"core.condition.{name}"]
        layers[f"core.condition.{name}.s"] = total_s[f"core.condition.{name}"]
    for kind in _KINDS:
        span = f"homomorphisms.find_homomorphism.{kind}"
        layers[f"{span}.calls"] = calls[span]
        layers[f"{span}.self_s"] = self_s[span]
    layers["homomorphisms.find_homomorphism.surjective.success_ratio"] = (
        _ratio(counts["find_homomorphism.surjective.found"],
               calls["homomorphisms.find_homomorphism.surjective"]))
    layers["homomorphisms.covered_atoms.calls"] = sum(
        stats.get("cover_calls", 0) for stats in engines_stats)
    layers["homomorphisms.covered_atoms.self_s"] = self_s["api.covered"]
    layers["homomorphisms.covered_atoms.mappings"] = counts[
        "api.covered.mappings"]
    layers["homomorphisms.canonical_form.calls"] = calls[
        "homomorphisms.canonical_form"]
    layers["homomorphisms.canonical_form.self_s"] = self_s[
        "homomorphisms.canonical_form"]
    layers["queries.parse.calls"] = calls["queries.parse"]
    layers["queries.parse.self_s"] = self_s["queries.parse"]
    layers["queries.complete_description.calls"] = calls[
        "queries.complete_description"]
    layers["queries.complete_description.self_s"] = self_s[
        "queries.complete_description"]
    layers["queries.complete_description.members"] = counts[
        "complete_description.members"]
    layers["polynomials.poly_leq.lp_calls"] = calls["polynomials.poly_leq"]
    layers["polynomials.poly_leq.revalidations"] = calls[
        "polynomials.certificate_valid"]
    layers["polynomials.poly_leq.rejected"] = sum(
        stats.get("poly_rejected", 0) for stats in engines_stats)
    layers["polynomials.poly_leq.self_s"] = self_s["polynomials.poly_leq"]
    layers["eval.load_s"] = total_s["eval.load"]
    layers["eval.transpose_s"] = total_s["eval.transpose"]
    layers["eval.run_plan.self_s"] = self_s["eval.run_plan"]
    layers["eval.group.self_s"] = (total_s["eval.evaluate"]
                                   - total_s["eval.run_plan"])
    layers["eval.rows_per_answer"] = _ratio(counts["run_plan.rows"],
                                            counts["evaluate.answers"])
    return layers


def _merge(parts: list[dict], key: str) -> dict:
    merged = {"items": 0, "scaled_s": 0.0, "raw_s": 0.0, "failed": 0,
              "latencies_ms": [], "raw_latencies_ms": []}
    for part in parts:
        for name in merged:
            merged[name] += part[key][name]
    return merged


def summarize(parts: list[dict], all_passes: bool) -> dict:
    """Merge the launches of one run into its end-to-end metrics.

    Throughput, p50 and tail come from the cold passes, or from every
    pass when ``all_passes`` (columnar evaluation, where warm and cold
    differ only by cached plans).  The tail is taken per launch and the
    median over launches is reported: every launch does the same work,
    so the percentile lands on the same requests each time, where a
    pooled percentile moves between request shapes of very different
    cost.  Launches must agree on their result digest and work counts;
    a launch whose results differ counts all its items as failed.
    """
    cold, warm = _merge(parts, "cold"), _merge(parts, "warm")
    timed = cold
    if all_passes:
        timed = {name: cold[name] + warm[name] for name in cold}
    first = parts[0]
    identical = all(part.get("work_counts") == first.get("work_counts")
                    for part in parts)
    failed = cold["failed"] + warm["failed"]
    attempted = cold["items"] + warm["items"]
    for part in parts:
        failed += part.get("reference_failed", 0)
        attempted += part.get("reference_checks", 0)
        if part["digest"] != first["digest"]:
            failed += part["cold"]["items"] + part["warm"]["items"]
    facts = first["facts_per_item"]

    def launch_samples(part: dict, latencies: str) -> list[float]:
        return part["cold"][latencies] + (
            part["warm"][latencies] if all_passes else [])

    def figures(seconds: str, latencies: str) -> dict:
        return {
            "decisions_per_s": timed["items"] / timed[seconds],
            "warm_decisions_per_s": warm["items"] / warm[seconds],
            "facts_per_s": facts * timed["items"] / timed[seconds],
            "latency_p50_ms": statistics.median(timed[latencies]),
            "latency_tail_ms": statistics.median(
                tail(launch_samples(part, latencies))[0] for part in parts),
        }
    values = figures("scaled_s", "latencies_ms")
    values["peak_rss_mb"] = max(part["peak_rss_mb"] for part in parts)
    samples = launch_samples(first, "latencies_ms")
    _, percentile, beyond = tail(samples)
    return {"metrics": values,
            "raw_metrics": figures("raw_s", "raw_latencies_ms"),
            "tail": {"percentile": percentile, "beyond": beyond,
                     "samples_per_launch": len(samples)},
            "attempted": attempted, "failed": failed,
            "correct": failed == 0 and identical,
            "work_identity": {"identical": identical,
                              "counts": first.get("work_counts")}}
