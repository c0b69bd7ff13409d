"""The certificate-memoized tropical order layer: cold vs warm.

``T+``/``T−`` verdicts go through the small-model procedure
(Thm. 4.17), whose cost is largely the polynomial order checks of
Prop. 4.19: a few small linear systems per check, each solved once by
an exact ``Fraction`` simplex.  Since the engine memoizes those
decisions as revalidated certificates keyed by canonical admissible
pair — and the snapshot layer persists them — a warmed run should
never solve a system at all.  This benchmark pins the three claims of
that layer on the tropical slice of the Table-1 surface:

* **recall ≥ 10× solve** — revalidating the snapshot's certificates
  (:func:`certificate_valid`) is at least an order of magnitude faster
  than deciding the same pairs again (:func:`decide_poly_leq`), and
  the mean warm verdict stays under ~1 ms.  The ratio of whole cold
  and warm verdicts is printed but not gated: it also counts parsing,
  classification and homomorphism search, which the exact solver made
  cheap enough to hide the layer's own gain;
* **byte-identical** — the warm run's verdict documents equal the cold
  run's exactly (``cached`` flags included), and the warm engine
  reports zero ``poly_calls`` (every order decision was a certificate
  recall, revalidated without a solve) and zero ``small_model_calls``
  (every test set of canonical pairs was recalled from the
  ``small_models`` layer, never re-evaluated);
* **cross-validated** — every memoized dominance decision agrees with
  the bounded grid checker, and every certificate revalidates.

``REPRO_BENCH_SMOKE=1`` (the CI default) keeps the equality, stats and
cross-validation assertions but skips the machine-speed-sensitive
timing thresholds.
"""

from __future__ import annotations

import os
import time

from repro.api import ContainmentEngine
from repro.polynomials import (certificate_valid, decide_poly_leq,
                               grid_violation)
from repro.semirings import TMINUS, TPLUS
from repro.service import load_snapshot, save_snapshot

from conftest import curated_cq_pairs, curated_ucq_pairs

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: The tropical slice: both orders plus Viterbi, which shares the
#: min-plus decisions (and therefore the certificate entries) of T+.
SEMIRINGS = ("T+", "T-", "V")


def tropical_workload() -> list[dict]:
    """Every curated CQ/UCQ pair under every tropical-order semiring."""
    pairs = [(str(q1), str(q2)) for q1, q2 in curated_cq_pairs()]
    pairs += [(q2, q1) for q1, q2 in list(pairs)]
    unions = [([str(cq) for cq in u1], [str(cq) for cq in u2])
              for u1, u2 in curated_ucq_pairs()]
    requests: list[dict] = []
    for semiring in SEMIRINGS:
        for q1, q2 in pairs:
            requests.append({"semiring": semiring, "q1": q1, "q2": q2})
        for q1, q2 in unions:
            requests.append({"semiring": semiring, "q1": q1, "q2": q2})
    for index, request in enumerate(requests):
        request["id"] = f"tropical-{index}"
    return requests


def timed(engine: ContainmentEngine, requests) -> tuple[list[dict], float]:
    start = time.perf_counter()
    documents = [doc.to_dict() for doc in engine.decide_many(requests)]
    return documents, time.perf_counter() - start


def best_of(run, repeats: int = 5) -> float:
    """The fastest of ``repeats`` timed calls of ``run()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def test_warm_tropical_verdicts_are_certificate_recalls(tmp_path):
    requests = tropical_workload()
    snapshot = tmp_path / "tropical.snap"

    cold_engine = ContainmentEngine()
    cold_docs, cold_seconds = timed(cold_engine, requests)
    assert cold_engine.stats.poly_calls > 0, \
        "the tropical slice must exercise the poly_leq layer"
    # The layer is visible in cache_stats(), ratios zero-division-safe.
    report = cold_engine.cache_stats()["layers"]["poly_orders"]
    assert report["entries"] > 0 and report["calls"] > 0
    assert report["rejected"] == 0
    save_snapshot(cold_engine, snapshot, include_verdicts=False)

    warm_engine = ContainmentEngine()
    load_snapshot(warm_engine, snapshot)
    warm_docs, warm_seconds = timed(warm_engine, requests)

    assert warm_docs == cold_docs, \
        "warm tropical verdicts must be byte-identical to the cold run"
    assert warm_engine.stats.poly_calls == 0, (
        "a warmed run must decide every tropical order from certificates, "
        f"ran {warm_engine.stats.poly_calls} order solves")
    assert warm_engine.stats.small_model_calls == 0, (
        "a warmed run must recall every small-model test set, computed "
        f"{warm_engine.stats.small_model_calls}")
    assert warm_engine.stats.poly_hits > 0
    assert warm_engine.stats.poly_rejected == 0
    warm_report = warm_engine.cache_stats()["layers"]["poly_orders"]
    assert warm_report["hit_ratio"] == 1.0

    # The layer's claim, timed on its own: one exact solve per
    # certificate against one revalidation of the same certificate.
    certificates = cold_engine.export_caches()["poly_orders"]
    for (kind, p1, p2), certificate in certificates:
        assert decide_poly_leq(kind, p1, p2)[0] == certificate.holds
    solve_seconds = best_of(lambda: [
        decide_poly_leq(kind, p1, p2)
        for (kind, p1, p2), _ in certificates])
    check_seconds = best_of(lambda: [
        certificate_valid(certificate, kind, p1, p2)
        for (kind, p1, p2), certificate in certificates])
    recall = solve_seconds / max(check_seconds, 1e-9)

    per_verdict_ms = warm_seconds / len(requests) * 1e3
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    print(f"\n  {len(requests)} tropical decisions: cold "
          f"{cold_seconds * 1e3:8.1f} ms, warm {warm_seconds * 1e3:8.1f} ms "
          f"({speedup:.1f}x, {per_verdict_ms:.3f} ms/verdict warm)")
    print(f"  {len(certificates)} certificates: solve "
          f"{solve_seconds * 1e3:.1f} ms, revalidate "
          f"{check_seconds * 1e3:.1f} ms ({recall:.1f}x)")
    if not SMOKE:
        assert recall >= 10.0, (
            f"revalidating a certificate must be >= 10x cheaper than "
            f"solving its pair again, got {recall:.2f}x")
        assert per_verdict_ms < 1.0, (
            f"a warm tropical verdict must stay under ~1 ms, got "
            f"{per_verdict_ms:.3f} ms")


def test_memoized_decisions_match_the_grid_cross_validator(tmp_path):
    """Every certificate in the snapshot revalidates and agrees with the
    bounded grid checker (sound refutation: a dominance claim the grid
    can falsify would be a bug in either the solver or the memo layer)."""
    requests = tropical_workload()
    engine = ContainmentEngine()
    engine.decide_many(requests)
    snapshot = tmp_path / "tropical.snap"
    save_snapshot(engine, snapshot, include_verdicts=False)

    restored = ContainmentEngine()
    load_snapshot(restored, snapshot)
    entries = restored.export_caches()["poly_orders"]
    assert entries, "the tropical slice must have produced certificates"
    checked = 0
    for (kind, p1, p2), certificate in entries:
        assert certificate_valid(certificate, kind, p1, p2), \
            (kind, p1, p2)
        if certificate.holds:
            semiring = TPLUS if kind == "min-plus" else TMINUS
            assert grid_violation(p1, p2, semiring, bound=2) is None, \
                (kind, p1, p2)
        checked += 1
    print(f"\n  {checked} certificates revalidated against the grid")
