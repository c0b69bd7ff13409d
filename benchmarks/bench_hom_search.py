"""Cold-path speed of the indexed, plan-driven homomorphism search.

Compares the rewritten matcher (:mod:`repro.homomorphisms.search`)
against the preserved pre-PR backtracker
(``tests/reference_search.py``) on three workloads where
homomorphism search actually spends its time:

* **random patterns** — random single-relation CQ pairs at sizes where
  the search tree, not call setup, dominates (existence checks);
* **random enumeration** — full `homomorphisms()` sweeps, the primitive
  behind ``covered_atoms`` and the ``⇉``/``⇉1``/``⇉2`` conditions;
* **covering no-instances** — surjective/bijective searches that must
  *refute*, where the naive searcher explores exponentially many
  mappings the multiset-coverage prune cuts immediately.

Every benchmark first asserts answer equivalence (the rewrite is
bit-for-bit compatible on verdicts), then times both searchers cold.
The aggregate cold-path speedup must be ≥ 2×.

A second test asserts the PR's cache-routing goal: the covering, UCQ
and bag-semantics bounds paths now flow through the engine's LRUs
(``cache_info()`` recorded zero hom hits from those paths before).

Set ``REPRO_BENCH_SMOKE=1`` (the CI default) to shrink the workloads
and skip the wall-clock ratio assertion — machine-speed-sensitive
checks don't belong in shared CI, but the equivalence and cache-routing
assertions always run.
"""

from __future__ import annotations

import os
import random
import sys
import time
from pathlib import Path

from repro.api import ContainmentEngine
from repro.homomorphisms import HomKind, has_homomorphism, homomorphisms
from repro.queries import CQ, Atom, Var
from repro.queries.generators import random_cq

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.reference_search import (reference_has_homomorphism,  # noqa: E402
                                    reference_homomorphisms)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SCALE = 1 if SMOKE else 4

EDGE_SCHEMA = (("E", 2),)


def chain(length: int, fan: int = 1) -> CQ:
    atoms = []
    for i in range(length):
        for _ in range(fan):
            atoms.append(Atom("E", (Var(f"v{i}"), Var(f"v{i + 1}"))))
    return CQ((), atoms)


def random_patterns(seed: int, count: int, atoms: int, variables: int):
    rng = random.Random(seed)
    return [
        (random_cq(rng, EDGE_SCHEMA, max_atoms=atoms, max_vars=variables,
                   duplicate_bias=0.0),
         random_cq(rng, EDGE_SCHEMA, max_atoms=atoms,
                   max_vars=variables - 1, duplicate_bias=0.0))
        for _ in range(count)
    ]


def _existence_workload():
    pairs = random_patterns(3, 15 * SCALE, atoms=12, variables=6)
    return [(q1, q2, HomKind.PLAIN) for q1, q2 in pairs]


def _enumeration_workload():
    pairs = random_patterns(11, 8 * SCALE, atoms=9, variables=5)
    return [(q1, q2, kind) for q1, q2 in pairs
            for kind in (HomKind.PLAIN, HomKind.SURJECTIVE)]


def _covering_refutation_workload():
    cases = []
    for length in range(9, 11 + SCALE):
        cases.append((chain(length + 1), chain(length), HomKind.SURJECTIVE))
        cases.append((chain(length + 1), chain(length), HomKind.BIJECTIVE))
    return cases


def _run(workload, enumerate_all: bool):
    def new_pass():
        if enumerate_all:
            return [sorted(map(sorted, (h.items() for h in
                                        homomorphisms(q1, q2, kind))))
                    for q1, q2, kind in workload]
        return [has_homomorphism(q1, q2, kind) for q1, q2, kind in workload]

    def old_pass():
        if enumerate_all:
            return [sorted(map(sorted, (h.items() for h in
                                        reference_homomorphisms(q1, q2,
                                                                kind))))
                    for q1, q2, kind in workload]
        return [reference_has_homomorphism(q1, q2, kind)
                for q1, q2, kind in workload]

    start = time.perf_counter()
    new_answers = new_pass()
    new_seconds = time.perf_counter() - start
    start = time.perf_counter()
    old_answers = old_pass()
    old_seconds = time.perf_counter() - start
    assert new_answers == old_answers
    return new_seconds, old_seconds


def test_cold_path_speedup_over_reference_searcher():
    sections = [
        ("random existence (12 atoms)", _existence_workload(), False),
        ("random enumeration (9 atoms)", _enumeration_workload(), True),
        ("covering refutations (chains)", _covering_refutation_workload(),
         False),
    ]
    total_new = total_old = 0.0
    print()
    for label, workload, enumerate_all in sections:
        new_seconds, old_seconds = _run(workload, enumerate_all)
        total_new += new_seconds
        total_old += old_seconds
        print(f"  {label:32s} new {1e3 * new_seconds:8.1f} ms   "
              f"old {1e3 * old_seconds:8.1f} ms   "
              f"{old_seconds / max(new_seconds, 1e-9):5.1f}x")
    speedup = total_old / max(total_new, 1e-9)
    print(f"  {'aggregate cold path':32s} new {1e3 * total_new:8.1f} ms   "
          f"old {1e3 * total_old:8.1f} ms   {speedup:5.1f}x")
    if not SMOKE:
        assert speedup >= 2.0, (
            f"indexed search must be >= 2x the reference cold, "
            f"got {speedup:.2f}x")


def test_hom_cache_hits_from_covering_ucq_and_bounds_paths():
    """The PR-2 routing goal, asserted end to end.

    Before the context was threaded through `covers`, the UCQ
    conditions and `_bounded_verdict`, these decisions recorded zero
    hom/cover/description hits — every path recomputed its searches.
    """
    engine = ContainmentEngine()
    q1 = "Q() :- R(u, v), R(u, w)"
    q2 = "Q() :- R(u, v), R(u, v)"
    engine.decide(q1, q2, "Lin[X]")                      # Chcov covering
    engine.decide([q1], [q2, "Q() :- S(x)"], "N")        # bounds sweep
    engine.decide(
        ["Q() :- R(u, u)", "Q() :- R(v, w), R(w, v)"],
        ["Q() :- R(a, b)", "Q() :- R(c, c), R(c, c)"],
        "Ssur[X]")                                       # ։∞ matching
    info = engine.cache_info()
    print(f"\n  cache_info after covering/bounds/։∞ decisions: {info}")
    assert info["hom_hits"] > 0
    assert info["cover_calls"] > 0
    assert info["description_hits"] > 0
    # Warm repeat: the whole Table-1 surface is now served from LRUs.
    before = dict(info)
    engine.decide(q1, q2, "Lin[X]")
    engine.decide([q1], [q2, "Q() :- S(x)"], "N")
    after = engine.cache_info()
    assert after["verdict_hits"] == before["verdict_hits"] + 2
    assert after["hom_calls"] == before["hom_calls"]
    assert after["cover_calls"] == before["cover_calls"]
