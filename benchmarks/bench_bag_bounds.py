"""Bag-semantics bounds over isomorphism classes: same bytes, less search.

``N`` and ``R+`` lie in no decidable class, so their verdicts come from
the bounds search of ``_bounded_verdict``, whose costly conditions are
``⟨Q2⟩ ⇉2 ⟨Q1⟩`` (Cor. 5.23) and ``⟨Q2⟩ ։∞ ⟨Q1⟩`` (Cor. 5.16).  On
these Boolean, constant-free pairs, ``⇉2``'s ``⇉1`` part runs on the
given queries (``Q2 ⇉1 Q1`` iff ``⟨Q2⟩ ⇉1 ⟨Q1⟩``); its class-level part
is the two-preimage count over isomorphism classes of the complete
descriptions, and ``։∞`` is a matching over those classes.  This
benchmark sweeps chain and clique pairs (``Q1`` on ``n`` variables,
``Q2`` on ``n - 1``) over ``N`` and ``R+`` and pins, per pair:

* **byte identity** — the verdict document equals, byte for byte, the
  one produced when the dispatch runs the occurrence-grid oracles of
  ``tests/occurrence_conditions.py`` instead;
* **less search** — the class-level run issues no more homomorphism
  searches (``hom_calls``) than the oracle run, and at most one
  covered-atom enumeration (``cover_calls``): each pair is one CQ
  against one CQ.  Both runs use a fresh engine.

It prints the milliseconds and both call counts per size.
``REPRO_BENCH_SMOKE=1`` (the CI default) stops at 5 variables and
checks no wall-clock figure; the full sweep reaches 6 variables and
requires the class-level decisions of the largest size to take less
time than the oracle's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import repro.core.containment as containment
from repro.api import ContainmentEngine
from repro.queries import CQ, Atom, Var

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.occurrence_conditions import (occurrence_covering_2,  # noqa: E402
                                         occurrence_sur_infty)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SIZES = range(3, 6 if SMOKE else 7)
SEMIRINGS = ("N", "R+")


def shape(kind: str, size: int) -> CQ:
    """A directed chain or clique on ``size`` variables."""
    if kind == "chain":
        pairs = [(i, i + 1) for i in range(size - 1)]
    else:
        pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    return CQ((), [Atom("E", (Var(f"v{i}"), Var(f"v{j}"))) for i, j in pairs])


@contextmanager
def occurrence_oracles():
    """Run the dispatch on the occurrence-grid conditions."""
    saved = containment.covering_2, containment.sur_infty
    containment.covering_2 = occurrence_covering_2
    containment.sur_infty = occurrence_sur_infty
    try:
        yield
    finally:
        containment.covering_2, containment.sur_infty = saved


def decide(q1: CQ, q2: CQ, semiring: str) -> tuple[str, float, int, int]:
    """Verdict bytes, seconds, cover calls and hom calls on a fresh
    engine."""
    engine = ContainmentEngine()
    start = time.perf_counter()
    document = engine.decide(q1, q2, semiring)
    elapsed = time.perf_counter() - start
    text = json.dumps(document.to_dict(), ensure_ascii=False)
    return text, elapsed, engine.stats.cover_calls, engine.stats.hom_calls


def test_class_level_bounds_match_occurrence_oracle():
    print()
    print(f"{'size':>4} {'class ms':>9} {'oracle ms':>10} "
          f"{'cover':>13} {'hom':>15}")
    totals = {}
    for size in SIZES:
        class_s = oracle_s = 0.0
        class_cover = oracle_cover = class_hom = oracle_hom = 0
        for semiring in SEMIRINGS:
            for kind in ("chain", "clique"):
                q1, q2 = shape(kind, size), shape(kind, size - 1)
                text, seconds, cover, hom = decide(q1, q2, semiring)
                with occurrence_oracles():
                    expected, o_seconds, o_cover, o_hom = decide(
                        q1, q2, semiring)
                assert text == expected, (semiring, kind, size)
                assert cover <= 1, (semiring, kind, size)
                assert cover <= o_cover, (semiring, kind, size)
                assert hom <= o_hom, (semiring, kind, size)
                class_s += seconds
                oracle_s += o_seconds
                class_cover += cover
                oracle_cover += o_cover
                class_hom += hom
                oracle_hom += o_hom
        totals[size] = class_s, oracle_s
        print(f"{size:>4} {class_s * 1e3:>9.1f} {oracle_s * 1e3:>10.1f} "
              f"{class_cover:>6}/{oracle_cover:<6} "
              f"{class_hom:>7}/{oracle_hom:<7}")
    if not SMOKE:
        class_s, oracle_s = totals[max(SIZES)]
        assert class_s < oracle_s, totals
