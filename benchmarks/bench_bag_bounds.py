"""Bag-semantics bounds by homomorphism kernels: same bytes, less search.

``N`` and ``R+`` lie in no decidable class, so their verdicts come from
the bounds search of ``_bounded_verdict``, whose costly conditions are
``⟨Q2⟩ ⇉2 ⟨Q1⟩`` (Cor. 5.23), ``⟨Q2⟩ ։∞ ⟨Q1⟩`` (Cor. 5.16) and
``⟨Q2⟩ →֒∞ ⟨Q1⟩`` (Prop. 5.12).  The package builds only ``⟨Q1⟩``,
relative to the pair's head variables and constants, as a class table
with one CCQ per orbit of the member's automorphism group on its
partitions with bindings: the
occurrences of ``⟨Q2⟩`` are read off the kernels of the homomorphisms
from the given ``Q2`` members into each ``⟨Q1⟩`` class representative.
This benchmark sweeps chain and clique pairs (``Q1`` on ``n``
terms, ``Q2`` on ``n - 1``), and chains rooted at a head variable or
anchored at a constant, over ``N`` and ``R+`` and pins, per pair:

* **byte identity** — the verdict document equals, byte for byte, the
  one produced when the dispatch runs the oracles of
  ``tests/occurrence_conditions.py`` for all three conditions instead:
  the class-level versions, which build both descriptions, and the
  occurrence grid (with the class-level ``→֒k``, which has no grid
  version).  The oracles expand every CCQ with the variable-level
  quotient of ``tests/reference_quotient.py`` and group them with
  ``isomorphism_classes`` themselves, never through the engine's coded
  quotients or its class table, so the identity is checked against an
  independent expansion;
* **less search** — the kernel run's homomorphism searches, kernel
  enumerations and canonical forms (``hom_calls + kernel_calls +
  canon_calls``) are no more than either oracle run's searches and
  canonical forms (an oracle enumerates no kernels), and the kernel run
  makes at most one covered-atom enumeration (``cover_calls``): each
  pair is one CQ against one CQ.  Canonical forms count on both sides
  because the oracles' ``→֒∞`` compares ``⟨Q2⟩`` class sizes where the
  kernel run enumerates: an ``R+`` pair, whose only bag condition that
  is, makes one search in the oracle runs and one search plus one
  kernel enumeration in the kernel run, but canonicalises a fifth to
  a third fewer CCQs.  Every run uses a fresh engine.

In front of those conditions the dispatch runs a probe refuter
(``repro.core.containment.refuted``): each swept ``n ⊆ n - 1`` pair is
refuted there by one tagged instance, before any description is built.
So the byte-identity and less-search sweep, and the warm sweep below,
run with the refuter patched out (the ``no_refuter`` fixture), which
is what keeps them measuring the bounds search; a separate test checks
that, unpatched, every swept pair reads ``refuted`` and builds no
description.

The oracle runs patch only those three conditions, not the dispatch's
``transferred`` step (``Q1 ⊆N[X] Q2`` by a matching of members under
bijective homomorphisms, carried along ``N[X] → K``).  It never
decides a swept pair: ``Q1``'s one member has more atoms than ``Q2``'s,
so no bijective homomorphism exists, and the identities above compare
the bounds search itself.  The test asserts that no swept verdict is
``transferred``.

A head-pattern test decides the pair ``Q(x0..x{k-1}) :- R(xi, zi) for
each i, R(z0, 'a'), R('b', z1)`` against itself over ``N``, ``N_2`` and
``T+`` on a fresh engine, for head arity ``k`` = 2..4 (5 in full
mode).  Its ``⟨Q⟩`` splits into a Bell-number count of head patterns,
but the identity is a bijective homomorphism, so each pair must answer
``transferred`` without computing a description or a canonical form (a
work-count gate; no wall clock is checked).  Three near misses at
``k = 2`` must not be ``transferred`` and must give the same verdict
bytes with the transfer patched out, which is the dispatch without it.
``Q2`` is the query with ``'a'`` changed to ``'c'``, which the missing
plain homomorphism refutes before any head pattern; or the query
without ``R('b', z1)``, or with one more atom ``R(x0, w)``, which keep
the plain homomorphism but have no bijective one.  Those two build a
description (``N``, ``N_2``) or a small model (``T+``) per head
pattern, except the dropped atom over ``N`` and ``N_2``, which the
probe refuter refutes on the first head pattern.  They pin behaviour for the per-pattern
cost; no wall clock is checked (``T+`` takes about half a second on
each; at ``k = 3`` it takes over a minute, so no mode runs it).

A second test re-decides the whole sweep warm: one engine decides
every pair, its structural caches go through a snapshot file
(verdicts left out, so every decision runs again), and a fresh engine
restored from it must give byte-identical documents without computing
a description or looking up a canonical form, hit or miss (``⟨Q1⟩``
and ``⇉2``'s set-reduced table are both recalled from the
``descriptions`` layer).  It prints both passes' milliseconds.

It prints the milliseconds of each run, the cover count, the work
counts and the kernel enumerations per size.  ``REPRO_BENCH_SMOKE=1``
(the CI default) stops at 5 variables and checks no wall-clock figure;
the full sweep reaches 6 variables and requires the kernel decisions of
the largest size to take less time than the occurrence grid's.  The
full sweep then reports, without asserting on them, the milliseconds
and canonical labelings of the ``N`` chain-7 ⊆ chain-6 and chain-8 ⊆
chain-7 pairs (``Q1`` on 7 and 8 variables), each on a fresh engine
(the oracles are too slow to run there).
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.core.containment as containment
from repro.api import ContainmentEngine
from repro.queries import CQ, Atom, Var
from repro.service import read_snapshot, save_snapshot

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.occurrence_conditions import (class_bi_count_k,  # noqa: E402
                                         class_covering_2, class_sur_infty,
                                         occurrence_covering_2,
                                         occurrence_sur_infty)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SIZES = range(3, 6 if SMOKE else 7)
SEMIRINGS = ("N", "R+")

#: ``name → (covering_2, sur_infty, bi_count_k)`` of each oracle run.
ORACLES = {
    "class": (class_covering_2, class_sur_infty, class_bi_count_k),
    "grid": (occurrence_covering_2, occurrence_sur_infty, class_bi_count_k),
}


#: The shapes swept: a directed chain and clique, and the chain with its
#: first term a head variable (``rooted``) or the constant ``'c'``
#: (``anchored``), whose descriptions bind blocks to that rigid term.
KINDS = ("chain", "clique", "rooted", "anchored")


def shape(kind: str, size: int) -> CQ:
    """A directed chain or clique on ``size`` terms."""
    if kind == "clique":
        pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    else:
        pairs = [(i, i + 1) for i in range(size - 1)]
    terms = [Var(f"v{i}") for i in range(size)]
    if kind == "anchored":
        terms[0] = "c"
    head = (terms[0],) if kind == "rooted" else ()
    return CQ(head, [Atom("E", (terms[i], terms[j])) for i, j in pairs])


@pytest.fixture
def no_refuter(monkeypatch):
    """The dispatch without its probe refuter, so the swept pairs reach
    the bounds search this file measures."""
    monkeypatch.setattr(containment, "refuted", lambda *args: None)


@contextmanager
def oracles(name: str):
    """Run the dispatch on one oracle generation of the conditions."""
    names = ("covering_2", "sur_infty", "bi_count_k")
    saved = [getattr(containment, attr) for attr in names]
    for attr, oracle in zip(names, ORACLES[name]):
        setattr(containment, attr, oracle)
    try:
        yield
    finally:
        for attr, original in zip(names, saved):
            setattr(containment, attr, original)


def decide(q1: CQ, q2: CQ, semiring: str) -> tuple[str, float, dict]:
    """Verdict bytes, seconds and the compute counters on a fresh
    engine."""
    engine = ContainmentEngine()
    start = time.perf_counter()
    document = engine.decide(q1, q2, semiring)
    elapsed = time.perf_counter() - start
    text = json.dumps(document.to_dict(), ensure_ascii=False)
    stats = engine.stats
    return text, elapsed, {"cover": stats.cover_calls,
                           "kernel": stats.kernel_calls,
                           "description": stats.description_calls,
                           "small_model": stats.small_model_calls,
                           "work": (stats.hom_calls + stats.kernel_calls
                                    + stats.canon_calls)}


def test_swept_pairs_are_refuted_before_the_bounds():
    for size in SIZES:
        for semiring in SEMIRINGS:
            for kind in KINDS:
                text, _, counts = decide(shape(kind, size),
                                         shape(kind, size - 1), semiring)
                case = (semiring, kind, size)
                assert json.loads(text)["method"] == "refuted", case
                assert counts["description"] == 0, case


def test_kernel_bounds_match_class_and_occurrence_oracles(no_refuter):
    print()
    print(f"{'size':>4} {'kernel ms':>9} {'class ms':>9} {'grid ms':>9} "
          f"{'cover':>6} {'work':>6} {'class work':>10} {'grid work':>9} "
          f"{'kernels':>8}")
    totals = {}
    for size in SIZES:
        seconds = dict.fromkeys(("kernel", *ORACLES), 0.0)
        work = dict.fromkeys(("kernel", *ORACLES), 0)
        cover = kernels = 0
        for semiring in SEMIRINGS:
            for kind in KINDS:
                q1, q2 = shape(kind, size), shape(kind, size - 1)
                case = (semiring, kind, size)
                text, elapsed, counts = decide(q1, q2, semiring)
                assert counts["cover"] <= 1, case
                assert json.loads(text)["method"] != "transferred", case
                seconds["kernel"] += elapsed
                work["kernel"] += counts["work"]
                cover += counts["cover"]
                kernels += counts["kernel"]
                for name in ORACLES:
                    with oracles(name):
                        expected, o_elapsed, o_counts = decide(
                            q1, q2, semiring)
                    assert text == expected, (name, *case)
                    assert o_counts["kernel"] == 0, (name, *case)
                    assert counts["cover"] <= o_counts["cover"], (name, *case)
                    assert counts["work"] <= o_counts["work"], (name, *case)
                    seconds[name] += o_elapsed
                    work[name] += o_counts["work"]
        totals[size] = seconds
        print(f"{size:>4} {seconds['kernel'] * 1e3:>9.1f} "
              f"{seconds['class'] * 1e3:>9.1f} "
              f"{seconds['grid'] * 1e3:>9.1f} {cover:>6} "
              f"{work['kernel']:>6} {work['class']:>10} "
              f"{work['grid']:>9} {kernels:>8}")
    if not SMOKE:
        seconds = totals[max(SIZES)]
        assert seconds["kernel"] < seconds["grid"], totals


def test_warm_sweep_recomputes_no_description(tmp_path, no_refuter):
    pairs = [(shape(kind, size), shape(kind, size - 1), semiring)
             for size in SIZES for semiring in SEMIRINGS for kind in KINDS]
    cold_engine = ContainmentEngine()
    start = time.perf_counter()
    cold = [json.dumps(cold_engine.decide(*pair).to_dict(),
                       ensure_ascii=False) for pair in pairs]
    cold_s = time.perf_counter() - start
    path = tmp_path / "sweep.snap"
    save_snapshot(cold_engine, path, include_verdicts=False)
    engine = ContainmentEngine()
    engine.import_caches(read_snapshot(path))
    start = time.perf_counter()
    warm = [json.dumps(engine.decide(*pair).to_dict(), ensure_ascii=False)
            for pair in pairs]
    warm_s = time.perf_counter() - start
    print(f"\n{len(pairs)} pairs: cold {cold_s * 1e3:.1f} ms, "
          f"warm {warm_s * 1e3:.1f} ms")
    assert warm == cold
    stats = engine.stats
    assert stats.verdict_hits == 0
    assert stats.description_calls == 0
    assert stats.canon_calls == stats.canon_hits == 0


#: ``Q1`` sizes of the chain pairs reported (not asserted) in full mode.
CHAIN_REPORT = (7, 8)


@pytest.mark.skipif(SMOKE, reason="full mode only: seconds per pair")
def test_report_long_chain_pairs():
    print()
    print(f"{'pair':>12} {'ms':>8} {'canonical forms':>16}")
    for size in CHAIN_REPORT:
        engine = ContainmentEngine()
        q1, q2 = shape("chain", size), shape("chain", size - 1)
        start = time.perf_counter()
        engine.decide(q1, q2, "N")
        elapsed = time.perf_counter() - start
        print(f"{f'N chain {size}':>12} {elapsed * 1e3:>8.0f} "
              f"{engine.stats.canon_calls:>16}")


#: Head arities of the head-pattern pairs, and the semirings deciding them.
HEAD_ARITIES = range(2, 5 if SMOKE else 6)
HEAD_SEMIRINGS = ("N", "N_2", "T+")


def head_pattern_query(arity: int, constant: str = "a") -> CQ:
    """``Q(x0..x{k-1}) :- R(xi, zi) for each i, R(z0, constant),
    R('b', z1)``: ``k`` head variables and two constants."""
    heads = [Var(f"x{i}") for i in range(arity)]
    blocks = [Var(f"z{i}") for i in range(arity)]
    atoms = [Atom("R", (head, block)) for head, block in zip(heads, blocks)]
    atoms += [Atom("R", (blocks[0], constant)), Atom("R", ("b", blocks[1]))]
    return CQ(heads, atoms)


def test_head_pattern_self_pairs_are_transferred():
    print()
    print(f"{'k':>2} {'semiring':>8} {'ms':>8}")
    for arity in HEAD_ARITIES:
        query = head_pattern_query(arity)
        for semiring in HEAD_SEMIRINGS:
            engine = ContainmentEngine()
            start = time.perf_counter()
            document = engine.decide(query, query, semiring)
            elapsed = time.perf_counter() - start
            case = (arity, semiring)
            assert document.result is True, case
            assert document.method == "transferred", case
            assert engine.stats.description_calls == 0, case
            assert engine.stats.canon_calls == 0, case
            print(f"{arity:>2} {semiring:>8} {elapsed * 1e3:>8.2f}")


def near_misses(arity: int) -> dict[str, CQ]:
    """``Q2``s for ``head_pattern_query(arity)`` with no bijective
    homomorphism into it: one constant changed (no plain homomorphism
    either), ``R('b', z1)`` dropped, or one more atom ``R(x0, w)``."""
    query = head_pattern_query(arity)
    return {
        "constant": head_pattern_query(arity, "c"),
        "dropped": CQ(query.head, [atom for atom in query.atoms
                                   if atom.terms[0] != "b"]),
        "extended": CQ(query.head, [*query.atoms,
                                    Atom("R", (Var("x0"), Var("w")))]),
    }


def test_head_pattern_near_miss_is_not_transferred(monkeypatch):
    q1 = head_pattern_query(2)
    cases = [(name, q2, semiring) for name, q2 in near_misses(2).items()
             for semiring in HEAD_SEMIRINGS]
    texts, idle = {}, set()
    print()
    print(f"{'Q2':>8} {'semiring':>8} {'ms':>8} {'descriptions':>12} "
          f"{'small models':>12}")
    for name, q2, semiring in cases:
        texts[name, semiring], elapsed, counts = decide(q1, q2, semiring)
        assert json.loads(texts[name, semiring])["method"] != "transferred"
        if not counts["description"] + counts["small_model"]:
            idle.add((name, semiring))
        print(f"{name:>8} {semiring:>8} {elapsed * 1e3:>8.1f} "
              f"{counts['description']:>12} {counts['small_model']:>12}")
    # Only a refutation before the head patterns, or the probe refuter's,
    # builds neither.
    assert idle == {("constant", semiring) for semiring in HEAD_SEMIRINGS} \
        | {("dropped", "N"), ("dropped", "N_2")}, idle
    monkeypatch.setattr(containment, "transferred", lambda *args: None)
    for name, q2, semiring in cases:
        assert decide(q1, q2, semiring)[0] == texts[name, semiring], \
            (name, semiring)
