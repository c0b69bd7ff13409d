"""The refinement-based canonical labeling layer: scale, agreement, warmth.

PR 5 replaced the factorial canonical-key/renaming/automorphism
machinery (minimize a serialization over all permutations of the
existential variables — non-terminating past ~10) with the
individualization-refinement engine of
:mod:`repro.homomorphisms.canonical`.  This benchmark pins its three
claims:

* **scale** — 20-existential complete CCQs, including the fully
  symmetric worst case (``|Aut| = 20!``), get ``canonical_key`` +
  ``canonical_rename`` + ``automorphism_count`` in **< 100 ms** each
  (the old implementation does not terminate above ~10 existentials);
* **agreement** — on reference-tractable sizes the new keys induce
  exactly the isomorphism classes of the preserved factorial reference
  (``tests/reference_iso.py``), and automorphism counts
  match it on every query of the sweep;
* **warm recall** — the counting-condition workload (``→֒∞``/``→֒k``
  over ``N[X]``/``N_2[X]``/``N_3[X]``) replayed through a snapshot-
  warmed engine recomputes **zero** canonical forms and stays
  byte-identical to the cold run.  A restored class table carries each
  class's ``|Aut|``, so that replay asks the ``canonical`` layer
  nothing; a second replay with the class tables dropped rebuilds them,
  and there the ``canonical`` layer reports a perfect hit ratio.

``REPRO_BENCH_SMOKE=1`` (the CI default) keeps every equality and
cache-routing assertion but skips the machine-speed-sensitive timing
thresholds.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time
from pathlib import Path

from repro.api import ContainmentEngine
from repro.homomorphisms.canonical import compute_canonical_form
from repro.homomorphisms.isomorphism import (automorphism_count,
                                             canonical_key, canonical_rename)
from repro.queries import CQWithInequalities
from repro.queries.atoms import Atom, Var
from repro.queries.generators import random_cq
from repro.service import load_snapshot, save_snapshot

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.reference_iso import (reference_automorphism_count,  # noqa: E402
                                 reference_canonical_key)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def complete_ccq(atoms, head=()):
    """All-pairs-unequal CCQ over the atoms' existential variables."""
    existential = sorted(
        {v for atom in atoms for v in atom.variables()} - set(head))
    pairs = [(x, y) for i, x in enumerate(existential)
             for y in existential[i + 1:]]
    return CQWithInequalities(head, atoms, pairs)


def large_ccqs() -> list[tuple[str, CQWithInequalities, int]]:
    """The 20-existential shapes, worst case (full symmetry) first."""
    return [
        ("symmetric-20",
         complete_ccq([Atom("S", (Var(f"x{i:02d}"),)) for i in range(20)]),
         math.factorial(20)),
        ("chain-20",
         complete_ccq([Atom("R", (Var(f"x{i:02d}"), Var(f"x{i + 1:02d}")))
                       for i in range(19)]),
         1),
        ("two-blocks-10",
         complete_ccq([Atom("S", (Var(f"x{i:02d}"),)) for i in range(10)]
                      + [Atom("T", (Var(f"y{i:02d}"),)) for i in range(10)]),
         math.factorial(10) ** 2),
        ("matching-10-pairs",
         complete_ccq([Atom("R", (Var(f"a{i:02d}"), Var(f"b{i:02d}")))
                       for i in range(10)]),
         math.factorial(10)),
    ]


def test_large_ccq_canonicalization_under_100ms():
    """Key + renaming + |Aut| for every 20-existential shape, < 100 ms
    each (the acceptance bar; the factorial scheme needed ~20! ≈ 2.4e18
    serializations for the symmetric case)."""
    for name, query, expected_aut in large_ccqs():
        start = time.perf_counter()
        form = compute_canonical_form(query)
        renamed = query.substitute(form.renaming_map())
        elapsed_ms = (time.perf_counter() - start) * 1e3
        assert form.automorphisms == expected_aut, name
        assert len(renamed.existential_vars()) == 20, name
        assert renamed.head == query.head, name
        # renaming invariance: shuffled variable names, same key
        rng = random.Random(7)
        shuffled = query.substitute({
            var: Var(f"q{rng.randrange(10 ** 9)}_{i}")
            for i, var in enumerate(query.existential_vars())
        })
        assert compute_canonical_form(shuffled).key == form.key, name
        print(f"\n  {name}: {elapsed_ms:7.1f} ms, |Aut| = "
              f"{form.automorphisms}")
        if not SMOKE:
            assert elapsed_ms < 100.0, (
                f"{name}: canonicalization took {elapsed_ms:.1f} ms, "
                "the acceptance bar is < 100 ms")


def test_agreement_with_factorial_reference():
    """New vs old on a random sweep: same isomorphism classes, same
    automorphism counts (old keys are only tractable at small sizes)."""
    rng = random.Random(424242)
    count = 40 if SMOKE else 120
    queries = [random_cq(rng, max_atoms=4, max_vars=4,
                         head_arity=rng.choice([0, 1]))
               for _ in range(count)]
    start = time.perf_counter()
    new_keys = [canonical_key(query) for query in queries]
    new_seconds = time.perf_counter() - start
    start = time.perf_counter()
    old_keys = [reference_canonical_key(query) for query in queries]
    old_seconds = time.perf_counter() - start
    mismatches = 0
    for i in range(len(queries)):
        assert (automorphism_count(queries[i])
                == reference_automorphism_count(queries[i])), queries[i]
        for j in range(i + 1, len(queries)):
            if ((new_keys[i] == new_keys[j])
                    != (old_keys[i] == old_keys[j])):
                mismatches += 1
    assert mismatches == 0
    print(f"\n  {count} queries: refinement {new_seconds * 1e3:.1f} ms, "
          f"factorial reference {old_seconds * 1e3:.1f} ms")


def counting_workload() -> list[dict]:
    """Requests decided by the counting conditions ``→֒∞``/``→֒k``."""
    unions = [
        (["Q() :- R(u, v), R(u, u)", "Q() :- R(u, v), R(v, v)"],
         ["Q() :- R(u, v), R(w, w)", "Q() :- R(u, u), R(u, u)"]),  # Ex. 5.7
        (["Q() :- R(u, u)", "Q() :- R(u, u)"], ["Q() :- R(u, u)"]),
        (["Q() :- R(u, u)"], ["Q() :- R(u, u)", "Q() :- R(u, u)"]),
        (["Q() :- R(v), S(v)"],
         ["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"]),              # Ex. 5.4
        (["Q() :- R(u, v), R(v, w)"], ["Q() :- R(u, v), R(v, u)"]),
        (["Q() :- R(u, v), R(v, u)"], ["Q() :- R(u, v), R(v, w)"]),
    ]
    requests = []
    for semiring in ("N[X]", "N_2[X]", "N_3[X]"):
        for q1, q2 in unions:
            requests.append({"semiring": semiring, "q1": q1, "q2": q2})
    for index, request in enumerate(requests):
        request["id"] = f"canon-{index}"
    return requests


def test_warm_canonical_recalls_through_engine(tmp_path):
    requests = counting_workload()
    cold = ContainmentEngine()
    start = time.perf_counter()
    cold_docs = [doc.to_dict() for doc in cold.decide_many(requests)]
    cold_seconds = time.perf_counter() - start
    assert cold.stats.canon_calls > 0, \
        "the counting workload must exercise the canonical layer"
    report = cold.cache_stats()["layers"]["canonical"]
    assert report["entries"] > 0 and report["calls"] > 0
    snapshot = tmp_path / "canonical.snap"
    save_snapshot(cold, snapshot, include_verdicts=False)

    warm = ContainmentEngine()
    counts = load_snapshot(warm, snapshot)
    assert counts["canonical"] == cold.cache_info()["canon_entries"]
    start = time.perf_counter()
    warm_docs = [doc.to_dict() for doc in warm.decide_many(requests)]
    warm_seconds = time.perf_counter() - start

    assert warm_docs == cold_docs, \
        "warm counting verdicts must be byte-identical to the cold run"
    assert warm.stats.canon_calls == 0, (
        "a warmed run must recall every canonical form, computed "
        f"{warm.stats.canon_calls} fresh")

    # Without the restored class tables the replay rebuilds them, and
    # every form the rebuild needs must be a recall.
    rebuilt = ContainmentEngine()
    load_snapshot(rebuilt, snapshot)
    rebuilt._descriptions.clear()
    assert [doc.to_dict() for doc in rebuilt.decide_many(requests)] \
        == cold_docs
    assert rebuilt.stats.canon_calls == 0, (
        "rebuilt class tables must recall every canonical form, computed "
        f"{rebuilt.stats.canon_calls} fresh")
    assert rebuilt.stats.canon_hits > 0
    assert rebuilt.cache_stats()["layers"]["canonical"]["hit_ratio"] == 1.0
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    print(f"\n  {len(requests)} counting decisions: cold "
          f"{cold_seconds * 1e3:8.1f} ms, warm {warm_seconds * 1e3:8.1f} ms "
          f"({speedup:.1f}x)")
