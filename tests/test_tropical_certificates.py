"""The certificate-memoized tropical order layer.

Covers the contract of ``ContainmentEngine.poly_leq`` and its snapshot
behavior: certificates round-trip through snapshot save/load (with
corrupt and stale files rejected wholesale), recall-time revalidation
catches tampered or mis-keyed certificates and recomputes, and the
memoized decisions cross-validate against the bounded grid checker on
randomized pairs.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.api import ContainmentEngine
from repro.polynomials import (MAX_PLUS, MIN_PLUS, Polynomial,
                               TropicalOrderCertificate, canonical_pair,
                               certificate_valid, decide_poly_leq,
                               grid_violation, max_plus_poly_leq,
                               min_plus_poly_leq)
from repro.polynomials.polynomial import Monomial
from repro.semirings import TMINUS, TPLUS, VITERBI
from repro.service import (SNAPSHOT_MAGIC, SnapshotError, load_snapshot,
                           read_snapshot, save_snapshot, write_snapshot)

TROPICAL_REQUESTS = [
    {"semiring": "T+", "q1": "Q() :- R(u, v), R(u, w)",
     "q2": "Q() :- R(u, v), R(u, v)"},
    {"semiring": "T-", "q1": "Q() :- R(u, v)",
     "q2": "Q() :- R(u, v), R(u, v)"},
    {"semiring": "T+", "q1": ["Q() :- R(v), S(v)"],
     "q2": ["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"]},
    {"semiring": "V", "q1": "Q() :- E(x, y), E(y, z)",
     "q2": "Q() :- E(u, v), E(v, u)"},
]


def poly(terms):
    return Polynomial.parse_terms(terms)


def random_poly(rng, variables=("x", "y"), max_terms=3):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        word = [rng.choice(variables) for _ in range(rng.randint(1, 3))]
        terms.append((Monomial.from_variables(word), 1))
    return Polynomial(terms)


# --- the engine memo ---------------------------------------------------

def test_engine_poly_leq_matches_plain_functions_and_counts_hits():
    engine = ContainmentEngine()
    left = poly([(1, "xx"), (2, "xy"), (1, "yy")])
    right = poly([(1, "xx"), (1, "yy")])
    assert engine.poly_leq(TPLUS, left, right) is True
    assert engine.stats.poly_calls == 1
    # Second ask: a revalidated certificate recall, not an LP.
    assert engine.poly_leq(TPLUS, left, right) is True
    assert engine.stats.poly_calls == 1
    assert engine.stats.poly_hits == 1
    # Viterbi shares the min-plus kind — same key, immediate hit.
    assert engine.poly_leq(VITERBI, left, right) is True
    assert engine.stats.poly_calls == 1
    assert engine.stats.poly_hits == 2
    # Max-plus is a different kind with its own entries.
    assert engine.poly_leq(TMINUS, left, right) == \
        max_plus_poly_leq(left, right)
    assert engine.stats.poly_calls == 2


def test_renamed_pairs_share_one_certificate():
    engine = ContainmentEngine()
    assert engine.poly_leq(TPLUS, poly([(1, "ab")]), poly([(1, "aa")])) \
        == min_plus_poly_leq(poly([(1, "ab")]), poly([(1, "aa")]))
    calls = engine.stats.poly_calls
    # The same pair under fresh variable names is a cache *hit*.
    assert engine.poly_leq(TPLUS, poly([(1, "uz")]), poly([(1, "uu")])) \
        == min_plus_poly_leq(poly([(1, "ab")]), poly([(1, "aa")]))
    assert engine.stats.poly_calls == calls
    assert engine.stats.poly_hits >= 1


def test_non_tropical_semirings_pass_through_uncached():
    from repro.semirings import B

    engine = ContainmentEngine()
    left, right = poly([(1, "x")]), poly([(1, "x"), (1, "y")])
    assert engine.poly_leq(B, left, right) == B.poly_leq(left, right)
    assert engine.stats.poly_calls == 0
    assert engine.cache_info()["poly_entries"] == 0


def test_cache_stats_reports_poly_layer_with_safe_ratios():
    engine = ContainmentEngine()
    report = engine.cache_stats()
    # Zero traffic everywhere: every ratio must be None, never a crash.
    for name, layer in report["layers"].items():
        assert layer["hit_ratio"] is None, name
    assert report["layers"]["poly_orders"]["rejected"] == 0
    engine.decide("Q() :- R(u, v)", "Q() :- R(u, v), R(u, v)", "T+")
    engine.decide("Q() :- R(u, v)", "Q() :- R(u, v), R(u, v)", "T+")
    report = engine.cache_stats()
    layer = report["layers"]["poly_orders"]
    assert layer["calls"] > 0 and layer["entries"] > 0
    assert 0.0 <= layer["hit_ratio"] <= 1.0
    assert report["layers"]["verdicts"]["hits"] == 1
    # Layers the workload never touched still answer None.
    assert report["layers"]["covered"]["hit_ratio"] is None


# --- revalidation ------------------------------------------------------

def test_tampered_certificate_is_rejected_and_recomputed():
    engine = ContainmentEngine()
    left, right = poly([(1, "xy")]), poly([(1, "xx")])
    truth = min_plus_poly_leq(left, right)
    assert engine.poly_leq(TPLUS, left, right) == truth
    ((key, certificate),) = engine.export_caches()["poly_orders"]
    # Flip the claimed answer but keep the certificate's witness data:
    # revalidation must notice the arithmetic no longer proves the claim.
    forged = dataclasses.replace(
        certificate, holds=not certificate.holds,
        witness=None if certificate.holds else certificate.witness,
        witnesses=certificate.witnesses if certificate.holds else None)
    engine.import_caches({"poly_orders": [(key, forged)]})
    assert engine.poly_leq(TPLUS, left, right) == truth
    assert engine.stats.poly_rejected == 1
    assert engine.stats.poly_calls == 2  # recomputed, not trusted
    # The forged entry was evicted and replaced by a valid one.
    ((_, restored),) = engine.export_caches()["poly_orders"]
    assert certificate_valid(restored, MIN_PLUS, *restored.key)


def test_mis_keyed_certificate_is_rejected():
    engine = ContainmentEngine()
    a, b = poly([(1, "x")]), poly([(1, "x"), (1, "y")])
    c, d = poly([(1, "xx")]), poly([(1, "x")])
    assert engine.poly_leq(TPLUS, a, b) == min_plus_poly_leq(a, b)
    entries = engine.export_caches()["poly_orders"]
    ((key, certificate),) = entries
    # Attach that certificate to a *different* pair's key (a stale or
    # corrupted snapshot could do this): the recall must reject it.
    other_key = ("min-plus",) + canonical_pair(c, d)[:2]
    engine.import_caches({"poly_orders": [(other_key, certificate)]})
    assert engine.poly_leq(TPLUS, c, d) == min_plus_poly_leq(c, d)
    assert engine.stats.poly_rejected == 1


def test_a_certificate_recalled_under_its_exact_key_is_revalidated():
    """A canonical pair (as the small-model layer hands them out) is
    found under its own key without canonicalizing; that recall is
    revalidated like any other."""
    engine = ContainmentEngine()
    a, b = canonical_pair(poly([(1, "x")]), poly([(1, "x"), (1, "y")]))[:2]
    c, d = canonical_pair(poly([(1, "xx")]), poly([(1, "x")]))[:2]
    assert engine.poly_leq(TPLUS, a, b) == min_plus_poly_leq(a, b)
    ((_, certificate),) = engine.export_caches()["poly_orders"]
    engine.import_caches({"poly_orders": [(("min-plus", c, d), certificate)]})
    assert engine.poly_leq(TPLUS, c, d) == min_plus_poly_leq(c, d)
    assert engine.stats.poly_rejected == 1
    assert engine.poly_leq(TPLUS, c, d) == min_plus_poly_leq(c, d)
    assert (engine.stats.poly_calls, engine.stats.poly_hits) == (2, 1)


def _counting_checks(monkeypatch) -> list:
    """Count the engine's ``certificate_valid`` calls (one entry each)."""
    from repro.api import engine as api_engine

    checks = []

    def counted(*args):
        checks.append(args)
        return certificate_valid(*args)
    monkeypatch.setattr(api_engine, "certificate_valid", counted)
    return checks


def test_a_restored_certificate_is_checked_once_across_recalls(
        monkeypatch):
    checks = _counting_checks(monkeypatch)
    left, right = poly([(1, "xy")]), poly([(1, "xx")])
    computed = ContainmentEngine()
    truth = computed.poly_leq(TPLUS, left, right)
    for _ in range(3):
        assert computed.poly_leq(TPLUS, left, right) == truth
    # A certificate this engine computed is trusted on recall.
    assert checks == []
    restored = ContainmentEngine()
    restored.import_caches(computed.export_caches())
    for _ in range(3):
        assert restored.poly_leq(TPLUS, left, right) == truth
    assert len(checks) == 1
    assert (restored.stats.poly_calls, restored.stats.poly_hits,
            restored.stats.poly_rejected) == (0, 3, 0)


def test_a_forged_certificate_imported_over_a_checked_key_is_rejected(
        monkeypatch):
    checks = _counting_checks(monkeypatch)
    left, right = poly([(1, "xy")]), poly([(1, "xx")])
    truth = min_plus_poly_leq(left, right)
    source = ContainmentEngine()
    source.poly_leq(TPLUS, left, right)
    ((key, certificate),) = source.export_caches()["poly_orders"]
    engine = ContainmentEngine()
    engine.import_caches({"poly_orders": [(key, certificate)]})
    assert engine.poly_leq(TPLUS, left, right) == truth
    assert engine.poly_leq(TPLUS, left, right) == truth
    assert len(checks) == 1  # checked once, then trusted
    forged = dataclasses.replace(certificate, holds=not certificate.holds)
    engine.import_caches({"poly_orders": [(key, forged)]})
    assert engine.poly_leq(TPLUS, left, right) == truth
    assert engine.poly_leq(TPLUS, left, right) == truth
    # The import made the key unchecked again: the forged entry was
    # checked, rejected and recomputed, and the recomputed one is
    # trusted.
    assert len(checks) == 2
    assert (engine.stats.poly_calls, engine.stats.poly_hits,
            engine.stats.poly_rejected) == (1, 3, 1)


@pytest.mark.parametrize("left, right", [
    (poly([(1, "xy")]), poly([(1, "xx")])),
    (poly([(1, "xx")]), poly([(1, "xy")])),
], ids=["holds", "fails"])
def test_a_forged_certificate_with_a_malformed_witness_never_answers(
        left, right):
    # Flip the answer and make the witness data unreadable: the check
    # raises on it (``dict(5)``, unpacking ``7``), and that must count
    # as a failed check on every recall, not as an in-band error that
    # leaves the forged entry in place.
    truth = min_plus_poly_leq(left, right)
    source = ContainmentEngine()
    source.poly_leq(TPLUS, left, right)
    ((key, certificate),) = source.export_caches()["poly_orders"]
    forged = dataclasses.replace(certificate, holds=not certificate.holds,
                                 witness=7, witnesses=5)
    assert not certificate_valid(forged, MIN_PLUS, *certificate.key)
    engine = ContainmentEngine()
    engine.import_caches({"poly_orders": [(key, forged)]})
    for _ in range(2):
        assert engine.poly_leq(TPLUS, left, right) == truth
    assert (engine.stats.poly_calls, engine.stats.poly_hits,
            engine.stats.poly_rejected) == (1, 1, 1)
    assert engine.export_caches()["poly_orders"] == [(key, certificate)]


def test_certificate_valid_rejects_garbage_values():
    left, right = poly([(1, "x")]), poly([(1, "x"), (1, "y")])
    holds, certificate = decide_poly_leq(MIN_PLUS, left, right)
    assert holds and certificate_valid(certificate, MIN_PLUS, left, right)
    assert not certificate_valid(certificate, MAX_PLUS, left, right)
    assert not certificate_valid(certificate, MIN_PLUS, right, left)
    assert not certificate_valid("not a certificate", MIN_PLUS, left, right)
    assert not certificate_valid(None, MIN_PLUS, left, right)
    # Dropping the dominance witnesses invalidates a True certificate.
    gutted = dataclasses.replace(certificate, witnesses=())
    assert not certificate_valid(gutted, MIN_PLUS, left, right)


def test_false_certificates_carry_a_checkable_violating_point():
    left, right = poly([(1, "x")]), poly([(1, "xx")])
    holds, certificate = decide_poly_leq(MIN_PLUS, left, right)
    assert not holds
    infinite, point = certificate.witness
    assert all(isinstance(value, int) and value >= 0 for value in point)
    # Corrupting the point breaks revalidation.
    zeroed = dataclasses.replace(certificate,
                                 witness=(infinite, (0,) * len(point)))
    assert not certificate_valid(zeroed, MIN_PLUS, left, right)


@pytest.mark.parametrize("feasible", [True, False])
def test_unchecked_solver_results_raise(monkeypatch, feasible):
    """A solver result that fails its integer check is never certified:
    a zero point violates nothing, and a zero vector proves nothing.
    ``x`` has no divisor in ``x²``, so absorption declines and the pair
    reaches the solver."""
    from repro.polynomials import tropical_order

    def bogus(constraints, bounds):
        return feasible, (0,) * (len(constraints[0]) if feasible
                                 else len(constraints))

    monkeypatch.setattr(tropical_order, "_solve", bogus)
    with pytest.raises(ArithmeticError):
        decide_poly_leq(MIN_PLUS, poly([(1, "x")]), poly([(1, "xx")]))


def test_certificates_round_trip_through_json_and_pickle():
    shapes = set()
    for order in (MIN_PLUS, MAX_PLUS):
        for pair in ((poly([(1, "xy")]), poly([(1, "xx")])),
                     (poly([(1, "xx"), (1, "yy")]), poly([(1, "xy")])),
                     (poly([(1, "xy")]), poly([(1, "xx"), (1, "yy")])),
                     (poly([(1, "xy"), (1, "xxy")]),
                      poly([(1, "y"), (1, "xy")]))):
            _, certificate = decide_poly_leq(order, *pair)
            assert TropicalOrderCertificate.from_dict(
                certificate.to_dict()) == certificate
            assert pickle.loads(pickle.dumps(certificate)) == certificate
            shapes.add((certificate.witness is not None,
                        certificate.witnesses is not None,
                        certificate.partners is not None))
    # Refutations, Farkas dominance and partner maps all travelled.
    assert shapes == {(True, False, False), (False, True, False),
                      (False, False, True)}


# --- the absorption witness --------------------------------------------

def _partner_certificate():
    left = poly([(1, "xy"), (1, "xxy")])
    right = poly([(1, "y"), (1, "xy")])
    holds, certificate = decide_poly_leq(MIN_PLUS, left, right)
    assert holds and certificate.witnesses is None
    assert certificate.partners == (0, 0)
    assert certificate_valid(certificate, MIN_PLUS, left, right)
    return left, right, certificate


@pytest.mark.parametrize("partners", [
    (0, 2), (0, -1),       # out of range (a negative index included)
    (0, "1"), (0, 1.0),    # not an int
    (0, True),             # a bool is no index either
], ids=["past-the-end", "negative", "str", "float", "bool"])
def test_a_partner_map_with_a_bad_index_is_invalid(partners):
    left, right, certificate = _partner_certificate()
    forged = dataclasses.replace(certificate, partners=partners)
    assert not certificate_valid(forged, MIN_PLUS, left, right)


@pytest.mark.parametrize("order, forged_partners", [
    (MIN_PLUS, {"xy": "xy", "xxy": "z"}),   # z divides neither
    (MIN_PLUS, {"xy": "xxy", "xxy": "y"}),  # x²y does not divide xy
    (MAX_PLUS, {"xy": "xyz", "xxy": "xxy"}),  # z = −∞ drops xyz
    (MAX_PLUS, {"xy": "y", "xxy": "xxy"}),  # y lacks x
    (MAX_PLUS, {"xy": "xy", "xxy": "xy"}),  # xy is below x²y
], ids=["min-plus-foreign", "min-plus-higher", "max-plus-more-variables",
        "max-plus-fewer-variables", "max-plus-lower"])
def test_a_partner_that_does_not_absorb_is_invalid(order, forged_partners):
    left = poly([(1, "xy"), (1, "xxy")])
    right = poly([(1, "y"), (1, "xy"), (1, "xxy"), (1, "z"), (1, "xyz")])
    holds, certificate = decide_poly_leq(order, left, right)
    assert holds and certificate.partners is not None
    index = {mono.as_word(): position
             for position, mono in enumerate(right.monomials())}
    partners = tuple(index[tuple(forged_partners["".join(mono.as_word())])]
                     for mono in left.monomials())
    forged = dataclasses.replace(certificate, partners=partners)
    assert not certificate_valid(forged, order, left, right)


@pytest.mark.parametrize("partners", [(), (0,), (0, 0, 0)],
                         ids=["empty", "short", "long"])
def test_a_partner_map_of_the_wrong_length_is_invalid(partners):
    left, right, certificate = _partner_certificate()
    forged = dataclasses.replace(certificate, partners=partners)
    assert not certificate_valid(forged, MIN_PLUS, left, right)


def test_a_partner_map_beside_farkas_vectors_is_invalid():
    left, right = poly([(1, "x")]), poly([(1, "x"), (1, "y")])
    _, farkas = decide_poly_leq(MIN_PLUS, poly([(1, "xy")]),
                                poly([(1, "xx"), (1, "yy")]))
    assert farkas.witnesses
    _, certificate = decide_poly_leq(MIN_PLUS, left, right)
    assert certificate.partners == (0,)
    both = dataclasses.replace(certificate, witnesses=farkas.witnesses)
    assert not certificate_valid(both, MIN_PLUS, left, right)
    neither = dataclasses.replace(certificate, partners=None)
    assert not certificate_valid(neither, MIN_PLUS, left, right)


def test_a_partner_map_on_a_refutation_is_invalid():
    left, right = poly([(1, "x")]), poly([(1, "xx")])
    holds, certificate = decide_poly_leq(MIN_PLUS, left, right)
    assert not holds and certificate_valid(certificate, MIN_PLUS,
                                           left, right)
    forged = dataclasses.replace(certificate, partners=(0,))
    assert not certificate_valid(forged, MIN_PLUS, left, right)


def test_a_doctored_snapshot_partner_map_is_recomputed(tmp_path):
    """Point every partner of every snapshot partner map past the end
    of its ``P2``: each recall is rejected and recomputed, and no
    answer changes."""
    path = tmp_path / "tropical.snap"
    warmed = ContainmentEngine()
    baseline = run_tropical(warmed)
    state = warmed.export_caches(include_verdicts=False)
    doctored = 0
    entries = []
    for key, certificate in state["poly_orders"]:
        if certificate.partners:
            certificate = dataclasses.replace(
                certificate,
                partners=(len(key[2].monomials()),) * len(
                    certificate.partners))
            doctored += 1
        entries.append((key, certificate))
    assert doctored > 0, "the requests must produce partner maps"
    state["poly_orders"] = entries
    write_snapshot(state, path)

    restored = ContainmentEngine()
    load_snapshot(restored, path)
    assert run_tropical(restored) == baseline
    assert restored.stats.poly_rejected == doctored
    assert restored.stats.poly_calls == doctored


# --- snapshot round trips ----------------------------------------------

def run_tropical(engine: ContainmentEngine):
    return [doc.to_dict() for doc in engine.decide_many(TROPICAL_REQUESTS)]


def test_certificates_survive_a_snapshot_round_trip(tmp_path):
    path = tmp_path / "tropical.snap"
    warmed = ContainmentEngine()
    baseline = run_tropical(warmed)
    assert warmed.stats.poly_calls > 0
    save_snapshot(warmed, path, include_verdicts=False)

    restored = ContainmentEngine()
    counts = load_snapshot(restored, path)
    assert counts["poly_orders"] == warmed.cache_info()["poly_entries"]
    docs = run_tropical(restored)
    assert docs == baseline
    assert restored.stats.poly_calls == 0, \
        "every tropical order decision must be a certificate recall"
    assert restored.stats.poly_hits > 0
    assert restored.stats.poly_rejected == 0


def test_corrupt_and_stale_snapshots_are_rejected(tmp_path):
    path = tmp_path / "tropical.snap"
    warmed = ContainmentEngine()
    run_tropical(warmed)
    save_snapshot(warmed, path)

    # Truncation: unreadable, nothing half-imported.
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(SnapshotError):
        read_snapshot(path)

    # A future version: stale, rejected before any entry lands.
    envelope = {"magic": SNAPSHOT_MAGIC, "version": 99,
                "semirings": (), "caches": {"poly_orders": []}}
    path.write_bytes(pickle.dumps(envelope))
    engine = ContainmentEngine()
    with pytest.raises(SnapshotError):
        load_snapshot(engine, path)
    assert engine.cache_info()["poly_entries"] == 0

    # A malformed poly_orders layer: schema validation catches it.
    write_snapshot({"poly_orders": [("not", "a", "pair")]}, path)
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_doctored_snapshot_certificates_cannot_change_answers(tmp_path):
    """End to end: forge every certificate in a snapshot file, restore
    it, and check the verdicts still match a cold engine (with the
    rejects visible in the stats)."""
    path = tmp_path / "tropical.snap"
    warmed = ContainmentEngine()
    baseline = run_tropical(warmed)
    state = warmed.export_caches(include_verdicts=False)
    state["poly_orders"] = [
        (key, dataclasses.replace(
            certificate, holds=not certificate.holds))
        for key, certificate in state["poly_orders"]
    ]
    write_snapshot(state, path)

    restored = ContainmentEngine()
    counts = load_snapshot(restored, path)
    assert counts["poly_orders"] > 0
    assert run_tropical(restored) == baseline
    assert restored.stats.poly_rejected > 0


# --- randomized cross-validation --------------------------------------

def test_memoized_decisions_cross_validate_against_the_grid():
    rng = random.Random(20260727)
    engine = ContainmentEngine()
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        for semiring, order, plain in (
                (TPLUS, MIN_PLUS, min_plus_poly_leq),
                (TMINUS, MAX_PLUS, max_plus_poly_leq)):
            memoized = engine.poly_leq(semiring, p, q)
            assert memoized == plain(p, q), (order, p, q)
            if memoized:
                assert grid_violation(p, q, semiring, bound=3) is None, \
                    (order, p, q)
            # Asking again recalls the certificate with the same answer.
            assert engine.poly_leq(semiring, p, q) == memoized
    assert engine.stats.poly_hits >= 80
    assert engine.stats.poly_rejected == 0


# --- canonical pair tie-breaking (ROADMAP item 5, PR 5) ----------------

def _renamed_poly(poly: Polynomial, mapping: dict) -> Polynomial:
    return Polynomial(
        (Monomial(tuple((mapping.get(var, var), exp)
                        for var, exp in mono.powers)), coeff)
        for mono, coeff in poly.items()
    )


def test_canonical_pair_collapses_renamings_on_signature_ties():
    """Variables b, c, d of a²b + acd share the occurrence signature
    but only c↔d is a pair automorphism — the old name tiebreak keyed
    renamings of this pair apart; refinement + individualization must
    collapse them onto one key."""
    p1 = Polynomial([
        (Monomial({"a": 2, "b": 1}), 1),
        (Monomial({"a": 1, "c": 1, "d": 1}), 1),
    ])
    p2 = Polynomial([(Monomial({"a": 1}), 1)])
    canonical = canonical_pair(p1, p2)[:2]
    renaming = {"b": "z", "c": "b"}  # permutes the tied names' order
    renamed = canonical_pair(_renamed_poly(p1, renaming),
                             _renamed_poly(p2, renaming))[:2]
    assert canonical == renamed


def test_canonical_pair_random_renaming_invariance():
    rng = random.Random(5050)
    for _ in range(30):
        p, q = random_poly(rng), random_poly(rng)
        variables = sorted(p.variables() | q.variables())
        shuffled = list(variables)
        rng.shuffle(shuffled)
        mapping = dict(zip(variables, (f"w{i}" for i in range(len(shuffled)))))
        mapping = {var: mapping[target]
                   for var, target in zip(variables, shuffled)}
        base = canonical_pair(p, q)[:2]
        renamed = canonical_pair(_renamed_poly(p, mapping),
                                 _renamed_poly(q, mapping))[:2]
        assert base == renamed, (p, q, mapping)


def test_canonical_pair_renaming_is_a_bijection():
    rng = random.Random(6060)
    for _ in range(20):
        p, q = random_poly(rng), random_poly(rng)
        c1, c2, renaming = canonical_pair(p, q)
        assert len(set(renaming.values())) == len(renaming)
        assert _renamed_poly(p, renaming) == c1
        assert _renamed_poly(q, renaming) == c2
