"""The small-model test set, computed once per query pair.

``small_model_pairs(q1, q2)`` lists the distinct canonical polynomial
pairs of Thm. 4.17's test points; engines keep them in the
``small_models`` layer and every ⊕-idempotent semiring's decision on
the pair reads them from there.  These tests hold that path to the old
per-test loop (``tests/reference_small_model.py``) on an engine, on a
snapshot-restored engine and without a context, and pin the layer's
counters.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from repro.api import ContainmentEngine
from repro.api import engine as engine_module
from repro.core import small_model_contained
from repro.core.small_model import small_model_pairs
from repro.data.canonical import canonical_instance
from repro.polynomials import canonical_pair
from repro.queries import parse_cq, parse_ucq
from repro.queries.ccq import (complete_description, head_patterns,
                               rigid_constants)
from repro.queries.evaluation import evaluate
from repro.queries.generators import random_cq, random_ucq
from repro.queries.ucq import as_ucq
from repro.semirings import B, TMINUS, TPLUS, VITERBI
from repro.semirings.provenance import NX
from repro.service import load_snapshot, save_snapshot

from reference_small_model import reference_small_model_contained
from tests.reference_quotient import (pair_constants,
                                      reference_complete_description,
                                      reference_head_patterns)

#: Pairs with head variables (a repeated one included) and constants.
_CURATED = [
    ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)"),
    ("Q(x) :- R(x, y), R(y, z), S(z, 'c')", "Q(x) :- R(x, y), S(w, 'c')"),
    ("Q(x) :- R(x, y), S(w, 'c')", "Q(x) :- R(x, y), R(y, z), S(z, 'c')"),
    ("Q(x, y) :- R(x, y), R(y, x)", "Q(x, y) :- R(x, y)"),
    ("Q(x, x) :- R(x, y), R(x, z)", "Q(x, x) :- R(x, y), R(x, y)"),
    ("Q(x) :- R(x, 7), R(x, y)", "Q(x) :- R(x, y), R(x, y)"),
    ("Q() :- R(u, 'c'), R(v, 'd')", "Q() :- R(u, w), R(v, w)"),
]
_CURATED_UNIONS = [
    (["Q() :- R(v), S(v)"], ["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"]),
    (["Q(x) :- R(x, y), R(y, x)", "Q(x) :- S(x, 'c')"],
     ["Q(x) :- R(x, y)", "Q(x) :- S(x, z), S(x, z)"]),
]


def _pairs() -> list[tuple]:
    rng = random.Random(2718)
    pairs = [(parse_cq(a), parse_cq(b)) for a, b in _CURATED]
    pairs += [(parse_ucq(a), parse_ucq(b)) for a, b in _CURATED_UNIONS]
    for head_arity in (0, 0, 1, 1, 2):
        for _ in range(3):
            pairs.append((random_cq(rng, max_atoms=2, max_vars=3,
                                    head_arity=head_arity),
                          random_cq(rng, max_atoms=2, max_vars=3,
                                    head_arity=head_arity)))
    for head_arity in (0, 1):
        for _ in range(4):
            pairs.append((random_ucq(rng, max_members=2, max_atoms=2,
                                     max_vars=2, head_arity=head_arity),
                          random_ucq(rng, max_members=2, max_atoms=2,
                                     max_vars=2, head_arity=head_arity)))
    return pairs


PAIRS = _pairs()
TROPICAL = (TPLUS, TMINUS, VITERBI)


@pytest.fixture(scope="module")
def reference() -> dict:
    """``(semiring name, pair index) → verdict`` of the per-test loop."""
    return {(semiring.name, index):
            reference_small_model_contained(q1, q2, semiring)
            for semiring in (*TROPICAL, B)
            for index, (q1, q2) in enumerate(PAIRS)}


@pytest.fixture(scope="module")
def engines(tmp_path_factory) -> tuple[ContainmentEngine, ContainmentEngine]:
    """A cold engine that decided every pair under every tropical
    semiring, and a second engine restored from its snapshot."""
    cold = ContainmentEngine()
    for semiring in TROPICAL:
        for q1, q2 in PAIRS:
            small_model_contained(q1, q2, semiring, context=cold)
    path = tmp_path_factory.mktemp("small-models") / "engine.snap"
    save_snapshot(cold, path, include_verdicts=False)
    restored = ContainmentEngine()
    load_snapshot(restored, path)
    return cold, restored


def test_the_pool_decides_both_ways(reference):
    verdicts = set(reference.values())
    assert verdicts == {True, False}


@pytest.mark.parametrize("semiring", TROPICAL, ids=lambda s: s.name)
def test_every_path_matches_the_per_test_loop(semiring, reference, engines):
    cold, restored = engines
    for index, (q1, q2) in enumerate(PAIRS):
        expected = reference[semiring.name, index]
        for context in (cold, restored, None):
            assert small_model_contained(q1, q2, semiring,
                                         context=context) is expected, \
                (semiring.name, str(q1), str(q2), context)
    # The restored engine recalled every test set and every order.
    assert restored.stats.small_model_calls == 0
    assert restored.stats.poly_calls == 0
    assert restored.stats.poly_rejected == 0


def test_a_semiring_without_a_tropical_kind_matches(reference):
    """``B`` has an exhaustive order check and no certificate kind: its
    comparisons pass through uncached, on the canonical pairs."""
    engine = ContainmentEngine()
    for index, (q1, q2) in enumerate(PAIRS):
        expected = reference[B.name, index]
        assert small_model_contained(q1, q2, B, context=engine) is expected
        assert small_model_contained(q1, q2, B) is expected
    assert engine.stats.small_model_calls == len(PAIRS)
    assert engine.stats.poly_calls == engine.stats.poly_hits == 0


def _test_pairs(patterns, description, constants_of) -> list[tuple]:
    """The distinct canonical pairs of a per-CCQ test walk, in first-test
    order: every CCQ of ``description(member, constants)`` for every
    member of ``P1`` of every head pattern ``(P1, P2)``, every target
    over its terms, both sides evaluated per target."""
    pairs: list[tuple] = []
    for _, p1, p2 in patterns:
        constants = constants_of(p1, p2)
        for member in p1:
            for ccq in description(member, constants):
                instance = canonical_instance(ccq).instance
                domain = tuple(ccq.variables()) + ccq.constants()
                for target in product(domain, repeat=ccq.arity):
                    pair = canonical_pair(
                        evaluate(p1, instance, target, NX),
                        evaluate(p2, instance, target, NX))[:2]
                    if pair not in pairs:
                        pairs.append(pair)
    return pairs


def test_the_pairs_are_the_distinct_canonical_test_pairs():
    """The class-row computation lists the pairs of the walk over every
    CCQ, in its order, and the same set as the variable-level ``⟨Q⟩``
    of ``tests/reference_quotient.py`` (which enumerates head patterns
    in another order, so only the set is compared)."""
    for q1, q2 in PAIRS:
        q1, q2 = as_ucq(q1), as_ucq(q2)
        pairs = small_model_pairs(q1, q2)
        walked = _test_pairs(head_patterns(q1, q2), complete_description,
                             lambda p1, p2: rigid_constants((*p1, *p2)))
        assert list(pairs) == walked
        reference = _test_pairs(reference_head_patterns(q1, q2),
                                reference_complete_description,
                                lambda p1, p2: pair_constants(q1, q2))
        assert set(pairs) == set(reference)
        for c1, c2 in pairs:
            assert canonical_pair(c1, c2)[:2] == (c1, c2)


#: ``poly_calls`` of deciding each pair under ``T+``, ``V`` and ``T−``
#: (in that order) on a fresh engine, as the per-test loop counted them
#: before the test set was cached: caching the pairs saves
#: canonicalizations and evaluations, never an order decision.
_ORDER_DECISIONS = {
    ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)"): 4,
    # ⟨Q1⟩ binds y and z to x and to 'c' too: more test points, the
    # same verdicts (T+ and V contained, T− not).
    ("Q(x) :- R(x, y), R(y, z), S(z, 'c')",
     "Q(x) :- R(x, y), S(w, 'c')"): 7,
}


@pytest.mark.parametrize("pair", sorted(_ORDER_DECISIONS))
def test_three_semirings_share_one_test_set(pair):
    engine = ContainmentEngine()
    for semiring in ("T+", "V", "T-"):
        engine.decide(*pair, semiring)
    assert engine.stats.small_model_calls == 1
    assert engine.stats.small_model_hits == 2
    assert engine.stats.poly_calls == _ORDER_DECISIONS[pair]
    assert engine.cache_info()["small_model_entries"] == 1


def test_a_canonical_pair_is_recalled_without_canonicalizing(monkeypatch):
    calls = []
    original = engine_module.canonical_pair

    def counting(p1, p2):
        calls.append((p1, p2))
        return original(p1, p2)

    monkeypatch.setattr(engine_module, "canonical_pair", counting)
    engine = ContainmentEngine()
    (c1, c2), *_ = small_model_pairs(parse_cq("Q() :- R(u, v), R(u, w)"),
                                      parse_cq("Q() :- R(u, v), R(u, v)"))
    holds = engine.poly_leq(TPLUS, c1, c2)
    assert len(calls) == 1  # a miss canonicalizes once
    assert engine.poly_leq(TPLUS, c1, c2) is holds
    assert engine.poly_leq(VITERBI, c1, c2) is holds
    assert len(calls) == 1  # the stored key is the pair as given
    assert (engine.stats.poly_calls, engine.stats.poly_hits) == (1, 2)
