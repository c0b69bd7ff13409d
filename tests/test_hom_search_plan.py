"""The indexed, plan-driven homomorphism search (PR 2).

Edge cases are pinned two ways: against the preserved pre-rewrite
searcher (``tests/reference_search.py``, exact mapping-set
equality) and against the semantic oracle (decision procedures built on
the new search must never be refuted by a concrete annotated instance).
"""

from __future__ import annotations

import random

import pytest

from repro.core import decide_cq_containment
from repro.homomorphisms import (HomKind, find_homomorphism,
                                 has_homomorphism, homomorphisms)
from repro.oracle import find_counterexample
from repro.queries import CQ, Atom, Var, parse_cq
from repro.queries.ccq import CQWithInequalities, complete_description
from repro.queries.generators import random_cq
from tests.reference_search import (reference_find_homomorphism,
                                    reference_homomorphisms)


def mapping_set(source, target, kind):
    return {frozenset(h.items())
            for h in homomorphisms(source, target, kind)}


def reference_set(source, target, kind):
    return {frozenset(h.items())
            for h in reference_homomorphisms(source, target, kind)}


# --- repeated head variables --------------------------------------------

def test_repeated_head_variables_bind_consistently():
    # Q(x, x) forces both head positions onto the same target terms.
    source = parse_cq("Q(x, x) :- R(x, y)")
    ok = parse_cq("Q(a, a) :- R(a, b)")
    bad = parse_cq("Q(a, c) :- R(a, b), R(c, b)")
    assert has_homomorphism(source, ok)
    assert not has_homomorphism(source, bad)


def test_repeated_head_variables_conflicting_targets():
    # The target head repeats too, but with a different pattern.
    source = parse_cq("Q(x, y, x) :- R(x, y)")
    target = parse_cq("Q(a, b, b) :- R(a, b)")
    assert not has_homomorphism(source, target)
    agreeing = parse_cq("Q(a, b, a) :- R(a, b)")
    assert has_homomorphism(source, agreeing)


def test_repeated_head_variables_all_kinds_match_reference():
    for src, dst in [
        ("Q(x, x) :- R(x, x)", "Q(a, a) :- R(a, a)"),
        ("Q(x, x) :- R(x, y)", "Q(a, a) :- R(a, b), R(a, a)"),
        ("Q(x, y) :- R(x, y)", "Q(a, a) :- R(a, a)"),
    ]:
        source, target = parse_cq(src), parse_cq(dst)
        for kind in HomKind:
            assert mapping_set(source, target, kind) == \
                reference_set(source, target, kind), (src, dst, kind)


# --- inequality preservation with constants -----------------------------

def test_inequality_onto_distinct_constants_allowed():
    source = parse_cq("Q() :- R(x, y), x != y")
    target = parse_cq("Q() :- R('c', 'd')")
    assert has_homomorphism(source, target)


def test_inequality_onto_equal_constants_rejected():
    source = parse_cq("Q() :- R(x, y), x != y")
    target = parse_cq("Q() :- R('c', 'c')")
    assert not has_homomorphism(source, target)


def test_inequality_mixed_constant_variable_rejected():
    # A constant/variable image pair is never guaranteed separated: the
    # variable may be valuated to the constant.
    source = parse_cq("Q() :- R(x, y), x != y")
    target = parse_cq("Q() :- R('c', b)")
    assert not has_homomorphism(source, target)


def test_inequality_needs_target_inequality_between_existentials():
    source = parse_cq("Q() :- R(x, y), x != y")
    constrained = parse_cq("Q() :- R(a, b), a != b")
    unconstrained = parse_cq("Q() :- R(a, b)")
    assert has_homomorphism(source, constrained)
    assert not has_homomorphism(source, unconstrained)


def test_inequality_with_head_variable_images_rejected():
    # A head variable is guaranteed distinct from nothing the target
    # does not constrain it against.
    source = parse_cq("Q(z) :- R(x, y), S(z), x != y")
    target = parse_cq("Q(c) :- R(c, b), S(c), T(b)")
    assert not has_homomorphism(source, target)


def test_inequality_onto_a_constrained_head_variable_allowed():
    # The target keeps b apart from its head variable c on every
    # valuation, so x ≠ y survives the images c and b.
    source = parse_cq("Q(z) :- R(x, y), S(z), x != y")
    target = parse_cq("Q(c) :- R(c, b), S(c), b != c")
    assert has_homomorphism(source, target)
    assert mapping_set(source, target, HomKind.PLAIN) == \
        reference_set(source, target, HomKind.PLAIN)


def test_inequality_against_a_constant():
    # x ≠ 'c' maps only where the target keeps the image apart from 'c'.
    x, b = Var("x"), Var("b")
    source = CQWithInequalities((), [Atom("R", (x, "c"))], [(x, "c")])
    apart = CQWithInequalities((), [Atom("R", (b, "c"))], [(b, "c")])
    assert has_homomorphism(source, apart)
    assert not has_homomorphism(source, parse_cq("Q() :- R(b, 'c')"))
    assert not has_homomorphism(source, parse_cq("Q() :- R('c', 'c')"))
    assert has_homomorphism(source, parse_cq("Q() :- R('d', 'c')"))


def test_inequality_incremental_pruning_matches_reference():
    # CCQ quotients exercise dense inequality sets.
    rng = random.Random(1405)
    for _ in range(40):
        base_s = random_cq(rng, max_atoms=3, max_vars=3)
        base_t = random_cq(rng, max_atoms=3, max_vars=3)
        for source in complete_description(base_s):
            for target in complete_description(base_t):
                for kind in HomKind:
                    assert mapping_set(source, target, kind) == \
                        reference_set(source, target, kind)


# --- surjective / bijective multiset pruning ----------------------------

def test_surjective_multiset_counts():
    assert has_homomorphism(parse_cq("Q() :- R(x, x), R(y, y)"),
                            parse_cq("Q() :- R(u, u)"),
                            HomKind.SURJECTIVE)
    # two target occurrences need two source preimages
    assert not has_homomorphism(parse_cq("Q() :- R(x, x)"),
                                parse_cq("Q() :- R(u, u), R(u, u)"),
                                HomKind.SURJECTIVE)
    assert has_homomorphism(parse_cq("Q() :- R(x, x), R(y, y)"),
                            parse_cq("Q() :- R(u, u), R(u, u)"),
                            HomKind.SURJECTIVE)


def test_surjective_relation_profile_prune_is_sound():
    # S-atoms cannot cover R-occurrences: profile prune must refute
    # without losing the homs that do exist.
    source = parse_cq("Q() :- R(x, y), S(x)")
    target = parse_cq("Q() :- R(a, b), R(c, d)")
    assert not has_homomorphism(source, target, HomKind.SURJECTIVE)
    wide = parse_cq("Q() :- R(x, y), R(z, w), S(x)")
    narrow = parse_cq("Q() :- R(a, b), S(a)")
    assert has_homomorphism(wide, narrow, HomKind.SURJECTIVE)


def test_bijective_profile_mismatch_refutes():
    source = parse_cq("Q() :- R(x, y), S(x)")
    target = parse_cq("Q() :- R(a, b), R(a, c)")
    assert not has_homomorphism(source, target, HomKind.BIJECTIVE)


def test_bijective_collapse_needs_capacity():
    assert has_homomorphism(parse_cq("Q() :- R(x, y), R(x, z)"),
                            parse_cq("Q() :- R(a, b), R(a, b)"),
                            HomKind.BIJECTIVE)
    assert not has_homomorphism(parse_cq("Q() :- R(x, y), R(x, y)"),
                                parse_cq("Q() :- R(a, b), R(a, c)"),
                                HomKind.BIJECTIVE)


def test_covering_prune_on_long_chains():
    # chain(n) ։ chain(n-1) must fail although plain homs abound; the
    # multiset-coverage prune has to cut the search, not the answers.
    def chain(length):
        return CQ((), [Atom("E", (Var(f"v{i}"), Var(f"v{i + 1}")))
                       for i in range(length)])

    assert has_homomorphism(chain(8), chain(8), HomKind.SURJECTIVE)
    assert not has_homomorphism(chain(9), chain(8), HomKind.SURJECTIVE)
    assert has_homomorphism(chain(8), chain(8), HomKind.BIJECTIVE)
    assert not has_homomorphism(chain(9), chain(8), HomKind.BIJECTIVE)


# --- old/new answer equivalence on random pairs -------------------------

@pytest.mark.parametrize("seed", range(20))
def test_random_pairs_equal_mapping_sets(seed):
    rng = random.Random(9000 + seed)
    head_arity = rng.choice((0, 0, 1, 2))
    source = random_cq(rng, max_atoms=4, max_vars=4, head_arity=head_arity)
    target = random_cq(rng, max_atoms=4, max_vars=4, head_arity=head_arity)
    for kind in HomKind:
        assert mapping_set(source, target, kind) == \
            reference_set(source, target, kind), (source, target, kind)


@pytest.mark.parametrize("seed", range(10))
def test_random_pairs_find_agrees_on_existence(seed):
    rng = random.Random(7700 + seed)
    source = random_cq(rng, max_atoms=5, max_vars=4)
    target = random_cq(rng, max_atoms=5, max_vars=4)
    for kind in HomKind:
        new = find_homomorphism(source, target, kind)
        old = reference_find_homomorphism(source, target, kind)
        assert (new is None) == (old is None), (source, target, kind)
        if new is not None:
            # Any returned witness must be a valid certificate.
            from repro.core.explain import check_homomorphism_certificate
            assert check_homomorphism_certificate(source, target, new, kind)


def test_enumeration_deduplicates_and_is_exhaustive():
    source = parse_cq("Q() :- R(x, y)")
    target = parse_cq("Q() :- R(a, b), R(a, c)")
    found = list(homomorphisms(source, target))
    assert len(found) == 2
    assert len({frozenset(h.items()) for h in found}) == 2


# --- oracle pinning -----------------------------------------------------

@pytest.mark.parametrize("semiring_name, q1, q2, expected", [
    # Ex. 4.6 over Sorp[X] (Cin): holds one way, fails the other.
    ("Sorp[X]", "Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)",
     False),
    ("Sorp[X]", "Q() :- R(u, v), R(u, v)", "Q() :- R(u, v), R(u, w)",
     True),
    # Surjective characterization for Ssur[X] (Csur).
    ("Ssur[X]", "Q() :- R(u, v), R(u, w)", "Q() :- R(x, y), R(x, z)",
     True),
    ("Ssur[X]", "Q() :- R(u, v), R(u, w)", "Q() :- R(x, y), R(x, y)",
     False),
    # Lineage (Chcov): covering with repeated head variables.
    ("Lin[X]", "Q(x) :- R(x, y), R(x, z)", "Q(u) :- R(u, w)", True),
])
def test_search_backed_verdicts_match_oracle(semiring_name, q1, q2,
                                             expected):
    from repro.semirings import get_semiring

    semiring = get_semiring(semiring_name)
    verdict = decide_cq_containment(parse_cq(q1), parse_cq(q2), semiring)
    assert verdict.result is expected
    witness = find_counterexample(parse_cq(q1), parse_cq(q2), semiring,
                                  rng=random.Random(3), budget=500,
                                  random_rounds=5)
    if expected:
        assert witness is None
    else:
        assert witness is not None


@pytest.mark.parametrize("seed", range(6))
def test_random_decisions_never_semantically_refuted(seed):
    """Verdicts built on the new searcher stay oracle-sound."""
    from repro.semirings import LIN, SORP, TMINUS, TPLUS

    rng = random.Random(31 + seed)
    q1 = random_cq(rng, max_atoms=3, max_vars=3)
    q2 = random_cq(rng, max_atoms=3, max_vars=3)
    for semiring in (LIN, SORP, TPLUS, TMINUS):
        verdict = decide_cq_containment(q1, q2, semiring)
        assert verdict.decided
        if verdict.result:
            assert find_counterexample(
                q1, q2, semiring, rng=random.Random(5), budget=400,
                random_rounds=4) is None, (semiring.name, q1, q2)
