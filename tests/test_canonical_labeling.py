"""Refinement-based canonical labeling vs the factorial reference.

Covers the PR-5 contract: the capture-free ``canonical_rename`` (the
``Q(e0) :- R(e0, x)`` regression), renaming invariance, idempotence,
key equivalence with the exhaustive permutation reference, automorphism
counts cross-checked against endomorphism enumeration on complete
CCQs, inequality/constant-bearing cases, scalability past the old
factorial wall, and the engine's observable, snapshot-persisted
``canonical`` cache layer.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.api import ContainmentEngine
from repro.homomorphisms import isomorphism
from repro.homomorphisms.canonical import (CanonicalForm,
                                           compute_canonical_form,
                                           fresh_existential_labels)
from repro.homomorphisms.isomorphism import (are_isomorphic,
                                             automorphism_count,
                                             canonical_key, canonical_rename,
                                             endomorphisms, is_automorphism,
                                             isomorphism_classes)
from repro.queries import CQWithInequalities, parse_cq
from repro.queries.atoms import Atom, Var
from repro.queries.ccq import QueryCode, complete_description
from repro.queries.generators import random_cq
from repro.service import load_snapshot, save_snapshot
from tests.reference_iso import (reference_automorphism_count,
                                 reference_canonical_key)


def _rename_existentials(query, rng: random.Random):
    """Randomly rename only the existential variables (heads fixed)."""
    existential = query.existential_vars()
    fresh = [f"zz{rng.randrange(10 ** 9)}_{i}" for i in range(len(existential))]
    order = list(range(len(existential)))
    rng.shuffle(order)
    return query.substitute({
        var: Var(fresh[order[i]]) for i, var in enumerate(existential)
    })


def _complete_ccq(atoms, head=()):
    """All-pairs-unequal CCQ over the atoms' existential variables."""
    existential = sorted(
        {v for atom in atoms for v in atom.variables()} - set(head))
    pairs = [(x, y) for i, x in enumerate(existential)
             for y in existential[i + 1:]]
    return CQWithInequalities(head, atoms, pairs)


# --- the capture regression (ISSUE 5 satellite 1) ------------------------

def test_canonical_rename_never_captures_head_variables():
    """Q(e0) :- R(e0, x) must keep its existential: x renames to e1,
    never to the head variable's literal name e0."""
    query = parse_cq("Q(e0) :- R(e0, x)")
    renamed = canonical_rename(query)
    assert renamed.head == query.head
    assert len(renamed.existential_vars()) == 1
    assert renamed.existential_vars()[0] != Var("e0")
    assert renamed == parse_cq("Q(e0) :- R(e0, e1)")


def test_canonical_rename_capture_with_two_head_variables():
    query = parse_cq("Q(e0, e1) :- R(e0, x), S(e1, y), T(x, y)")
    renamed = canonical_rename(query)
    assert renamed.head == query.head
    assert len(renamed.existential_vars()) == 2
    assert not {Var("e0"), Var("e1")} & set(renamed.existential_vars())


def test_canonical_rename_preserves_existential_count_randomly():
    rng = random.Random(31)
    for _ in range(40):
        query = random_cq(rng, max_atoms=4, max_vars=4,
                          head_arity=rng.choice([0, 1, 2]))
        renamed = canonical_rename(query)
        assert renamed.head == query.head
        assert (len(renamed.existential_vars())
                == len(query.existential_vars())), query


def test_fresh_labels_skip_head_names_only():
    query = parse_cq("Q(e0, e2) :- R(e0, e2), S(e0)")
    assert fresh_existential_labels(query, 3) == ["e1", "e3", "e4"]


# --- idempotence and invariance ------------------------------------------

def test_canonical_rename_idempotent():
    rng = random.Random(77)
    queries = [random_cq(rng, max_atoms=4, max_vars=4,
                         head_arity=rng.choice([0, 1]))
               for _ in range(40)]
    queries.append(parse_cq("Q(e0) :- R(e0, x)"))
    queries.append(parse_cq("Q(e1, e0) :- R(e1, x), R(e0, y)"))
    for query in queries:
        once = canonical_rename(query)
        assert canonical_rename(once) == once, query


def test_canonical_rename_invariant_under_existential_renaming():
    rng = random.Random(5)
    for _ in range(40):
        query = random_cq(rng, max_atoms=4, max_vars=4,
                          head_arity=rng.choice([0, 1]))
        renamed = _rename_existentials(query, rng)
        assert are_isomorphic(query, renamed)
        assert canonical_rename(query) == canonical_rename(renamed), query


def test_canonical_key_invariant_on_ccqs():
    rng = random.Random(13)
    for _ in range(20):
        base = random_cq(rng, max_atoms=3, max_vars=3)
        for ccq in complete_description(base):
            assert canonical_key(ccq) == canonical_key(
                _rename_existentials(ccq, rng)), ccq


# --- equivalence with the exhaustive reference ---------------------------

def test_key_equivalence_matches_reference():
    """New and old keys induce the same isomorphism classes."""
    rng = random.Random(2024)
    queries = [random_cq(rng, max_atoms=4, max_vars=4,
                         head_arity=rng.choice([0, 1]))
               for _ in range(60)]
    queries += [_rename_existentials(query, rng) for query in queries[:20]]
    new_keys = [canonical_key(query) for query in queries]
    old_keys = [reference_canonical_key(query) for query in queries]
    for i in range(len(queries)):
        for j in range(i + 1, len(queries)):
            assert ((new_keys[i] == new_keys[j])
                    == (old_keys[i] == old_keys[j])), \
                (queries[i], queries[j])


def test_key_equivalence_reference_eight_existentials():
    """One ≤8-existential pair through the factorial reference."""
    atoms = [Atom("R", (Var(f"x{i}"), Var(f"x{(i + 1) % 4}")))
             for i in range(4)]
    atoms += [Atom("S", (Var(f"y{i}"),)) for i in range(4)]
    query = CQWithInequalities((), atoms, [])
    rng = random.Random(1)
    renamed = _rename_existentials(query, rng)
    assert len(query.existential_vars()) == 8
    assert canonical_key(query) == canonical_key(renamed)
    assert reference_canonical_key(query) == reference_canonical_key(renamed)


def test_automorphism_count_matches_reference():
    rng = random.Random(99)
    for _ in range(60):
        query = random_cq(rng, max_atoms=4, max_vars=4,
                          head_arity=rng.choice([0, 1]))
        assert (automorphism_count(query)
                == reference_automorphism_count(query)), query


def test_automorphism_count_matches_reference_on_ccqs():
    rng = random.Random(41)
    for _ in range(15):
        base = random_cq(rng, max_atoms=3, max_vars=3)
        for ccq in complete_description(base):
            assert (automorphism_count(ccq)
                    == reference_automorphism_count(ccq)), ccq


# --- automorphisms vs endomorphism enumeration ---------------------------

def test_automorphism_count_cross_checked_against_endomorphisms():
    """|Aut| equals the automorphisms found by independent endomorphism
    enumeration; on duplicate-free complete CCQs the Sec. 5.2 lemma
    upgrades that to *all* endomorphisms (plain homomorphisms are
    set-semantics, so a duplicated atom admits non-multiset-preserving
    endos, and a free head admits collapses onto head variables)."""
    rng = random.Random(17)
    checked = 0
    for _ in range(12):
        base = random_cq(rng, max_atoms=3, max_vars=3)
        for ccq in complete_description(base):
            endos = endomorphisms(ccq)
            automorphisms = [mapping for mapping in endos
                             if is_automorphism(ccq, mapping)]
            assert automorphism_count(ccq) == len(automorphisms), ccq
            if len(set(ccq.atoms)) == len(ccq.atoms):
                assert automorphism_count(ccq) == len(endos), ccq
            checked += 1
    assert checked > 20


# --- inequality- and constant-bearing cases ------------------------------

def test_inequalities_distinguish_keys():
    plain = parse_cq("Q() :- R(u, v)")
    ccq = parse_cq("Q() :- R(u, v), u != v")
    assert canonical_key(plain) != canonical_key(ccq)
    assert are_isomorphic(ccq, parse_cq("Q() :- R(s, t), s != t"))


def test_inequalities_interact_with_automorphisms():
    symmetric = parse_cq("Q() :- R(u, v), R(v, u)")
    assert automorphism_count(symmetric) == 2
    swap_atoms = [Atom("R", (Var("u"), Var("v"))),
                  Atom("R", (Var("v"), Var("u"))), Atom("S", (Var("w"),))]
    # a symmetric inequality keeps the u↔v swap an automorphism …
    kept = CQWithInequalities((), swap_atoms, [(Var("u"), Var("v"))])
    assert automorphism_count(kept) == 2
    assert reference_automorphism_count(kept) == 2
    # … an asymmetric one (u ≠ w only) destroys it
    broken = CQWithInequalities((), swap_atoms, [(Var("u"), Var("w"))])
    assert automorphism_count(broken) == 1
    assert reference_automorphism_count(broken) == 1


def test_constants_are_fixed_points():
    with_constant = parse_cq("Q() :- R(x, 'a'), R(y, 'b')")
    rng = random.Random(3)
    renamed = _rename_existentials(with_constant, rng)
    assert canonical_key(with_constant) == canonical_key(renamed)
    assert canonical_key(with_constant) != canonical_key(
        parse_cq("Q() :- R(x, 'a'), R(y, 'a')"))
    assert automorphism_count(with_constant) == \
        reference_automorphism_count(with_constant)
    assert automorphism_count(parse_cq("Q() :- R(x, 'a'), R(y, 'a')")) == 2


def test_integer_labels_beyond_ten_existentials():
    """Serializations must use integer label order, not string order
    ("e10" < "e2"): twelve interchangeable existentials canonicalize
    invariantly."""
    atoms = [Atom("S", (Var(f"w{i:03d}"),)) for i in range(12)]
    query = _complete_ccq(atoms)
    rng = random.Random(8)
    renamed = _rename_existentials(query, rng)
    assert canonical_key(query) == canonical_key(renamed)
    assert canonical_rename(query) == canonical_rename(renamed)
    assert automorphism_count(query) == math.factorial(12)


# --- scale: past the factorial wall --------------------------------------

def test_twenty_existential_symmetric_ccq():
    atoms = [Atom("S", (Var(f"x{i:02d}"),)) for i in range(20)]
    query = _complete_ccq(atoms)
    form = compute_canonical_form(query)
    assert form.automorphisms == math.factorial(20)
    renamed = canonical_rename(query)
    assert len(renamed.existential_vars()) == 20
    assert canonical_rename(renamed) == renamed


def test_twenty_existential_chain_ccq():
    atoms = [Atom("R", (Var(f"x{i:02d}"), Var(f"x{i + 1:02d}")))
             for i in range(20)]
    query = _complete_ccq(atoms)
    form = compute_canonical_form(query)
    assert form.automorphisms == 1
    rng = random.Random(20)
    assert canonical_key(query) == canonical_key(
        _rename_existentials(query, rng))


# --- exports (ISSUE 5 satellite 3) ---------------------------------------

def test_isomorphism_module_exports_complete():
    for name in ("canonical_rename", "endomorphisms", "is_automorphism",
                 "canonical_key", "are_isomorphic", "automorphism_count",
                 "isomorphism_classes"):
        assert name in isomorphism.__all__, name
        assert hasattr(isomorphism, name), name


# --- engine cache layer and snapshots ------------------------------------

def test_engine_routes_canonical_forms_through_its_lru():
    engine = ContainmentEngine()
    query = parse_cq("Q() :- R(u, v), R(v, u)")
    context = engine.context
    first = context.canonical_form(query)
    second = context.canonical_form(query)
    assert isinstance(first, CanonicalForm)
    assert first == second
    assert engine.stats.canon_calls == 1
    assert engine.stats.canon_hits == 1
    report = engine.cache_stats()["layers"]["canonical"]
    assert report["entries"] == 1
    assert report["hit_ratio"] == 0.5


#: A UCQ pair whose ``N[X]`` verdict goes through ``→֒∞`` (Ex. 5.7),
#: exercising the canonical layer inside a real decision.
_COUNTING_REQUEST = (
    ["Q() :- R(u, v), R(u, u)", "Q() :- R(u, v), R(v, v)"],
    ["Q() :- R(u, v), R(w, w)", "Q() :- R(u, u), R(u, u)"],
    "N[X]",
)


def test_counting_conditions_populate_the_canonical_layer():
    engine = ContainmentEngine()
    verdict = engine.decide(*_COUNTING_REQUEST)
    assert verdict.result is True
    assert verdict.method == "bi-count-infty"
    assert engine.stats.canon_calls > 0
    assert engine.cache_info()["canon_entries"] > 0


def test_canonical_layer_survives_snapshot_round_trip(tmp_path):
    cold = ContainmentEngine()
    cold_doc = cold.decide(*_COUNTING_REQUEST)
    assert cold.cache_info()["canon_entries"] > 0
    path = tmp_path / "canon.snap"
    save_snapshot(cold, path, include_verdicts=False)

    warm = ContainmentEngine()
    counts = load_snapshot(warm, path)
    assert counts["canonical"] == cold.cache_info()["canon_entries"]
    # A restored class table asks for no canonical form; without it the
    # table is rebuilt, and every form it needs must be a recall.
    warm._descriptions.clear()
    warm_doc = warm.decide(*_COUNTING_REQUEST)
    assert warm_doc.to_dict() == cold_doc.to_dict()
    assert warm.stats.canon_calls == 0
    assert warm.stats.canon_hits > 0


def test_isomorphism_classes_with_context_matches_plain():
    engine = ContainmentEngine()
    queries = [
        parse_cq("Q() :- R(u, v), u != v"),
        parse_cq("Q() :- R(a, b), a != b"),
        parse_cq("Q() :- R(u, u)"),
    ]
    plain = isomorphism_classes(queries)
    routed = isomorphism_classes(queries, context=engine.context)
    assert ({key: len(members) for key, members in plain.items()}
            == {key: len(members) for key, members in routed.items()})
    assert engine.stats.canon_calls > 0


# --- the key format -----------------------------------------------------

#: Three queries with inequalities, whether each is complete, and their
#: literal canonical keys.  The ``canonical`` and
#: ``descriptions`` layers and every snapshot share this format, so a
#: change to it must show here.  Existentials serialize as ``(1,
#: label)``, head variables as ``(0, first head position)``, constants
#: as ``(2, type name, repr)``.
PINNED_KEYS = [
    # The chain-4 quotient identifying a with c.
    ("Q() :- E(a, b), E(b, a), E(a, d), a != b, a != d, b != d", True,
     ("CQWithInequalities", 0, (
         (("E", ((1, 0), (1, 1))), ("E", ((1, 0), (1, 2))),
          ("E", ((1, 1), (1, 0)))),
         (((1, 0), (1, 1)), ((1, 0), (1, 2)), ((1, 1), (1, 2))))), 1),
    # The directed 3-clique.
    ("Q() :- E(x, y), E(y, x), E(y, z), E(z, y), E(x, z), E(z, x), "
     "x != y, x != z, y != z", True,
     ("CQWithInequalities", 0, (
         (("E", ((1, 0), (1, 1))), ("E", ((1, 0), (1, 2))),
          ("E", ((1, 1), (1, 0))), ("E", ((1, 1), (1, 2))),
          ("E", ((1, 2), (1, 0))), ("E", ((1, 2), (1, 1)))),
         (((1, 0), (1, 1)), ((1, 0), (1, 2)), ((1, 1), (1, 2))))), 6),
    # A constant and a head variable, which the existentials are not
    # constrained against: pairwise unequal, but not complete.
    ("Q(h) :- E(h, x), E(x, y), S(x, 'c'), S(y, 'c'), x != y", False,
     ("CQWithInequalities", 1, (
         (("E", ((0, 0), (1, 0))), ("E", ((1, 0), (1, 1))),
          ("S", ((1, 0), (2, "str", "'c'"))),
          ("S", ((1, 1), (2, "str", "'c'")))),
         (((1, 0), (1, 1)),))), 1),
]


@pytest.mark.parametrize("text, complete, key, group", PINNED_KEYS,
                         ids=["chain4-quotient", "clique3", "rigid"])
def test_canonical_keys_are_pinned(text, complete, key, group):
    ccq = parse_cq(text)
    assert ccq.is_complete() is complete
    form = compute_canonical_form(ccq)
    assert form.key == key
    assert form.automorphisms == group
    assert compute_canonical_form(QueryCode.of(ccq)) == form
