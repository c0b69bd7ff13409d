"""Kernel-level ``⇉2``/``։∞``, the capacitated matcher, and ``Ssur[X]``'s
order, each against an occurrence-level oracle.

:func:`covering_2` and :func:`sur_infty` decide over isomorphism
classes of ``⟨Q1⟩`` and read ``⟨Q2⟩`` off homomorphism kernels; both
descriptions are taken relative to the pair's rigid terms (head
variables and constants).  The oracles in
``tests/occurrence_conditions.py`` walk the full occurrence grid of the
variable-level descriptions.  The matcher is checked against Hall's
condition on the blown-up graph, and ``Ssur[X]``'s order against an
exhaustive search for an injective occurrence assignment.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ContainmentEngine
from repro.homomorphisms import covering_2, covering_union, sur_infty
from repro.homomorphisms.matching import saturates
from repro.polynomials.polynomial import Monomial, Polynomial
from repro.queries import UCQ, Atom, Var
from repro.queries.ccq import complete_description
from repro.queries.cq import CQ
from repro.queries.parser import parse_cq
from repro.semirings.ssur_free import SSUR, _dominates
from tests.occurrence_conditions import (occurrence_covering_2,
                                         occurrence_sur_infty)

EXISTENTIALS = (Var("x"), Var("y"), Var("z"))
HEAD_VAR = Var("h")
CONSTANTS = ("a", 1)


@st.composite
def cqs(draw, head: tuple, constants: tuple = CONSTANTS) -> CQ:
    """Up to three atoms over ``R/2`` and ``S/1`` with variables, head
    variables and ``constants``, plus an optional duplicated atom and an
    optional self-loop."""
    terms = st.sampled_from(EXISTENTIALS + head + constants)
    atom = st.one_of(
        st.builds(lambda t: Atom("S", (t,)), terms),
        st.builds(lambda s, t: Atom("R", (s, t)), terms, terms),
    )
    atoms = draw(st.lists(atom, min_size=1, max_size=3))
    if draw(st.booleans()):
        atoms.append(atoms[0])
    if draw(st.booleans()):
        loop = draw(st.sampled_from(EXISTENTIALS + head))
        atoms.append(Atom("R", (loop, loop)))
    present = {var for atom in atoms for var in atom.variables()}
    atoms.extend(Atom("S", (var,)) for var in head if var not in present)
    return CQ(head, atoms)


@st.composite
def ucq_pairs(draw) -> tuple[UCQ, UCQ]:
    head = draw(st.sampled_from(((), (HEAD_VAR,))))
    members = st.lists(cqs(head), min_size=1, max_size=3)
    return UCQ(tuple(draw(members))), UCQ(tuple(draw(members)))


@st.composite
def rigid_free_pairs(draw) -> tuple[UCQ, UCQ]:
    """Boolean, constant-free pairs: ``⟨Q⟩`` partitions the
    existentials alone."""
    members = st.lists(cqs((), constants=()), min_size=1, max_size=3)
    return UCQ(tuple(draw(members))), UCQ(tuple(draw(members)))


@st.composite
def ccq_member_pairs(draw) -> tuple[UCQ, UCQ]:
    """Boolean, constant-free pairs whose ``Q2`` holds CCQs of a
    member of ``Q1`` (part of its complete description), next to
    plain members: pairs the direct ``⇉1`` check must leave to the
    members' cover of each ``⟨Q1⟩`` representative."""
    plain = st.lists(cqs((), constants=()), max_size=2)
    split = draw(cqs((), constants=()))
    ccqs = draw(st.lists(st.sampled_from(complete_description(split)),
                         min_size=1, max_size=3))
    return (UCQ(tuple(ccqs + draw(plain))),
            UCQ((split, *draw(plain))))


PAIR_SETTINGS = settings(max_examples=120, deadline=None)


@PAIR_SETTINGS
@given(ucq_pairs())
def test_covering_2_matches_occurrence_oracle(pair):
    q2, q1 = pair
    expected = occurrence_covering_2(q2, q1)
    assert covering_2(q2, q1) == expected
    assert covering_2(q2, q1,
                      context=ContainmentEngine().context) == expected


@settings(max_examples=300, deadline=None)
@given(rigid_free_pairs())
def test_covering_2_on_rigid_free_pairs_matches_occurrence_oracle(pair):
    """``Q2 ⇉1 Q1`` on the given queries stands in for
    ``⟨Q2⟩ ⇉1 ⟨Q1⟩`` here (Sec. 5.4)."""
    q2, q1 = pair
    expected = occurrence_covering_2(q2, q1)
    assert covering_2(q2, q1) == expected
    assert covering_2(q2, q1,
                      context=ContainmentEngine().context) == expected


@pytest.mark.parametrize("source, target", [
    ("Q() :- R(x, y), S(x)", "Q() :- R(x, 'a'), S(x)"),
    ("Q(v1) :- R(v0, v3), S(v1)", "Q(v0) :- R(v1, v0), R(v2, v0), S(v0)"),
])
def test_covering_2_with_rigid_terms_keeps_the_class_level_check(
        source, target):
    """Pairs with a constant or a head variable, where ``Q2 ⇉1 Q1``
    holds.  ``⇉2`` still answers ``⟨Q2⟩ ⇉1 ⟨Q1⟩`` over the classes of
    ``⟨Q1⟩``; ``⟨Q⟩`` binds existentials to rigid terms, so that holds
    too and agrees with the occurrence grid.  (Before ``⟨Q⟩`` was taken
    relative to the rigid terms, both answered ``False``, and ``N``
    refuted the first pair although ``Q1`` specialises ``Q2``.)"""
    q2, q1 = UCQ((parse_cq(source),)), UCQ((parse_cq(target),))
    assert covering_union(q2, q1)
    assert occurrence_covering_2(q2, q1) is True
    assert covering_2(q2, q1) is True
    assert covering_2(q2, q1, context=ContainmentEngine().context) is True


def test_covering_2_with_a_ccq_member_keeps_the_class_level_check():
    """``Q2 = Q1 + ΣS`` with ``Q1``'s ``R``-atom split over a CCQ member
    and a loop, so ``Q1 ⊆N Q2``.  The CCQ member covers the ``u ≠ v``
    CCQ of ``⟨Q1⟩`` but nothing of ``Q1`` itself: a homomorphism must
    map ``x ≠ y`` onto an inequality, and ``Q1`` has none.  So
    ``Q2 ⇉1 Q1`` fails while ``⟨Q2⟩ ⇉1 ⟨Q1⟩`` holds."""
    q2 = UCQ((parse_cq("Q() :- R(x, y), S(x), x != y"),
              parse_cq("Q() :- R(x, x), S(x)"),
              parse_cq("Q() :- S(z)")))
    q1 = UCQ((parse_cq("Q() :- R(u, v), S(u)"),))
    assert not covering_union(q2, q1)
    assert occurrence_covering_2(q2, q1) is True
    assert covering_2(q2, q1) is True
    assert covering_2(q2, q1, context=ContainmentEngine().context) is True
    assert ContainmentEngine().decide(q1, q2, "N").result is True


def test_covering_2_rejects_a_partially_constrained_member():
    """Such a member has no complete description; the direct ``⇉1``
    check must not answer before that is found out."""
    partial = parse_cq("Q() :- R(x, y), R(y, z), x != y")
    q1 = UCQ((parse_cq("Q() :- S(u)"),))
    with pytest.raises(ValueError):
        covering_2(UCQ((partial,)), q1)


@PAIR_SETTINGS
@given(ccq_member_pairs())
def test_covering_2_with_ccq_members_matches_occurrence_oracle(pair):
    q2, q1 = pair
    expected = occurrence_covering_2(q2, q1)
    assert covering_2(q2, q1) == expected
    assert covering_2(q2, q1,
                      context=ContainmentEngine().context) == expected


@PAIR_SETTINGS
@given(ucq_pairs())
def test_sur_infty_matches_occurrence_oracle(pair):
    q2, q1 = pair
    expected = occurrence_sur_infty(q2, q1)
    assert sur_infty(q2, q1) == expected
    assert sur_infty(q2, q1,
                     context=ContainmentEngine().context) == expected


@PAIR_SETTINGS
@given(ucq_pairs())
def test_conditions_match_oracle_on_self_containment(pair):
    """``Q ⊆ Q ∪ Q`` shapes: equal descriptions on both sides make
    every class its own preimage, the case where counts decide."""
    q, _ = pair
    doubled = UCQ(tuple(q) + tuple(q))
    for source, target in ((q, doubled), (doubled, q), (q, q)):
        assert covering_2(source, target) == occurrence_covering_2(
            source, target)
        assert sur_infty(source, target) == occurrence_sur_infty(
            source, target)


def _chain(length: int) -> CQ:
    return CQ((), [Atom("E", (Var(f"v{i}"), Var(f"v{i + 1}")))
                   for i in range(length)])


def test_class_level_runs_fewer_primitive_searches():
    """On a 5-variable chain the package's conditions issue fewer
    covered-atom searches, and fewer homomorphism searches and kernel
    enumerations together, than the occurrence grid's searches."""
    q1, q2 = UCQ((_chain(4),)), UCQ((_chain(3), _chain(4)))
    for condition, oracle in ((covering_2, occurrence_covering_2),
                              (sur_infty, occurrence_sur_infty)):
        fast, slow = ContainmentEngine(), ContainmentEngine()
        assert condition(q2, q1, context=fast.context) == oracle(
            q2, q1, context=slow.context)
        assert (fast.stats.hom_calls + fast.stats.kernel_calls
                < slow.stats.hom_calls)
        assert fast.stats.cover_calls <= slow.stats.cover_calls


mixed_terms = st.one_of(st.sampled_from(EXISTENTIALS + (HEAD_VAR,)),
                        st.sampled_from(("a", "b", "10")),
                        st.integers(-2, 12))
mixed_atoms = st.builds(Atom, st.sampled_from("RS"),
                        st.lists(mixed_terms, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(mixed_atoms, max_size=8))
def test_atom_key_sort_equals_comparison_sort(body):
    """``CQ`` sorts its body by :meth:`Atom.sort_key`; the order is the
    one ``Atom.__lt__`` gives, over variables and str and int
    constants alike."""
    assert (tuple(sorted(body, key=Atom.sort_key))
            == tuple(sorted(body)))


# --- the matcher -----------------------------------------------------------

def _hall_holds(demand, capacity, adjacency) -> bool:
    """Hall's condition over every subset of left *occurrences* of the
    blown-up graph."""
    left = [i for i, count in enumerate(demand) for _ in range(count)]
    for size in range(1, len(left) + 1):
        for subset in itertools.combinations(range(len(left)), size):
            groups = {left[index] for index in subset}
            neighbours = {j for i in groups for j in adjacency[i]}
            if size > sum(capacity[j] for j in neighbours):
                return False
    return True


@st.composite
def capacitated_graphs(draw):
    n_left = draw(st.integers(0, 4))
    n_right = draw(st.integers(0, 4))
    demand = draw(st.lists(st.integers(0, 3), min_size=n_left,
                           max_size=n_left))
    capacity = draw(st.lists(st.integers(0, 3), min_size=n_right,
                             max_size=n_right))
    adjacency = [
        sorted(draw(st.sets(st.integers(0, n_right - 1), max_size=n_right)))
        if n_right else []
        for _ in range(n_left)
    ]
    return demand, capacity, adjacency


def _saturates(demand, capacity, adjacency):
    return saturates(demand, capacity, adjacency.__getitem__)


@settings(max_examples=400, deadline=None)
@given(capacitated_graphs())
def test_matcher_agrees_with_brute_force_hall(graph):
    demand, capacity, adjacency = graph
    assert _saturates(demand, capacity, adjacency) == _hall_holds(
        demand, capacity, adjacency)


def test_matcher_reroutes_earlier_assignments():
    # Left 0 first takes right 0; left 1 can only use right 0, so the
    # search must move left 0 over to right 1 along an augmenting path.
    assert _saturates([1, 1], [1, 1], [[0, 1], [0]])
    assert _saturates([2, 1], [1, 2], [[0, 1], [0]])
    assert not _saturates([2, 2], [1, 2], [[0, 1], [0]])
    assert _saturates([], [], [])
    assert not _saturates([1], [], [[]])


def test_matcher_asks_for_edges_lazily_and_stops_at_a_violation():
    asked = []

    def edges(i):
        asked.append(i)
        return [[0], [0], [0, 1]][i]

    # Left 1 finds right 0 full (left 0 holds it, with nowhere else to
    # go): a Hall violation, so left 2's edges are never asked for.
    assert not saturates([1, 1, 1], [1, 2], edges)
    assert asked == [0, 1]
    asked.clear()
    # More demand than capacity in total: no edge is asked for at all.
    assert not saturates([2, 2], [1, 2], edges)
    assert asked == []


def test_matcher_input_is_left_untouched():
    demand, capacity, adjacency = [2, 1], [1, 2], [[0, 1], [0]]
    _saturates(demand, capacity, adjacency)
    assert (demand, capacity, adjacency) == ([2, 1], [1, 2], [[0, 1], [0]])


# --- Ssur[X] order ---------------------------------------------------------

def _expanded_leq(a: Polynomial, b: Polynomial) -> bool:
    """Some injective assignment of ``a``'s monomial occurrences to
    dominating occurrences of ``b`` (exhaustive)."""
    left = [mono for mono, coeff in a.items() for _ in range(coeff)]
    right = [mono for mono, coeff in b.items() for _ in range(coeff)]
    return any(
        all(_dominates(right[j], mono) for mono, j in zip(left, chosen))
        for chosen in itertools.permutations(range(len(right)), len(left))
    )


monomials = st.lists(st.sampled_from("xy"), min_size=0, max_size=3).map(
    Monomial.from_variables)
polynomials = st.lists(st.tuples(monomials, st.integers(1, 2)),
                       max_size=3).map(Polynomial)


@settings(max_examples=300, deadline=None)
@given(polynomials, polynomials)
def test_ssur_leq_matches_expanded_brute_force(a, b):
    assert SSUR.leq(a, b) == _expanded_leq(a, b)

