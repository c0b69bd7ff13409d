"""A two-sided oracle over every registered semiring, with no brute force.

The brute-force oracle only refutes.  These properties certify both
ways, on pairs with constants and head variables:

(i)   *Specialisation.*  ``Q1`` is ``Q2`` with at most one existential
      per member bound to a constant or to a head variable of that
      member.  Every valuation of a ``Q1`` member extends to one of its
      ``Q2`` member with the same monomial, so ``Q1 ⊆K Q2`` over every
      naturally ordered ``K``: no verdict may be ``False``.
(ii)  *Semiring homomorphisms preserve containment.*  A surjective
      homomorphism ``K1 → K2`` carries ``⊆K1`` to ``⊆K2``, along the
      edges ``N[X]`` → every ``K``, ``N`` → ``N_k``, ``N_k[X]`` →
      ``N_k`` and every positive ``K`` → ``B`` (the support map): a
      ``True`` at ``K1`` forbids a ``False`` at ``K2``.
(iii) So a ``False`` over ``B`` is a ``False`` over every positive
      ``K``.  ``L`` is left out of (ii) and (iii): the Łukasiewicz
      t-norm has zero divisors, so its support map is no homomorphism.
(iv)  *Exact refutations.*  For every equality type of the output tuple
      (head values equal to each other or to a constant), both queries
      are evaluated in ``N[X]`` on the canonical instance of each
      ``Q1`` member that can answer it, at that tuple.  Where ``Q1``'s
      polynomial is not below ``Q2``'s, ``N[X]`` may not answer
      ``True``, and where its value at all tags 1 is not below, ``N``
      may not either.  (i)–(iii) only check verdicts against each
      other; this one catches a ``True`` that is wrong everywhere.
(v)   *The transfer is no shortcut past a refutation.*  The dispatch
      answers ``True`` along ``N[X] → K`` when every ``Q1`` member has
      its own ``Q2`` member with a bijective homomorphism onto it
      (``repro.core.containment.transferred``), so (ii) alone would
      check that shortcut against itself.  Each pair it decides is
      re-decided on every semiring with it patched out: no class
      procedure, small model or bounds sweep may answer ``False``
      there, and ``N[X]``'s own procedure must answer ``True``.
(vi)  *Refutations carry their own proof.*  Every ``refuted`` verdict
      (the bag refuter's probe instance,
      ``repro.core.containment.refuted``) re-checks through the
      tuple-at-a-time evaluator on the pair as drawn: both queries take
      the recorded values at the recorded tuple, and ``Q1``'s is not
      below ``Q2``'s (``repro.core.explain.check_refutation``).

The pairs come from the generator below, not from
``repro.queries.generators``.  ``REPRO_ORACLE_PAIRS`` sets how many
pairs each property draws (default 400, a seeded slice of about five
seconds; CI runs 2,000).
"""

from __future__ import annotations

import os
import random

import pytest

import repro.core.containment as containment
from repro.api import ContainmentEngine
from repro.core import decide_containment
from repro.core.explain import check_refutation
from repro.data.canonical import canonical_instance
from repro.queries import UCQ, Atom, Var
from repro.queries.cq import CQ
from repro.queries.evaluation import evaluate
from repro.semirings import ALL_SEMIRINGS, N
from repro.semirings.provenance import NX
from tests.reference_quotient import reference_head_patterns

PAIRS = int(os.environ.get("REPRO_ORACLE_PAIRS", "400"))

SCHEMA = (("R", 2), ("S", 1))
VARIABLES = tuple(Var(name) for name in "xyzw")
#: Constants of the pairs; ``2`` never occurs in a drawn query, so a
#: specialisation may bind to a constant that is new to the pair.
CONSTANTS = ("a", "b", 1, 2)

NAMES = tuple(semiring.name for semiring in ALL_SEMIRINGS)
#: Semirings whose support map is a homomorphism to ``B``.
POSITIVE = tuple(name for name in NAMES if name != "L")
#: ``(K1, K2)``: a surjective homomorphism ``K1 → K2`` exists.
EDGES = (
    [("N[X]", name) for name in NAMES if name != "N[X]"]
    + [("N", name) for name in ("N_2", "N_3")]
    + [(f"N_{k}[X]", f"N_{k}") for k in (2, 3)]
    + [(name, "B") for name in POSITIVE if name != "B"])


def _member(rng: random.Random, arity: int) -> CQ:
    """Up to three atoms over ``R/2`` and ``S/1``, a fifth of the terms
    constants, the head ``arity`` body variables."""
    while True:
        atoms = [Atom(relation, [
            rng.choice(VARIABLES[:3]) if rng.random() < 0.8
            else rng.choice(CONSTANTS[:3]) for _ in range(width)])
            for relation, width in (rng.choice(SCHEMA)
                                    for _ in range(rng.randint(1, 3)))]
        body = sorted({var for atom in atoms for var in atom.variables()})
        if len(body) >= arity:
            return CQ(rng.sample(body, arity), atoms)


def _union(rng: random.Random, arity: int) -> UCQ:
    return UCQ([_member(rng, arity) for _ in range(rng.randint(1, 2))])


def _specialise(rng: random.Random, member: CQ) -> CQ:
    """``member`` with at most one existential bound to a constant or
    to one of its head variables."""
    existential = member.existential_vars()
    if not existential or rng.random() < 0.2:
        return member
    targets = [*CONSTANTS, *member.head]
    var = rng.choice(existential)
    return member.substitute({var: rng.choice(targets)})


def _pairs(seed: int):
    """``PAIRS`` pairs ``(Q1, Q2, specialised)``: half specialisations
    (``specialised`` True), a quarter independent draws, and a quarter
    two specialisations of one ``Q2`` member side by side, which a
    head value equal to another, or to a constant, may count twice."""
    rng = random.Random(seed)
    for index in range(PAIRS):
        arity = rng.choice((0, 0, 1, 2))
        q2 = _union(rng, arity)
        if index % 2 == 0:
            yield UCQ([_specialise(rng, member) for member in q2]), q2, True
        elif index % 4 == 1:
            yield _union(rng, arity), q2, False
        else:
            member = q2.cqs[0]
            yield UCQ([_specialise(rng, member), _specialise(rng, member)]), \
                UCQ([member]), False


@pytest.fixture(scope="module")
def verdicts():
    """Every pair's verdict over every registered semiring."""
    engine = ContainmentEngine()
    table = []
    for q1, q2, specialised in _pairs(2026):
        table.append((q1, q2, specialised, {
            name: engine.decide(q1, q2, name).result for name in NAMES}))
    return table


def test_specialisations_are_contained_everywhere(verdicts):
    violations = [(q1, q2, name) for q1, q2, specialised, results in verdicts
                  if specialised
                  for name, result in results.items() if result is False]
    assert not violations, violations[:5]
    assert sum(specialised for *_, specialised, _ in verdicts) >= PAIRS // 2


def test_semiring_homomorphisms_preserve_containment(verdicts):
    violations = [(q1, q2, k1, k2) for q1, q2, _, results in verdicts
                  for k1, k2 in EDGES
                  if results[k1] is True and results[k2] is False]
    assert not violations, violations[:5]


def test_a_boolean_refutation_refutes_every_positive_semiring(verdicts):
    violations = [(q1, q2, name) for q1, q2, _, results in verdicts
                  if results["B"] is False
                  for name in POSITIVE if results[name] is not False]
    assert not violations, violations[:5]
    # The draws must exercise both sides of every property.
    assert any(results["B"] is False for *_, results in verdicts)
    assert any(results["N[X]"] is True for *_, results in verdicts)


def test_no_class_procedure_refutes_a_transferred_pair(verdicts,
                                                       monkeypatch):
    context = ContainmentEngine().context
    transferred = [(q1, q2) for q1, q2, *_ in verdicts
                   if containment.transferred(q1, q2, NX, context)
                   is not None]
    assert transferred
    monkeypatch.setattr(containment, "transferred", lambda *args: None)
    engine = ContainmentEngine()
    violations = []
    for q1, q2 in transferred:
        results = {name: engine.decide(q1, q2, name).result
                   for name in NAMES}
        violations += [(q1, q2, name) for name, result in results.items()
                       if result is False]
        if results["N[X]"] is not True:
            violations.append((q1, q2, "N[X] not True"))
    assert not violations, violations[:5]


def _refuted_at_a_head_pattern(q1: UCQ, q2: UCQ) -> tuple[bool, bool]:
    """Whether some canonical instance of a head-specialised ``Q1``
    member refutes ``Q1 ⊆ Q2`` over ``N[X]``, and over ``N``."""
    in_nx = in_n = False
    for values, p1, _ in reference_head_patterns(q1, q2):
        for member in p1:
            instance = canonical_instance(member).instance
            left = evaluate(q1, instance, values, NX)
            right = evaluate(q2, instance, values, NX)
            if not NX.leq(left, right):
                in_nx = True
                ones = {tag: 1 for tag in left.variables() | right.variables()}
                in_n = in_n or left.eval_in(N, ones) > right.eval_in(N, ones)
    return in_nx, in_n


def test_no_true_is_refuted_at_a_head_pattern(verdicts):
    violations = []
    refuted = 0
    for q1, q2, _, results in verdicts:
        in_nx, in_n = _refuted_at_a_head_pattern(q1, q2)
        refuted += in_nx
        if (in_nx and results["N[X]"] is True
                or in_n and results["N"] is True):
            violations.append((q1, q2))
    assert not violations, violations[:5]
    assert refuted


def test_every_refutation_rechecks_by_evaluation(verdicts):
    engine = ContainmentEngine()
    checked, violations = 0, []
    for q1, q2, _, results in verdicts:
        for name, result in results.items():
            if result is not False:
                continue
            semiring = engine.semiring(name)
            verdict = decide_containment(q1, q2, semiring, context=engine)
            if verdict.method != "refuted":
                continue
            checked += 1
            if not check_refutation(q1, q2, semiring, verdict.certificate):
                violations.append((q1, q2, name, verdict.certificate))
    assert not violations, violations[:5]
    assert checked > 0


@pytest.mark.parametrize("q1, q2", [
    (["Q(x) :- R(x, x)", "Q(x) :- R(x, 'c')"], ["Q(x) :- R(x, z)"]),
    (["Q(x, y) :- R(x, x), S(y, x)", "Q(x, y) :- R(x, y), S(y, y)"],
     ["Q(x, y) :- R(x, z), S(y, z)"]),
], ids=["head-meets-constant", "head-meets-head"])
def test_coinciding_head_values_refute(q1, q2):
    """Each ``Q1`` member is a specialisation of ``Q2``'s, with its head
    values distinct; but at ``x = 'c'`` (or ``x = y``) both members
    answer with the one fact ``Q2`` counts once.  ``⟨Q⟩`` splits the
    valuations exactly only at distinct head values, so the decision
    runs per head pattern."""
    engine = ContainmentEngine()
    results = {name: engine.decide(q1, q2, name).result for name in NAMES}
    for name in ("N[X]", "N", "N_2[X]", "Lin[X]×N_2"):
        assert results[name] is False, name
    # Every semiring in which 1 + 1 ≠ 1 sees the double count.
    for name in ("N_2", "N_3", "R+", "N_3[X]", "Ssur[X]", "Trio[X]"):
        assert results[name] is not True, name


def test_pairs_carry_constants_and_head_variables(verdicts):
    assert any(q1.arity for q1, *_ in verdicts)
    assert any(q1.arity == 2 for q1, *_ in verdicts)
    assert any(not isinstance(term, Var)
               for q1, q2, *_ in verdicts for member in (*q1, *q2)
               for atom in member.atoms for term in atom.terms)


@pytest.mark.parametrize("q1, q2", [
    (["Q() :- R(x, 'a')"], ["Q() :- R(x, y)"]),
    (["Q() :- R(x, 'a')", "Q() :- S(y)"], ["Q() :- R(x, y)", "Q() :- S(y)"]),
    (["Q(h) :- R(h, h)"], ["Q(h) :- R(h, y)"]),
], ids=["cq-constant", "ucq-constant", "cq-head-variable"])
def test_specialisation_reproducers_are_never_refuted(q1, q2):
    """The pairs that ``⟨Q⟩`` answered wrongly while it never bound an
    existential to a constant or a head variable (``N[X]`` said
    ``True`` and ``N`` ``False`` on the first; ``N[X]`` and ``N_2[X]``
    said ``False`` on the second)."""
    engine = ContainmentEngine()
    results = {name: engine.decide(q1, q2, name).result for name in NAMES}
    assert not [name for name, result in results.items()
                if result is False], results
    assert results["N[X]"] is True
    assert results["N_2[X]"] is True
