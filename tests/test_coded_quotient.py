"""Coded quotients against the variable-level reference quotient.

:meth:`repro.queries.ccq.QueryCode.quotient` relabels a member's
integer rows through a partition's restricted-growth code, and the
canonical labeling runs on those rows.  For every partition of every
member drawn here, the coded quotient must agree with the CCQ that
``tests/reference_quotient.py`` builds by substituting variables:

* its canonical form has the reference CCQ's key, ``|Aut|`` and
  generators (indeed the whole record);
* it materialises to a query equal to the reference CCQ, with the
  same hash;
* its set reduct (duplicate rows dropped) has the key of the reference
  CCQ's set reduct.

Members come from the symmetric and asymmetric pools of
``tests/test_description_classes.py`` and from a seeded generator with
constants, head variables, repeated atoms and relation arities 1–3.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.homomorphisms.canonical import compute_canonical_form
from repro.queries import Atom, Var
from repro.queries.ccq import (CQWithInequalities, QueryCode, binding_codes,
                               complete_description, description_size,
                               growth_codes, set_partitions)
from repro.queries.cq import CQ
from tests.reference_quotient import (quotient,
                                      reference_complete_description,
                                      set_reduce)
from tests.test_description_classes import ASYMMETRIC, SYMMETRIC

SCHEMA = (("A", 1), ("E", 2), ("E", 2), ("T", 3))
CONSTANTS = ("c", "d", 7)


def random_member(rng: random.Random) -> CQ:
    """A CQ with up to five variables, some constants, a head of up to
    two variables (repeats allowed) and repeated atoms."""
    names = rng.sample(["x", "y", "z", "w", "u", "e0", "e1"],
                       rng.randint(1, 5))
    variables = [Var(name) for name in names]
    atoms: list[Atom] = []
    for _ in range(rng.randint(1, 5)):
        if atoms and rng.random() < 0.25:
            atoms.append(rng.choice(atoms))
            continue
        relation, arity = rng.choice(SCHEMA)
        atoms.append(Atom(relation, [
            rng.choice(variables) if rng.random() < 0.8
            else rng.choice(CONSTANTS) for _ in range(arity)]))
    body = sorted({var for atom in atoms for var in atom.variables()})
    head = [rng.choice(body) for _ in range(rng.randint(0, 2))] \
        if body else []
    return CQ(head, atoms)


def _members() -> list[CQ]:
    rng = random.Random(2026)
    return [*SYMMETRIC, *ASYMMETRIC,
            *(random_member(rng) for _ in range(60))]


MEMBERS = _members()


def _record(form) -> tuple:
    return (form.key, form.automorphisms, form.generators)


@pytest.mark.parametrize("member", MEMBERS, ids=repr)
def test_every_coded_quotient_matches_the_reference(member):
    code = QueryCode.of(member)
    variables = member.existential_vars()
    for partition in set_partitions(variables):
        blocks = {var: block[0] for block in partition for var in block}
        first: dict = {}
        growth = tuple(first.setdefault(blocks[var], len(first))
                       for var in variables)
        coded = code.quotient(growth)
        reference = quotient(member, partition)

        form = compute_canonical_form(coded)
        expected = compute_canonical_form(reference)
        assert _record(form) == _record(expected), (member, partition)
        assert form == expected

        materialised = coded.materialise()
        assert materialised == reference, (member, partition)
        assert hash(materialised) == hash(reference)
        assert QueryCode.of(reference) == coded

        reduced = compute_canonical_form(coded.set_reduced())
        assert reduced.key == compute_canonical_form(
            set_reduce(reference)).key, (member, partition)


@pytest.mark.parametrize("member", MEMBERS, ids=repr)
def test_complete_description_is_the_reference_expansion(member):
    assert complete_description(member) \
        == reference_complete_description(member)


@pytest.mark.parametrize("n", range(7))
def test_growth_codes_follow_set_partitions(n):
    codes = list(growth_codes(n))
    assert len(set(codes)) == len(codes) == sum(
        1 for _ in set_partitions(range(n)))
    for code, partition in zip(codes, set_partitions(tuple(range(n)))):
        assert all(code[i] == code[block[0]]
                   for block in partition for i in block)
        assert len(set(code)) == len(partition)


@pytest.mark.parametrize("n, r", [(1, 0), (3, 0), (0, 2), (2, 1), (3, 2),
                                  (4, 1)])
def test_binding_codes_count_and_extend_growth_codes(n, r):
    codes = list(binding_codes(n, r))
    member = CQ([Var(f"h{j}") for j in range(r)],
                [Atom("T", (Var(f"h{j}"),)) for j in range(r)]
                + [Atom("A", (Var(f"x{i}"),)) for i in range(n)])
    assert len(set(codes)) == len(codes) == description_size(member, ())
    assert [code for code in codes if min(code, default=0) >= 0] \
        == list(growth_codes(n))


def test_codes_are_equal_exactly_when_the_queries_are():
    codes: dict[CQ, QueryCode] = {}
    for member in MEMBERS:
        for ccq in reference_complete_description(member):
            code = QueryCode.of(ccq)
            assert codes.setdefault(ccq, code) == code
    assert len(set(codes.values())) == len(codes)


def test_a_code_survives_pickling():
    member = MEMBERS[-1]
    for ccq in reference_complete_description(member):
        code = QueryCode.of(ccq)
        restored = pickle.loads(pickle.dumps(code))
        assert restored == code and hash(restored) == hash(code)
        assert restored.materialise() == ccq


def test_a_member_with_inequalities_enumerates_only_its_bindings():
    """A described member with inequalities has pairwise unequal
    existentials, so its CCQs are its injective bindings to rigid terms
    that no inequality forbids: a complete member with ten existentials
    is its own description, and one new constant adds one CCQ per
    existential, without walking the r-Bell many partitions."""
    evars = tuple(Var(f"e{i}") for i in range(10))
    member = CQWithInequalities(
        (), [Atom("E", (var, var)) for var in evars],
        [(x, y) for i, x in enumerate(evars) for y in evars[i + 1:]])
    assert complete_description(member) == (member,)
    assert description_size(member, ()) == 1
    assert len(complete_description(member, ("c",))) \
        == description_size(member, ("c",)) == 11
    small = CQWithInequalities(
        (), member.atoms[:4],
        [(x, y) for i, x in enumerate(evars[:4]) for y in evars[i + 1:4]])
    assert complete_description(small, ("c", "d")) \
        == reference_complete_description(small, ("c", "d"))
    # x may bind to 'd' only (x ≠ 'c'), y to 'c' or 'd', never both to
    # 'd' (x ≠ y): five CCQs.
    x, y = Var("x"), Var("y")
    member = CQWithInequalities(
        (), [Atom("E", (x, y))], [(x, y), (x, "c")])
    assert description_size(member, ("d",)) == len(
        reference_complete_description(member, ("d",))) == 5
