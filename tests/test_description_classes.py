"""``⟨Q⟩`` as a table of isomorphism classes, one CCQ per orbit.

:func:`repro.homomorphisms.isomorphism.description_classes` quotients
each plain member by one partition per orbit of the member's
automorphism group, with the orbit's size as multiplicity, and merges
the rows by canonical key.  These tests check the table against the
full expansion (the variable-level quotients of
``tests/reference_quotient.py`` grouped by ``isomorphism_classes``,
independent of the coded quotients under test), the automorphism
generators it is built from, and the canonical forms it saves on a
symmetric pair.

The pool mixes symmetric shapes (cliques, directed cycles, duplicated
atoms and members), members with head variables and constants (which
every automorphism fixes), a CCQ member and random queries: an orbit
larger than one partition needs a symmetry, and small random queries
rarely have one.
"""

from __future__ import annotations

import random

import pytest

from repro.api import ContainmentEngine
from repro.homomorphisms.canonical import compute_canonical_form
from repro.homomorphisms.isomorphism import (automorphism_count,
                                             description_classes,
                                             is_automorphism,
                                             isomorphism_classes)
from repro.queries import UCQ, Atom, Var
from repro.queries.ccq import complete_description, description_orbits
from repro.queries.cq import CQ
from repro.queries.generators import random_cq
from repro.queries.parser import parse_cq
from tests.reference_quotient import (pair_constants,
                                      reference_complete_description,
                                      reference_complete_description_ucq)


def _edges(pairs) -> CQ:
    return CQ((), [Atom("E", (Var(f"v{i}"), Var(f"v{j}"))) for i, j in pairs])


def chain(n: int) -> CQ:
    return _edges((i, i + 1) for i in range(n - 1))


def cycle(n: int) -> CQ:
    return _edges((i, (i + 1) % n) for i in range(n))


def clique(n: int) -> CQ:
    return _edges((i, j) for i in range(n) for j in range(n) if i != j)


def doubled(query: CQ) -> CQ:
    """``query`` with its first atom twice."""
    return CQ(query.head, query.atoms + query.atoms[:1])


#: Shapes with a nontrivial automorphism group, rigid terms included.
SYMMETRIC = (
    cycle(2), cycle(3), cycle(4), clique(2), clique(3), clique(4),
    _edges([(0, 1), (0, 2)]), _edges([(1, 0), (2, 0)]),
    _edges([(0, 1), (1, 0), (2, 3), (3, 2)]), CQ((), cycle(3).atoms * 2),
    parse_cq("Q(h) :- E(h, x), E(h, y), E(h, z)"),
    parse_cq("Q(h) :- E(h, x), E(x, h), E(h, y), E(y, h)"),
    parse_cq("Q() :- E(x, 'c'), E(y, 'c'), E(z, 'c')"),
    parse_cq("Q(h) :- E(x, y), E(y, x), S(x, 'c'), S(y, 'c'), R(h)"),
)

#: Shapes without one: every orbit is a single partition.
ASYMMETRIC = (chain(2), chain(3), chain(4), cycle(1), doubled(chain(3)),
              doubled(cycle(3)), _edges([(0, 1), (1, 0), (1, 2)]),
              parse_cq("Q(h) :- E(h, x), E(x, y), S(y, 'c')"))

#: A CCQ member: its description is itself.
CCQ_MEMBER = complete_description(parse_cq("Q() :- E(x, y), E(y, z)"))[0]


def _pool(seed: int) -> list[CQ]:
    rng = random.Random(seed)
    randoms = [random_cq(rng, schema=(("E", 2),), max_atoms=4, max_vars=4)
               for _ in range(8)]
    return [*SYMMETRIC, *ASYMMETRIC, CCQ_MEMBER, *randoms]


def _unions(seed: int, count: int):
    rng = random.Random(seed)
    pool = _pool(seed)
    for _ in range(count):
        first = rng.choice(pool)
        same_arity = [cq for cq in pool if cq.arity == first.arity]
        members = [first, *(rng.choice(same_arity)
                            for _ in range(rng.randint(0, 2)))]
        if rng.random() < 0.3:
            members.append(members[0])  # a duplicated member
        yield UCQ(members)


def _expected(union: UCQ) -> dict[tuple, int]:
    """``{key: size}`` of the full expansion, grouped by class."""
    classes = isomorphism_classes(reference_complete_description_ucq(union))
    return {key: len(members) for key, members in classes.items()}


# -- (a) the table equals the expansion ------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_table_equals_the_grouped_expansion(seed):
    for union in _unions(seed, 25):
        table = description_classes(union, pair_constants(union),
                                    context=ContainmentEngine())
        assert {row.key: row.multiplicity for row in table} \
            == _expected(union), union
        expansion = isomorphism_classes(
            reference_complete_description_ucq(union))
        assert [row.representative for row in table] \
            == [members[0] for members in expansion.values()]
        assert [row.automorphisms for row in table] \
            == [automorphism_count(members[0])
                for members in expansion.values()]
        assert sum(row.multiplicity for row in table) == len(
            reference_complete_description_ucq(union))


@pytest.mark.parametrize("member", SYMMETRIC + ASYMMETRIC + (CCQ_MEMBER,),
                         ids=repr)
def test_every_member_alone_and_doubled(member):
    for union in (UCQ([member]), UCQ([member, member])):
        assert {row.key: row.multiplicity
                for row in description_classes(
                    union, pair_constants(union),
                    context=ContainmentEngine())} == _expected(union)


def test_engine_table_equals_the_plain_table():
    engine = ContainmentEngine()
    for union in _unions(99, 20):
        own = pair_constants(union)
        assert engine.complete_description(union, own) \
            == description_classes(union, own, context=ContainmentEngine())
        assert engine.complete_description(union, ("c", "d")) \
            == description_classes(union, ("c", "d"),
                                   context=ContainmentEngine())


def _generators_of(ccq) -> tuple[tuple[int, ...], ...]:
    return compute_canonical_form(ccq).generators


def test_symmetric_members_build_fewer_ccqs():
    # On two variables a swap fixes both partitions: no orbit merges.
    for member in SYMMETRIC:
        if len(member.existential_vars()) < 3:
            continue
        orbits = list(description_orbits(member, _generators_of, ()))
        expansion = len(reference_complete_description(member, ()))
        assert sum(size for _, size in orbits) == expansion
        assert len(orbits) < expansion, member


def test_a_clique_collapses_to_integer_partitions():
    member = clique(5)
    orbits = list(description_orbits(member, _generators_of, ()))
    assert sorted(size for _, size in orbits) \
        == [1, 1, 5, 10, 10, 10, 15]  # p(5) = 7 orbits, Bell(5) = 52
    assert len(orbits) == 7


# -- (b) the generators ----------------------------------------------------


def _closure(generators, n: int) -> set[tuple[int, ...]]:
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        element = frontier.pop()
        for generator in generators:
            product = tuple(generator[element[i]] for i in range(n))
            if product not in group:
                group.add(product)
                frontier.append(product)
    return group


def _queries_with_symmetry():
    for member in SYMMETRIC:
        yield member
        yield from complete_description(member)


def test_every_generator_is_an_automorphism():
    for query in (*_queries_with_symmetry(), *ASYMMETRIC, *_pool(5)):
        form = compute_canonical_form(query)
        variables = query.existential_vars()
        for generator in form.generators:
            mapping = {variables[i]: variables[image]
                       for i, image in enumerate(generator)}
            assert is_automorphism(query, mapping), (query, generator)


def test_the_generators_generate_the_whole_group():
    for query in _queries_with_symmetry():
        form = compute_canonical_form(query)
        group = _closure(form.generators, len(query.existential_vars()))
        assert len(group) == form.automorphisms, query


# -- the work it saves -----------------------------------------------------


def test_a_clique_pair_canonicalises_fewer_ccqs_than_bell():
    engine = ContainmentEngine()
    engine.decide(clique(5), clique(4), "N")
    assert engine.stats.canon_calls < 52  # Bell(5): one per partition


def test_a_chain_pair_canonicalises_no_more_than_the_expansion():
    engine = ContainmentEngine()
    engine.decide(chain(6), chain(5), "N")
    # 261 when every CCQ of ⟨Q1⟩ was canonicalised, and every set reduct
    # of one for ``⇉2``.
    assert engine.stats.canon_calls <= 261
