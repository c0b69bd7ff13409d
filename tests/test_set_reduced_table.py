"""``⇉2``'s set-reduced table of ``⟨Q⟩`` against an independent expansion.

``context.complete_description(union, constants, reduced=True)`` is the
class table of ``⟨Q⟩`` with every CCQ set-reduced (duplicate atoms
dropped) and rows merged by the reduced key, memoised in the engine's
``descriptions`` layer beside ``⟨Q⟩``.  The package reduces one coded
representative per row of ``⟨Q⟩``'s table.  Here the expected table
reduces every CCQ of the variable-level expansion of
``tests/reference_quotient.py`` and groups the reducts by canonical
key, so the two share neither the coded quotients nor the row merge:

* the rows carry the same ``(key, multiplicity, automorphisms)``
  multiset;
* they come in the order of each key's first reduct in the expansion,
  and each representative is that first reduct (up to atom order);
* a second request is a ``descriptions`` hit returning the same table.

Unions are drawn from seeded members with head variables, constants and
repeated atoms, taken relative to their own constants or to extra ones.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.api import ContainmentEngine
from repro.homomorphisms.canonical import compute_canonical_form
from repro.queries.ucq import UCQ
from tests.reference_quotient import (pair_constants,
                                      reference_complete_description_ucq,
                                      set_reduce)
from tests.test_coded_quotient import random_member
from tests.test_description_classes import ASYMMETRIC, SYMMETRIC, doubled


def _unions(seed: int, count: int):
    """Unions of one to three members of one arity, a member repeated
    now and then."""
    rng = random.Random(seed)
    pool = [*SYMMETRIC, *ASYMMETRIC, *map(doubled, SYMMETRIC),
            *(random_member(rng) for _ in range(40))]
    for _ in range(count):
        first = rng.choice(pool)
        same_arity = [cq for cq in pool if cq.arity == first.arity]
        members = [first, *(rng.choice(same_arity)
                            for _ in range(rng.randint(0, 2)))]
        if rng.random() < 0.3:
            members.append(members[0])
        yield UCQ(members)


def _expected(union: UCQ, constants: tuple) -> dict[tuple, list]:
    """Canonical key → the set reducts of the expansion in that class,
    in first-occurrence order."""
    classes: dict[tuple, list] = {}
    for ccq in reference_complete_description_ucq(union, constants):
        reduct = set_reduce(ccq)
        classes.setdefault(compute_canonical_form(reduct).key,
                           []).append(reduct)
    return classes


def _same_query(first, second) -> bool:
    """Equal up to the order of the atoms."""
    return (first.head == second.head
            and sorted(first.atoms) == sorted(second.atoms)
            and first.inequalities == second.inequalities)


@pytest.mark.parametrize("seed", range(4))
def test_reduced_table_equals_the_reduced_expansion(seed):
    engine = ContainmentEngine()
    for index, union in enumerate(_unions(seed, 20)):
        constants = pair_constants(union)
        if index % 3 == 0:
            constants = tuple(dict.fromkeys((*constants, "c", "d")))
        table = engine.complete_description(union, constants, reduced=True)
        expected = _expected(union, constants)
        assert Counter((row.key, row.multiplicity, row.automorphisms)
                       for row in table) == Counter(
            (key, len(reducts),
             compute_canonical_form(reducts[0]).automorphisms)
            for key, reducts in expected.items()), union
        assert [row.key for row in table] == list(expected), union
        for row in table:
            assert _same_query(row.representative, expected[row.key][0]), \
                (union, row)
        hits = engine.stats.description_hits
        assert engine.complete_description(union, constants,
                                           reduced=True) is table
        assert engine.stats.description_hits == hits + 1


def test_reduced_table_is_computed_only_when_asked_for():
    # The plain table never builds the reduced one: bi_count_k and
    # sur_infty, which read only ⟨Q⟩, pay nothing for ⇉2's table.
    engine = ContainmentEngine()
    union = UCQ([doubled(SYMMETRIC[1])])
    engine.complete_description(union, ())
    assert engine.cache_info()["description_entries"] == 1
    engine.complete_description(union, (), reduced=True)
    assert engine.cache_info()["description_entries"] == 2
    assert engine.stats.description_calls == 2
