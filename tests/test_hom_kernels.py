"""Homomorphism kernels and the conditions that count ``⟨Q2⟩`` by them.

The bag-semantics conditions never build ``⟨Q2⟩``: the occurrence
``m/π`` (a partition of ``m``'s existentials whose blocks are free or
bound to a head variable or constant) maps into a CCQ ``c`` of ``⟨Q1⟩``
iff some homomorphism ``m → c`` of the same kind has kernel ``π``.
These tests check that bijection directly, against the variable-level
occurrences of ``tests/reference_quotient.py``, then check
``covering_2``, ``sur_infty`` and ``bi_count_k`` against the
class-level oracles of ``tests/occurrence_conditions.py``, which build
both descriptions.

The pool mixes random queries with symmetric shapes (cliques, directed
cycles, duplicated members and atoms): a CCQ with a nontrivial
automorphism group is where a kernel count and a homomorphism count
part ways, and small random queries rarely produce one.
"""

from __future__ import annotations

import random

import pytest

from repro.api import ContainmentEngine
from repro.homomorphisms import (HomKind, bi_count_k, covering_2,
                                 has_homomorphism, sur_infty)
from repro.homomorphisms.search import hom_kernels, homomorphisms
from repro.homomorphisms.ucq_conditions import _occurrences
from repro.queries import UCQ, Atom, Var, parse_cq
from repro.queries.ccq import (CQWithInequalities, complete_description,
                               set_partitions)
from repro.queries.cq import CQ
from repro.queries.generators import random_cq
from repro.queries.parser import parse_cq
from tests.occurrence_conditions import (class_bi_count_k, class_covering_2,
                                         class_sur_infty)
from tests.reference_quotient import (pair_constants, quotient,
                                      reference_complete_description,
                                      reference_occurrences)

KINDS = (HomKind.PLAIN, HomKind.SURJECTIVE, HomKind.BIJECTIVE)
OFFSETS = (1, 2, 3, float("inf"))


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
    return CQ((), query.atoms + query.atoms[:1])


#: Symmetric shapes over ``E/2``: automorphism groups up to ``|S_3|``.
SYMMETRIC = (chain(2), chain(3), chain(4), cycle(1), cycle(2), cycle(3),
             cycle(4), clique(2), clique(3), doubled(cycle(3)),
             doubled(chain(3)), _edges([(0, 1), (1, 0), (1, 2)]),
             _edges([(0, 1), (0, 2)]), _edges([(1, 0), (2, 0)]))


def _pool(seed: int) -> list[CQ]:
    rng = random.Random(seed)
    randoms = [random_cq(rng, schema=(("E", 2),), max_atoms=4, max_vars=3)
               for _ in range(14)]
    return list(SYMMETRIC) + randoms


def _union(rng: random.Random, pool: list[CQ]) -> UCQ:
    members = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        members.append(members[0])  # a duplicated member
    return UCQ(members)


def _pairs(seed: int, count: int):
    rng = random.Random(seed)
    pool = _pool(seed)
    for _ in range(count):
        yield _union(rng, pool), _union(rng, pool)


def _kernel_of(member: CQ, partition) -> tuple[int, ...]:
    """A partition of ``member``'s existentials coded as a kernel."""
    block = {var: index for index, part in enumerate(partition)
             for var in part}
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(block[var], len(labels))
                 for var in member.existential_vars())


# -- the primitive ---------------------------------------------------------


def test_kernels_are_coded_by_first_appearance():
    member = parse_cq("Q() :- E(x, y), E(y, z)")
    loop = parse_cq("Q() :- E(u, u)")
    assert hom_kernels(member, loop) == ((0, 0, 0),)
    # Two homomorphisms (x, z ↦ a or x, z ↦ b), one kernel.
    swap = CQWithInequalities((), [Atom("E", (Var("a"), Var("b"))),
                                   Atom("E", (Var("b"), Var("a")))],
                              [(Var("a"), Var("b"))])
    assert len(list(homomorphisms(member, swap))) == 2
    assert hom_kernels(member, swap) == ((0, 1, 0),)
    assert hom_kernels(member, swap, HomKind.PLAIN, 0) == ()


def test_limit_keeps_the_first_kernels_in_order():
    member, target = chain(3), clique(3)
    every = hom_kernels(member, target)
    assert len(every) == 2  # x ≠ y ≠ z: z = x or all apart
    assert hom_kernels(member, target, HomKind.PLAIN, 1) == every[:1]
    assert hom_kernels(member, target, HomKind.PLAIN, 5) == every


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernels_biject_with_description_occurrences(seed):
    """``m/π → c`` iff ``π`` is a kernel of some ``m → c``, for every
    ``m`` of the pool, every CCQ ``c`` of a pool member's description
    and every partition ``π`` of ``m``'s variables."""
    rng = random.Random(seed)
    pool = _pool(seed)
    checked = 0
    for member in rng.sample(pool, 12):
        partitions = list(set_partitions(member.existential_vars()))
        for target_query in rng.sample(pool, 6):
            for ccq in complete_description(target_query):
                for kind in KINDS:
                    kernels = set(hom_kernels(member, ccq, kind))
                    for partition in partitions:
                        expected = has_homomorphism(
                            quotient(member, partition), ccq, kind)
                        assert (_kernel_of(member, partition)
                                in kernels) == expected, (
                            member, ccq, kind, partition)
                        checked += 1
    assert checked > 3000


#: Members over ``E/2`` and ``S/1`` with a head variable ``h`` and the
#: constants ``'c'`` and ``'d'``: blocks of a description may bind to
#: either.
RIGID = tuple(parse_cq(text) for text in (
    "Q(h) :- E(h, x)", "Q(h) :- E(h, x), E(x, y)", "Q(h) :- E(x, h), S(x)",
    "Q(h) :- E(h, h), S(h)", "Q(h) :- E(h, x), E(h, y), S(y)",
    "Q(h) :- E(x, 'c'), S(h)", "Q(h) :- E(h, 'c'), E(x, y)",
    "Q(h) :- E(x, y), E(y, x), S(h)", "Q(h) :- E(h, x), S('d')",
    "Q(h) :- E(h, x), E(x, 'c'), E(y, x)", "Q(u) :- E(u, v), E(v, 'c')",
))


def test_kernels_biject_with_rigid_occurrences():
    """With head variables and constants: ``m/π → c`` iff ``π`` (its
    bindings read back as ``m``'s own rigid terms) comes from a kernel
    of some ``m → c``, for every occurrence of ``⟨m⟩`` and every CCQ
    ``c`` of a pool member's description, both relative to the pair's
    constants."""
    checked = 0
    for member in RIGID:
        for target_query in RIGID:
            constants = pair_constants([member], [target_query])
            occurrences = list(reference_occurrences(member, constants))
            for ccq in reference_complete_description(target_query,
                                                      constants):
                for kind in KINDS:
                    found = {occurrence
                             for kernel in hom_kernels(member, ccq, kind)
                             for occurrence in _occurrences(
                                 member, ccq, kernel, constants)}
                    for labels, occurrence in occurrences:
                        assert (labels in found) == has_homomorphism(
                            occurrence, ccq, kind), (
                            member, ccq, kind, occurrence)
                        checked += 1
    assert checked > 3000


def test_a_shared_target_head_variable_stands_for_each_member_head():
    """``Q(h, g)`` into ``Q(u, u)``: a block mapped onto ``u`` is bound
    to ``h`` in one occurrence and to ``g`` in another, and both map."""
    member = parse_cq("Q(h, g) :- E(h, x), E(g, g)")
    target = parse_cq("Q(u, u) :- E(u, u)")
    [ccq] = reference_complete_description(target, ())
    [kernel] = hom_kernels(member, ccq)
    found = set(_occurrences(member, ccq, kernel, ()))
    assert len(found) == 2
    assert found == {labels for labels, occurrence
                     in reference_occurrences(member, ())
                     if has_homomorphism(occurrence, ccq)}


def test_a_rigid_inequality_keeps_two_classes_apart():
    """``⟨q⟩`` binds ``x ≠ y`` to ``h`` and ``g`` and keeps ``h ≠ g``;
    ``⟨m⟩``'s CCQ with the same atoms does not.  A bijective kernel
    from ``m`` reaches both, but only the class without ``h ≠ g`` is
    ``m``'s: counting it for both would answer ``True``."""
    q = parse_cq("Q(h, g) :- R(h, x), R(g, y), x != y")
    plain = parse_cq("Q(h, g) :- R(h, x), R(g, y)")
    for q2, q1 in ((UCQ([plain, plain]), UCQ([q, plain])),
                   (UCQ([q, plain]), UCQ([q, plain])),
                   (UCQ([plain]), UCQ([q]))):
        _agree(q2, q1, None, None)
    assert not bi_count_k(UCQ([plain, plain]), UCQ([q, plain]),
                          float("inf"))
    assert bi_count_k(UCQ([q, plain]), UCQ([q, plain]), float("inf"))


@pytest.mark.parametrize("seed", [7, 11])
def test_kernel_conditions_match_class_oracles_with_rigid_terms(seed):
    """Unions of the rigid pool (head variables and constants), each
    pair in both directions and against itself doubled."""
    rng = random.Random(seed)
    fast, slow = ContainmentEngine(), ContainmentEngine()
    for _ in range(40):
        q2, q1 = _union(rng, list(RIGID)), _union(rng, list(RIGID))
        for source, target in ((q2, q1), (q1, q2),
                               (q1, q1.union(q1)), (q1.union(q1), q1)):
            _agree(source, target, fast.context, slow.context)


# -- the conditions against the class-level oracles -------------------------


def _agree(q2: UCQ, q1: UCQ, fast, slow) -> None:
    assert covering_2(q2, q1, context=fast) == class_covering_2(
        q2, q1, context=slow), ("covering_2", q2, q1)
    assert sur_infty(q2, q1, context=fast) == class_sur_infty(
        q2, q1, context=slow), ("sur_infty", q2, q1)
    for k in OFFSETS:
        assert bi_count_k(q2, q1, k, context=fast) == class_bi_count_k(
            q2, q1, k, context=slow), ("bi_count_k", k, q2, q1)


@pytest.mark.parametrize("seed", [7, 11, 13, 17])
def test_kernel_conditions_match_class_oracles(seed):
    """2,400 pairs over the four seeds (each in both directions and
    against itself doubled), six conditions each."""
    fast, slow = ContainmentEngine(), ContainmentEngine()
    for q2, q1 in _pairs(seed, 150):
        for source, target in ((q2, q1), (q1, q2),
                               (q1, q1.union(q1)), (q1.union(q1), q1)):
            _agree(source, target, fast.context, slow.context)


def test_kernel_conditions_without_a_context():
    for q2, q1 in _pairs(5, 40):
        _agree(q2, q1, None, None)


@pytest.mark.parametrize("shape", [cycle(3), clique(3), cycle(4),
                                   doubled(cycle(3))],
                         ids=["cycle3", "clique3", "cycle4", "cycle3+"])
def test_counts_are_not_divided_by_automorphisms(shape):
    """``Q ⊆ Q`` holds under every ``→֒k``: each class of ``⟨Q⟩`` is its
    own preimage, however symmetric its CCQs (a 3-cycle CCQ has three
    automorphisms but one occurrence)."""
    union = UCQ((shape,))
    twice = union.union(union)
    assert all(bi_count_k(union, union, k) for k in OFFSETS)
    for source, target in ((union, union), (twice, union), (union, twice)):
        _agree(source, target, None, None)


# -- which path a pair takes ------------------------------------------------


def test_rigid_free_bag_pair_builds_only_q1_description():
    engine = ContainmentEngine()
    # The bounds gap (no probe refutes it), so every bag condition runs.
    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    q2 = parse_cq("Q() :- R(x, y), R(x, y)")
    assert engine.decide(q1, q2, "N").method == "bounds-only"
    info = engine.cache_info()
    # ⟨Q1⟩'s table and ⇉2's set-reduced table of it; nothing of ⟨Q2⟩.
    assert info["description_calls"] == 2
    assert {key for key, _ in engine._descriptions.items()} \
        == {(UCQ((q1,)), ()), (UCQ((q1,)), (), True)}
    assert info["kernel_calls"] > 0


def test_refuted_chain_pair_builds_no_description():
    """``N`` chain 9 ⊆ chain 8: the all-merged probe gives ``Q1`` the
    polynomial ``t0^8`` and ``Q2`` ``t0^7``, so with its one fact at 2
    ``Q1`` reads 256 and ``Q2`` 128, before any bag condition runs."""
    engine = ContainmentEngine()
    document = engine.decide(chain(9), chain(8), "N")
    assert document.method == "refuted"
    assert (document.certificate["lhs"], document.certificate["rhs"]) \
        == (256, 128)
    info = engine.cache_info()
    assert info["description_calls"] == info["canon_calls"] == 0
    assert info["probe_calls"] == 1


def test_zero_offset_raises_before_any_kernel_work():
    engine = ContainmentEngine()
    union = UCQ((chain(3),))
    with pytest.raises(ValueError, match="offset"):
        bi_count_k(union, union, 0, context=engine.context)
    assert engine.cache_info()["kernel_calls"] == 0
    assert engine.cache_info()["description_calls"] == 0


@pytest.mark.parametrize("q1, q2", [
    (["Q() :- R(x, 'a')"], ["Q() :- R(x, y)"]),
    (["Q() :- R(x, 'a')", "Q() :- S(y)"], ["Q() :- R(x, y)", "Q() :- S(y)"]),
    (["Q(h) :- R(h, h), S(h)"], ["Q(h) :- R(h, y), S(h)"]),
], ids=["cq-constant", "ucq-constant", "head-variable"])
@pytest.mark.parametrize("semiring", ["N", "N[X]", "N_2[X]", "Ssur[X]",
                                      "N_2"])
def test_rigid_pair_builds_only_q1_description(q1, q2, semiring):
    """An inequality-free pair with rigid terms reads ``⟨Q2⟩`` through
    kernels alone: the only description built is ``⟨Q1⟩``'s (and its
    set-reduced table, where ``⇉2`` runs), relative to the pair's
    constants."""
    engine = ContainmentEngine()
    verdict = engine.decide(q1, q2, semiring)
    assert verdict.result is not False
    union1 = UCQ([parse_cq(text) for text in q1])
    constants = pair_constants(union1, [parse_cq(text) for text in q2])
    assert {key for key, _ in engine._descriptions.items()} \
        <= {(union1, constants), (union1, constants, True)}
    if engine._descriptions:
        assert engine.cache_info()["kernel_calls"] > 0


def test_kernel_layer_recalls_repeated_enumerations():
    engine = ContainmentEngine()
    member, target = chain(3), clique(3)
    first = engine.hom_kernels(member, target, HomKind.PLAIN, 2)
    assert engine.hom_kernels(member, target, HomKind.PLAIN, 2) == first
    assert (engine.stats.kernel_calls, engine.stats.kernel_hits) == (1, 1)
    engine.hom_kernels(member, target, HomKind.PLAIN, None)
    assert engine.stats.kernel_calls == 2  # the limit is part of the key
