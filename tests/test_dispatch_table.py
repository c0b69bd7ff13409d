"""The Table-1 dispatch table and its one CQ-or-UCQ entry.

The class rows of :mod:`repro.core.classes` and the procedure tables of
:mod:`repro.core.containment` must name the same classes in the same
order; every caller (the engine, ``k_equivalent``, ``explain``) decides
a pair of singleton unions as the pair of their members; and a
condition replaced on ``repro.core.containment`` (as the perfbench
tracer and the bag-bounds oracles do) is the one the dispatch calls.
"""

from __future__ import annotations

import pytest

import repro.core.containment as containment
from repro.api import ContainmentEngine
from repro.core import (decide_containment, decide_cq_containment, explain,
                        k_equivalent)
from repro.core.classes import CQ_CLASSES, UCQ_CLASSES
from repro.homomorphisms import HomKind
from repro.queries import UCQ, parse_cq, parse_ucq
from repro.semirings import get_semiring

Q1 = parse_cq("Q() :- R(x, y), R(y, x)")
Q2 = parse_cq("Q() :- R(u, v), R(v, u)")


def test_procedure_tables_follow_the_class_rows():
    assert list(containment.CQ_PROCEDURES) == [n for n, _ in CQ_CLASSES]
    assert list(containment.UCQ_PROCEDURES) == [n for n, _ in UCQ_CLASSES]


@pytest.mark.parametrize("name, method", [
    ("B", "homomorphism"),
    ("Lin[X]", "homomorphic-covering"),
    ("N[X]", "bijective-homomorphism"),
])
def test_singleton_unions_decide_as_their_members(name, method):
    semiring = get_semiring(name)
    u1, u2 = UCQ((Q1,)), UCQ((Q2,))
    document = ContainmentEngine().decide(u1, u2, name)
    assert document.method == method
    by_union = explain(u1, u2, semiring)
    by_member = explain(Q1, Q2, semiring)
    assert by_union == by_member
    assert by_union.verdict.method == method
    assert decide_containment(u1, u2, semiring) == \
        decide_cq_containment(Q1, Q2, semiring)
    assert k_equivalent(u1, u2, semiring) == k_equivalent(Q1, Q2, semiring)
    # The two homomorphism methods carry a mapping that explain re-checks.
    expected = None if method == "homomorphic-covering" else True
    assert by_union.certificate_valid is expected
    if expected:
        assert "certificate checked" in by_union.summary()


def test_a_union_with_two_members_takes_the_ucq_procedures():
    u1 = parse_ucq(["Q() :- R(x, y), R(y, x)", "Q() :- S(u)"])
    u2 = parse_ucq(["Q() :- R(x, y)", "Q() :- S(u)"])
    assert decide_containment(u1, u2, get_semiring("B")).method == \
        "local-homomorphism"


#: ``condition name → semiring whose row calls it`` on :data:`UNION_PAIR`.
ROWS = {
    "local_condition": "Sorp[X]",
    "covering_union": "Lin[X]",
    "covering_2": "Lin[X]×N_2",
    "sur_infty": "Ssur[X]",
    "bi_count_k": "N_2[X]",
    "bi_count_infty": "N[X]",
    "small_model_contained": "T+",
}
UNION_PAIR = (["Q() :- R(x, y), R(y, x)", "Q() :- S(u)"],
              ["Q() :- R(x, y)", "Q() :- S(u)"])


@pytest.mark.parametrize("name", sorted(ROWS))
def test_a_patched_condition_reaches_the_dispatch(monkeypatch, name):
    original = getattr(containment, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(containment, name, counting)
    patched = ContainmentEngine().decide(*UNION_PAIR, ROWS[name])
    if name == "local_condition":
        # Every UCQ dispatch first checks plain local homomorphisms;
        # the C1in row asks for injective ones.
        calls = [args for args in calls if HomKind.INJECTIVE in args]
    assert calls, f"{ROWS[name]} decided without calling {name}"
    monkeypatch.undo()
    assert ContainmentEngine().decide(*UNION_PAIR, ROWS[name]) == patched
