"""Scaling of the small-model procedure (Thm. 4.17, Prop. 4.19).

The dominant cost is the Bell-number growth of ``⟨Q1⟩`` in the number
of existential variables, times one polynomial comparison per CCQ:
decided by monomial absorption where the rule applies, and otherwise
by exact LPs over the infinity splits.  The sweep pins that shape: Bell(2) = 2, Bell(3) = 5,
Bell(4) = 15 canonical instances.
"""

from __future__ import annotations

import pytest

from repro.core import small_model_contained, small_model_tests
from repro.queries import parse_cq
from repro.semirings import TMINUS, TPLUS

from conftest import chain_query


def _chain_pair(length: int):
    """Containment of a chain in its duplicated-edge variant: holds over
    T− (duplication only raises max-plus cost), fails over T+."""
    q1 = chain_query(length, fan=1)
    q2 = chain_query(length, fan=2)
    return q1, q2


@pytest.mark.parametrize("length", [1, 2, 3])
def test_small_model_chain_scaling_tplus(benchmark, length):
    q1, q2 = _chain_pair(length)
    expected_ccqs = {1: 2, 2: 5, 3: 15}[length]  # Bell(existentials)
    assert len(list(small_model_tests(q1, ()))) == expected_ccqs
    result = benchmark(small_model_contained, q1, q2, TPLUS)
    # duplicated edges double the min-plus cost: not contained
    assert result is False


@pytest.mark.parametrize("length", [1, 2, 3])
def test_small_model_chain_scaling_tminus(benchmark, length):
    q1, q2 = _chain_pair(length)
    result = benchmark(small_model_contained, q1, q2, TMINUS)
    # duplicated edges only increase the max-plus value: contained
    assert result is True


def test_small_model_free_variable_targets(benchmark):
    """Free variables multiply the test tuples (|vars|^arity)."""
    q1 = parse_cq("Q(x) :- R(x, y), R(y, z)")
    q2 = parse_cq("Q(x) :- R(x, y), R(y, z), R(y, w)")
    result = benchmark(small_model_contained, q1, q2, TMINUS)
    assert result is True  # extra branch can only raise the max
