"""Scaling of the small-model procedure (Thm. 4.17, Prop. 4.19).

The dominant cost is the Bell-number growth of ``⟨Q1⟩`` in the number
of existential variables: the test set is read off ``⟨Q1⟩``'s class
table, one canonical instance and one evaluation per side for each
isomorphism class, and each distinct canonical polynomial pair is then
ordered — by monomial absorption where the rule applies, and otherwise
by exact LPs over the infinity splits.  The sweep pins that shape:
Bell(2) = 2, Bell(3) = 5, Bell(4) = 15 CCQs in ``⟨Q1⟩``.
"""

from __future__ import annotations

import pytest

from repro.api import ContainmentEngine
from repro.core import small_model_contained
from repro.queries import parse_cq
from repro.queries.ccq import description_size
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
    assert description_size(q1, ()) == expected_ccqs
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


def test_small_model_test_set_is_shared_across_semirings():
    """One engine computes the chain-3 test set under ``T+`` and recalls
    it under ``T−``: the recall reads no description and no canonical
    form."""
    q1, q2 = _chain_pair(3)
    engine = ContainmentEngine()
    assert engine.decide(q1, q2, TPLUS).result is False
    stats = engine.stats
    assert (stats.small_model_calls, stats.small_model_hits) == (1, 0)
    descriptions, canons = stats.description_calls, stats.canon_calls
    assert engine.decide(q1, q2, TMINUS).result is True
    assert (stats.small_model_calls, stats.small_model_hits) == (1, 1)
    assert stats.description_calls == descriptions
    assert stats.canon_calls == canons
