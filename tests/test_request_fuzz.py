"""Hostile request lines, and the query-interning contract.

The fuzz half draws small arbitrary JSON values for a request's
``q1``, ``q2``, ``semiring``, ``equivalence`` and ``id`` (mixed with
query-shaped documents, so the draws reach past the first type check)
and runs them through :func:`repro.api.batch.process_lines`: every
non-blank line must get exactly one output, in band, and nothing may
raise.  The same lines run twice on one engine must answer the same
way, so a spec that fails validation fails again and is never interned.

The interning half pins what the request path may share: on the
golden corpus, every document's query part equals a fresh
:func:`~repro.queries.serialize.query_to_dict`, however often the
interned queries are echoed.  That equal specs resolve to one ``UCQ``
object per engine is pinned in ``tests/test_api_engine.py``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ContainmentEngine, ContainmentRequest, process_lines
from repro.queries.serialize import query_to_dict
from tests.test_table1_golden import CORPUS

SCALARS = (st.none() | st.booleans() | st.integers(-2, 2)
           | st.floats(allow_nan=False, allow_infinity=False, width=16)
           | st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)

TEXTS = st.sampled_from([
    "Q() :- R(u, v)", "Q() :- R(u, u)", "Q() :- S(u)", "Q(x) :- R(x, y)",
    "Q() :- R(u, 'a')", "Q( :- R", ""])
TERMS = (st.fixed_dictionaries({"var": st.sampled_from(["u", "v"]) | JSON})
         | st.fixed_dictionaries({"const": st.sampled_from(["a", 1]) | JSON})
         | JSON)
ATOMS = st.fixed_dictionaries({
    "relation": st.sampled_from(["R", "S"]) | JSON,
    "terms": st.lists(TERMS, max_size=2) | JSON})
CQ_DOCS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["cq", "ccq"]),
     "head": st.lists(TERMS, max_size=1),
     "atoms": st.lists(ATOMS, min_size=1, max_size=2)},
    optional={"inequalities": st.lists(st.lists(
        st.sampled_from(["u", "v"]) | JSON, max_size=3), max_size=2)})
UCQ_DOCS = st.fixed_dictionaries({
    "kind": st.just("ucq"), "members": st.lists(CQ_DOCS, max_size=1)})
QUERY_DOCS = CQ_DOCS | st.fixed_dictionaries({
    "kind": st.just("ucq") | st.sampled_from(["cq", "mystery"]) | JSON,
    "members": st.lists(st.one_of(SCALARS, CQ_DOCS, UCQ_DOCS, JSON),
                        min_size=1, max_size=2) | JSON})
QUERIES = TEXTS | QUERY_DOCS | st.lists(TEXTS | QUERY_DOCS | JSON,
                                        max_size=2) | JSON

REQUESTS = st.fixed_dictionaries({
    "q1": QUERIES, "q2": QUERIES,
    "semiring": st.sampled_from(["B", "N", "T+", "N[X]", "Lin[X]"]) | JSON,
}, optional={
    "equivalence": st.booleans() | JSON,
    "id": st.text(max_size=3) | st.integers(0, 9) | JSON})
LINES = st.lists(REQUESTS.map(json.dumps)
                 | st.sampled_from(["", "# comment", "not json", "[1]",
                                    '{"q1": "Q() :- R(u)", "id": 1}']),
                 min_size=1, max_size=4)


def _without_cached(outputs: list[dict]) -> list[dict]:
    return [{key: value for key, value in output.items() if key != "cached"}
            for output in outputs]


@pytest.mark.filterwarnings("ignore:Generating overly large repr")
@given(LINES)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_request_line_gets_exactly_one_in_band_answer(lines):
    engine = ContainmentEngine()
    outputs = list(process_lines(engine, lines))
    answered = [number for number, line in enumerate(lines, 1)
                if line.strip() and not line.strip().startswith("#")]
    assert len(outputs) == len(answered)
    for number, output in zip(answered, outputs):
        json.dumps(output)
        if "error" in output:
            assert output["line"] == number
            assert isinstance(output["error"], str)
        else:
            assert output["result"] in (True, False, None)
    # A repeat on the warm engine answers alike: failed specs were not
    # interned, and interned ones decide as before.
    assert _without_cached(list(process_lines(engine, lines))) == \
        _without_cached(outputs)


def _request(q1, q2, equivalence: bool) -> dict:
    return {"semiring": "N[X]", "q1": q1, "q2": q2,
            "equivalence": equivalence}


@pytest.mark.parametrize("label, q1, q2, equivalence", CORPUS,
                         ids=[entry[0] for entry in CORPUS])
def test_document_queries_equal_a_fresh_serialization(label, q1, q2,
                                                      equivalence):
    engine = ContainmentEngine()
    data = _request(q1, q2, equivalence)
    fresh = ContainmentRequest.from_dict(data)
    for _ in range(2):
        request = ContainmentRequest.from_dict(data, parse=engine.parse)
        document = engine.decide_request(request).to_dict()
        assert document["q1"] == query_to_dict(fresh.q1)
        assert document["q2"] == query_to_dict(fresh.q2)
        assert request.to_dict()["q1"] == query_to_dict(fresh.q1)
    # The member documents are shared between calls: read-only.
    again = engine.decide_request(request).to_dict()
    for side in ("q1", "q2"):
        assert all(mine is theirs for mine, theirs in
                   zip(document[side]["members"], again[side]["members"]))
