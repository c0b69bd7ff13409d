"""Query serialization round-trips."""

from __future__ import annotations

import json
import random

import pytest

from repro.queries import UCQ, parse_cq, parse_ucq
from repro.queries.generators import random_cq, random_ucq
from repro.queries.serialize import query_from_dict, query_to_dict


@pytest.mark.parametrize("text", [
    "Q() :- R(x, x)",
    "Q(x) :- R(x, y), S(y)",
    "Q(x, x) :- R(x, y), R(x, y)",
    "Q() :- R(x, 'berlin'), S(7)",
    "Q() :- R(u, v), R(u, w), u != v, v != w",
])
def test_cq_roundtrip(text):
    query = parse_cq(text)
    data = query_to_dict(query)
    json.dumps(data)  # must be JSON-able
    assert query_from_dict(data) == query


def test_ucq_roundtrip():
    union = parse_ucq(["Q(x) :- R(x, x)", "Q(y) :- S(y)"])
    data = query_to_dict(union)
    json.dumps(data)
    assert query_from_dict(data) == union


def test_empty_ucq_roundtrip():
    assert query_from_dict(query_to_dict(UCQ(()))) == UCQ(())


def test_random_roundtrips():
    rng = random.Random(77)
    for _ in range(25):
        query = random_cq(rng, max_atoms=3, max_vars=3, head_arity=1)
        assert query_from_dict(
            json.loads(json.dumps(query_to_dict(query)))) == query
    for _ in range(10):
        union = random_ucq(rng)
        assert query_from_dict(
            json.loads(json.dumps(query_to_dict(union)))) == union


def test_ccq_kind_marked():
    ccq = parse_cq("Q() :- R(u, v), u != v")
    data = query_to_dict(ccq)
    assert data["kind"] == "ccq"
    restored = query_from_dict(data)
    assert restored == ccq
    assert restored.inequalities


def test_duplicate_atoms_preserved():
    query = parse_cq("Q() :- R(x, y), R(x, y)")
    restored = query_from_dict(query_to_dict(query))
    assert len(restored.atoms) == 2


def test_errors():
    with pytest.raises(ValueError):
        query_from_dict({"kind": "mystery"})
    with pytest.raises(TypeError):
        query_to_dict("not a query")
    with pytest.raises(ValueError):
        query_from_dict({"kind": "cq", "head": [{"nope": 1}], "atoms": []})


def test_nested_union_member_refused_at_decode():
    inner = query_to_dict(parse_ucq(["Q() :- R(x)"]))
    with pytest.raises(ValueError, match="union members must be CQs"):
        query_from_dict({"kind": "ucq", "members": [inner]})


def test_non_string_relation_name_refused_at_decode():
    document = {"kind": "cq", "head": [], "atoms": [
        {"relation": "R", "terms": [{"var": "x"}]},
        {"relation": 5, "terms": [{"var": "x"}]}]}
    with pytest.raises(TypeError, match="relation name 5 is not a string"):
        query_from_dict(document)


def test_non_string_variable_name_refused_at_decode():
    document = {"kind": "cq", "head": [], "atoms": [
        {"relation": "R", "terms": [{"var": 5}]}]}
    with pytest.raises(TypeError, match="variable name 5 is not a string"):
        query_from_dict(document)
    document["atoms"][0]["terms"] = [{"const": [1]}]
    with pytest.raises(TypeError, match="not hashable"):
        query_from_dict(document)


@pytest.mark.parametrize("document", [
    ["not", "an", "object"],
    {"kind": "ucq", "members": "R"},
    {"kind": "ucq", "members": [7]},
    {"kind": "cq", "head": [], "atoms": ["R(x)"]},
    {"kind": "cq", "head": [], "atoms": [{"relation": "R", "terms": 3}]},
    {"kind": "cq", "head": [3], "atoms": []},
    {"kind": "ccq", "head": [], "atoms": [
        {"relation": "R", "terms": [{"var": "x"}, {"var": "y"}]}],
     "inequalities": [["x"]]},
])
def test_malformed_documents_raise_type_errors(document):
    with pytest.raises(TypeError):
        query_from_dict(document)


def test_query_types_pickle_round_trip():
    # Worker-pool requests and cache snapshots cross process boundaries
    # via pickle; the slotted immutable types rebuild through their
    # constructors.
    import pickle

    rng = random.Random(99)
    samples = [
        parse_cq("Q(x) :- R(x, y), R(x, 3), S('a')"),
        parse_cq("Q() :- R(u, v), u != v"),
        UCQ((parse_cq("Q(x) :- R(x, y)"), parse_cq("Q(z) :- R(z, z)"))),
        UCQ(()),
    ]
    samples += [random_cq(rng) for _ in range(5)]
    samples += [random_ucq(rng) for _ in range(5)]
    for query in samples:
        restored = pickle.loads(pickle.dumps(query))
        assert restored == query
        assert hash(restored) == hash(query)
        inequalities = getattr(query, "inequalities", None)
        if inequalities is not None:
            assert restored.inequalities == inequalities


def test_pickled_cq_is_still_immutable_and_rehashed():
    import pickle

    query = parse_cq("Q(x) :- R(x, y)")
    restored = pickle.loads(pickle.dumps(query))
    with pytest.raises(AttributeError):
        restored.head = ()
    # The lazily-built matcher cache starts fresh in the new process.
    assert restored._hom_cache == {}
