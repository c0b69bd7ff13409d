"""Serialization round-trips for verdict documents.

Acceptance: ``VerdictDocument.from_dict(doc.to_dict()) == doc`` for
every verdict the Table-1 test matrix produces, and every document
survives an actual JSON encode/decode.  The shape-specific tests pin
each verdict variety: decided with a homomorphism certificate, refuted,
bounds-only undecided, and decided via a named condition certificate.
"""

from __future__ import annotations

import json

import pytest

from repro.api import ContainmentEngine, VerdictDocument
from repro.queries import UCQ
from repro.semirings import ALL_SEMIRINGS

# The Ex. 4.6 pair plus refutation/identity pairs — the CQ matrix.
CQ_PAIRS = [
    ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)"),
    ("Q() :- R(u, v), R(u, v)", "Q() :- R(u, v), R(u, w)"),
    ("Q() :- R(u, v)", "Q() :- R(u, v), R(u, v)"),
    ("Q() :- R(u, v), S(u)", "Q() :- R(u, v)"),
    ("Q() :- R(u, u)", "Q() :- R(u, v)"),
    ("Q() :- S(x)", "Q() :- R(x, y)"),          # no homomorphism at all
]

# Sec. 5 UCQ pairs (Ex. 5.4 / Ex. 5.20).
UCQ_PAIRS = [
    (["Q() :- R(v), S(v)"], ["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"]),
    (["Q() :- R(v), S(v)"], ["Q() :- R(v)", "Q() :- S(v)"]),
]


def _round_trip(document: VerdictDocument) -> None:
    data = document.to_dict()
    assert VerdictDocument.from_dict(data) == document
    rehydrated = VerdictDocument.from_dict(json.loads(json.dumps(data)))
    assert rehydrated == document


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS,
                         ids=[s.name for s in ALL_SEMIRINGS])
def test_table1_cq_matrix_round_trips(semiring):
    engine = ContainmentEngine()
    for q1, q2 in CQ_PAIRS:
        _round_trip(engine.decide(q1, q2, semiring))


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS,
                         ids=[s.name for s in ALL_SEMIRINGS])
def test_table1_ucq_matrix_round_trips(semiring):
    engine = ContainmentEngine()
    for q1, q2 in UCQ_PAIRS:
        _round_trip(engine.decide(q1, q2, semiring))


def test_decided_true_with_homomorphism_certificate():
    engine = ContainmentEngine()
    document = engine.decide("Q() :- R(u, v), R(u, w)",
                             "Q() :- R(u, v), R(u, v)", "B")
    assert document.result is True and document.decided
    assert document.answer == "CONTAINED"
    assert document.certificate["kind"] == "homomorphism"
    mapping = document.certificate["mapping"]
    assert set(mapping) == {"u", "v"}
    assert all("var" in image or "const" in image
               for image in mapping.values())
    _round_trip(document)


def test_decided_false_without_certificate():
    engine = ContainmentEngine()
    document = engine.decide("Q() :- S(x)", "Q() :- R(x, y)", "B")
    assert document.result is False
    assert document.answer == "NOT CONTAINED"
    assert document.certificate is None
    _round_trip(document)


def test_bounds_only_undecided_document():
    engine = ContainmentEngine()
    document = engine.decide("Q() :- R(u, v), R(u, w)",
                             "Q() :- R(u, v), R(u, v)", "N")
    assert document.result is None and not document.decided
    assert document.answer == "UNDECIDED"
    assert document.method == "bounds-only"
    assert document.necessary is True and document.sufficient is False
    assert "open" in document.explanation
    _round_trip(document)


def test_condition_certificates_round_trip():
    engine = ContainmentEngine()
    # Sufficient condition over bag semantics (duplicate-branch padding).
    safe = engine.decide("Q(x) :- R(x, y)",
                         "Q(x) :- R(x, y), R(x, y)", "N")
    assert safe.result is True
    assert safe.method == "sufficient-condition"
    assert safe.certificate["kind"] == "condition"
    _round_trip(safe)
    # Necessary condition failing over bag semantics (two members that
    # both answer R(1, 'a'), which Q2 counts once).
    wrong = engine.decide(["Q() :- R(x, 'a')", "Q() :- R(1, y)"],
                          "Q() :- R(x, y)", "N")
    assert wrong.result is False
    assert wrong.method == "necessary-condition"
    assert wrong.certificate["kind"] == "condition"
    _round_trip(wrong)


def test_counterexample_certificate_round_trips():
    engine = ContainmentEngine()
    # The dropped filter: a probe with every fact at 1 ⊕ 1 refutes it.
    wrong = engine.decide("Q(x) :- R(x, y), S(x)", "Q(x) :- R(x, y)", "N")
    assert wrong.result is False
    assert wrong.method == "refuted"
    assert wrong.certificate == {
        "kind": "counterexample",
        "facts": [{"relation": "R", "terms": [{"var": "x"}, {"var": "y"}],
                   "value": 2},
                  {"relation": "S", "terms": [{"var": "x"}], "value": 2}],
        "target": [{"var": "x"}], "lhs": 4, "rhs": 2}
    _round_trip(wrong)
    # A non-integer semiring writes its values as strings.
    assert engine.decide("Q(x) :- R(x, y), S(x)", "Q(x) :- R(x, y)",
                         "R+").certificate["lhs"] == "4"


def test_empty_union_document():
    engine = ContainmentEngine()
    document = engine.decide(UCQ(()), ["Q() :- R(x)"], "B")
    assert document.result is True
    assert document.method == "empty-union"
    _round_trip(document)


def test_unwrap_parity_with_core_verdict():
    from repro import B, decide_cq_containment, parse_cq

    engine = ContainmentEngine()
    q1, q2 = "Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)"
    document = engine.decide(q1, q2, B)
    verdict = decide_cq_containment(parse_cq(q1), parse_cq(q2), B)
    assert document.result is verdict.result
    assert document.method == verdict.method
    assert document.explanation == verdict.explanation
