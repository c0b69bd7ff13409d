"""Golden Table-1 file: the class report and the dispatch verdicts of
every registered semiring, byte for byte.

``tests/data/table1_golden.jsonl`` holds, per semiring, one line with
``cq_exact_class()``, ``ucq_exact_class()`` and ``memberships()``,
followed by one line per ``ContainmentEngine.decide`` verdict document
on :data:`CORPUS`.  A change to the dispatch table that moves any
method, certificate, explanation or bound shows up as a line diff.

Regenerate (only when a verdict change is intended) with::

    PYTHONPATH=src python tests/test_table1_golden.py --write
"""

from __future__ import annotations

import difflib
import json
import sys
from pathlib import Path

from repro.api import ContainmentEngine

GOLDEN = Path(__file__).resolve().parent / "data" / "table1_golden.jsonl"

#: ``(label, q1, q2, equivalence)``, each decided on every semiring.
CORPUS = (
    # The CI batch-smoke pairs.
    ("ci-1", "Q() :- R(x, y)", "Q() :- R(x, x)", False),
    ("ci-2", "Q() :- R(u, v)", "Q() :- R(u, v), R(u, v)", False),
    ("ci-3", "Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)", False),
    ("ci-7", "Q() :- R(x, 'a')", "Q() :- R(x, y)", False),
    ("ci-9", ["Q() :- R(x, 'a')", "Q() :- S(y)"],
     ["Q() :- R(x, y)", "Q() :- S(y)"], False),
    ("ci-10", ["Q(x) :- R(x, x)", "Q(x) :- R(x, 'c')"],
     ["Q(x) :- R(x, z)"], False),
    # One pair per exact class, named after the class whose procedure
    # it is meant to exercise.
    ("Chom", "Q(x) :- R(x, y), R(y, z)", "Q(x) :- R(x, y)", False),
    ("Chcov", "Q() :- R(x, y), R(y, x)", "Q() :- R(u, v)", False),
    ("Cin", "Q() :- R(x, y), R(x, z)", "Q() :- R(u, v)", False),
    ("Csur", "Q() :- R(x, y)", "Q() :- R(u, v), R(u, w)", False),
    ("Cbi", "Q() :- R(x, y), R(y, x)", "Q() :- R(u, v), R(v, u)", False),
    ("C1in", ["Q() :- R(x, y), S(y)"],
     ["Q() :- R(u, v)", "Q() :- S(w), S(w)"], False),
    ("C1hcov", ["Q() :- R(x, x)", "Q() :- R(x, y), R(y, x)"],
     ["Q() :- R(u, v)"], False),
    ("C2hcov", ["Q() :- R(x, y), R(y, x)", "Q() :- S(u)"],
     ["Q() :- R(x, y)", "Q() :- S(u)"], False),
    ("C1sur", ["Q() :- S(v)", "Q() :- S(v), S(v)"],
     ["Q() :- S(v)", "Q() :- S(v)"], False),
    ("C∞sur", ["Q() :- R(v), S(v)"],
     ["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"], False),
    ("C1bi", ["Q() :- R(v), S(v)"], ["Q() :- R(v)", "Q() :- S(v)"], False),
    ("Ckbi", ["Q() :- S(v)", "Q() :- S(v), S(v)"], ["Q() :- S(v)"], False),
    ("C∞bi", ["Q() :- R(u, v), R(u, u)", "Q() :- R(u, v), R(v, v)"],
     ["Q() :- R(u, v), R(w, w)", "Q() :- R(u, u), R(u, u)"], False),
    ("small-model", "Q() :- R(u, v), R(v, w)", "Q() :- R(u, v), R(u, v)",
     False),
    ("empty-union", [], ["Q() :- R(u, v)"], False),
    ("no-homomorphism", "Q() :- R(x, y)", "Q() :- S(x)", False),
    ("no-local-homomorphism", ["Q() :- R(x, y)", "Q() :- T(z)"],
     ["Q() :- R(u, v)"], False),
    # One equivalence request.
    ("equivalence", "Q(x) :- R(x, y), R(x, z)", "Q(x) :- R(x, y)", True),
)


def golden_lines() -> list[str]:
    """The golden file's lines, computed on the current tree."""
    lines = []
    engine = ContainmentEngine()
    for semiring in engine.registry:
        cls = engine.classification(semiring)
        lines.append(json.dumps({
            "semiring": semiring.name,
            "cq_exact_class": cls.cq_exact_class(),
            "ucq_exact_class": cls.ucq_exact_class(),
            "memberships": cls.memberships(),
        }, ensure_ascii=False))
        for label, q1, q2, equivalence in CORPUS:
            document = engine.decide(q1, q2, semiring,
                                     equivalence=equivalence,
                                     request_id=label)
            lines.append(json.dumps(document.to_dict(), ensure_ascii=False))
    return lines


def test_table1_matches_the_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = golden_lines()
    if actual != expected:
        diff = difflib.unified_diff(expected, actual, "golden", "current",
                                    lineterm="", n=0)
        raise AssertionError("Table-1 dispatch differs from "
                             f"{GOLDEN.name}:\n" + "\n".join(diff))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_table1_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(golden_lines()) + "\n", encoding="utf-8")
