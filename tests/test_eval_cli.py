"""The ``repro eval`` subcommand and the annotated CSV round-trip."""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.cli import main
from repro.data.instance import (Instance, format_annotation,
                                 parse_annotation)
from repro.semirings import B, N, TPLUS, VITERBI


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SAMPLE = str(pathlib.Path(__file__).resolve().parent.parent
             / "examples" / "data" / "route_costs.csv")


# -- CSV round-trip -----------------------------------------------------


def test_from_csv_reads_sample(tmp_path):
    instance = Instance.from_csv(SAMPLE, TPLUS)
    assert instance.arity("Road") == 2
    assert instance.arity("Toll") == 1
    assert instance.annotation("Road", ("vienna", "linz")) == 2


def test_csv_round_trip(tmp_path):
    instance = Instance(TPLUS, {
        "R": {("a", "b"): 3, (1, 2): 0},
        "S": {("c",): 5},
    })
    path = tmp_path / "out.csv"
    count = instance.to_csv(path)
    assert count == 3
    back = Instance.from_csv(path, TPLUS)
    assert back.relations() == instance.relations()
    for name in instance.relations():
        assert dict(back.support(name)) == dict(instance.support(name))


def test_from_csv_accumulates_duplicate_rows(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("R,a,b,2\nR,a,b,3\n")
    # Duplicate facts combine with ⊕ — min for T+, + for N.
    assert Instance.from_csv(path, TPLUS).annotation("R", ("a", "b")) == 2
    assert Instance.from_csv(path, N).annotation("R", ("a", "b")) == 5


def test_from_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("# header\n\nR,a,1\n   \n# tail\n")
    instance = Instance.from_csv(path, N)
    assert instance.fact_count() == 1


def test_from_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("R,a\n")  # relation + annotation but no arity-0 rows
    with pytest.raises(ValueError):
        Instance.from_csv(path, N)
    path.write_text("R,a,not^a!value\n")
    with pytest.raises(ValueError):
        Instance.from_csv(path, N)


def test_annotation_parsing_and_formatting():
    assert parse_annotation(N, "7") == 7
    assert parse_annotation(TPLUS, "inf") == math.inf
    assert parse_annotation(TPLUS, "-3") == -3
    assert parse_annotation(B, "true") is True
    assert parse_annotation(B, "false") is False
    from fractions import Fraction
    assert parse_annotation(VITERBI, "1/2") == Fraction(1, 2)
    assert format_annotation(N, 7) == "7"
    assert format_annotation(TPLUS, math.inf) == "inf"
    assert format_annotation(B, True) == "true"
    assert format_annotation(VITERBI, Fraction(1, 2)) == "1/2"


# -- the eval subcommand ------------------------------------------------


def test_eval_ascii_output(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--semiring", "T+",
        "--query", "Q(x, y) :- Road(x, z), Road(z, y)",
        "--instance", SAMPLE)
    assert code == 0
    assert "answer(s) over T+" in out
    # vienna → linz → salzburg costs 2 + 1 = 3 (min-plus).
    assert "('vienna', 'salzburg') ↦ 3" in out


def test_eval_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--semiring", "T+", "--json",
        "--query", "Q(x, y) :- Road(x, z), Road(z, y)",
        "--instance", SAMPLE)
    assert code == 0
    payload = json.loads(out)
    assert payload["semiring"] == "T+"
    assert payload["arity"] == 2
    assert payload["facts"] == 12
    answers = {tuple(row["tuple"]): row["annotation"]
               for row in payload["answers"]}
    assert answers[("vienna", "salzburg")] == "3"


def test_eval_union_of_queries(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--semiring", "T+", "--json",
        "--query", "Q(x) :- Toll(x)",
        "--query", "Q(x) :- Road(x, y), Toll(y)",
        "--instance", SAMPLE)
    assert code == 0
    payload = json.loads(out)
    assert payload["arity"] == 1
    answers = {tuple(row["tuple"]): row["annotation"]
               for row in payload["answers"]}
    # vienna only matches the second member: cheapest tolled hop is
    # graz (road 2 + toll 0).
    assert answers[("vienna",)] == "2"
    # linz matches both members: its own toll 1 beats any tolled hop.
    assert answers[("linz",)] == "1"


def test_eval_no_answers(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--semiring", "T+",
        "--query", "Q(x) :- Nowhere(x)",
        "--instance", SAMPLE)
    assert code == 0
    assert "no answers" in out


def test_eval_missing_file(capsys):
    # argparse error (no --instance) is converted to an exit code …
    code, _, _ = run_cli(capsys, "eval", "--semiring", "T+",
                         "--query", "Q(x) :- R(x)")
    assert code != 0
    # … and a nonexistent file is an OSError turned into exit code 1.
    code, _, err = run_cli(
        capsys, "eval", "--semiring", "T+",
        "--query", "Q(x) :- R(x)", "--instance", "does/not/exist.csv")
    assert code != 0


def test_eval_unknown_semiring(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--semiring", "K9",
        "--query", "Q(x) :- R(x)", "--instance", SAMPLE)
    assert code != 0


def test_eval_overflowing_product_is_exact(capsys):
    """A count past int64 at run time still prints the exact product."""
    code, out, _ = run_cli(
        capsys, "eval", "--semiring", "N", "--json",
        "--query", "Q(x, z) :- E(x, y), F(y, z)",
        "--fact", f"E(1, 2) = {2 ** 40}", "--fact", f"F(2, 3) = {2 ** 40}")
    assert code == 0
    assert json.loads(out)["answers"] == [
        {"tuple": [1, 3], "annotation": str(2 ** 80)}]
