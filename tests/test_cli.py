"""The command-line interface."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_semirings_listing(capsys):
    code, out, _ = run_cli(capsys, "semirings")
    assert code == 0
    assert "N[X]" in out
    assert "Chom" in out


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "Ssur[X]")
    assert code == 0
    assert "✓ C∞sur" in out
    assert "offset = ∞" in out
    # Trio, in contrast, has no UCQ class (∉ N1sur ⊇ N∞sur):
    code, out, _ = run_cli(capsys, "classify", "Trio[X]")
    assert code == 0
    assert "· C∞sur" in out


def test_classify_unknown_semiring(capsys):
    code, _, err = run_cli(capsys, "classify", "K9")
    assert code == 1
    assert "error" in err


def test_contain_cq(capsys):
    code, out, _ = run_cli(
        capsys, "contain", "--semiring", "B",
        "--q1", "Q() :- R(u, v), R(u, w)",
        "--q2", "Q() :- R(u, v), R(u, v)")
    assert code == 0
    assert "CONTAINED" in out
    assert "homomorphism" in out


def test_contain_ucq(capsys):
    code, out, _ = run_cli(
        capsys, "contain", "--semiring", "T+",
        "--q1", "Q() :- R(v), S(v)",
        "--q2", "Q() :- R(v), R(v)", "--q2", "Q() :- S(v), S(v)")
    assert code == 0
    assert "CONTAINED" in out and "small-model" in out


def test_contain_undecided_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "contain", "--semiring", "N",
        "--q1", "Q() :- R(u, v), R(u, w)",
        "--q2", "Q() :- R(u, v), R(u, v)")
    assert code == 2
    assert "UNDECIDED" in out
    assert "necessary conditions hold" in out


def test_contain_missing_queries(capsys):
    # argparse enforces --q1/--q2 (exit code 2, usage on stderr).
    code, _, err = run_cli(capsys, "contain", "--semiring", "B")
    assert code == 2
    assert "required" in err and "--q1" in err


def test_contain_json_flag(capsys):
    import json

    code, out, _ = run_cli(
        capsys, "contain", "--semiring", "B", "--json",
        "--q1", "Q() :- R(u, v), R(u, w)",
        "--q2", "Q() :- R(u, v), R(u, v)")
    assert code == 0
    document = json.loads(out)
    assert document["result"] is True
    assert document["method"] == "homomorphism"
    assert document["answer"] == "CONTAINED"
    from repro.api import VerdictDocument
    assert VerdictDocument.from_dict(document).result is True


def test_contain_json_explain_combined(capsys):
    import json

    code, out, _ = run_cli(
        capsys, "contain", "--semiring", "N[X]", "--json", "--explain",
        "--q1", "Q() :- R(u, v), R(u, w)",
        "--q2", "Q() :- R(u, v), R(u, v)")
    assert code == 0
    document = json.loads(out)
    assert document["result"] is False
    assert "summary" in document["explain"]
    assert "instance" in document["explain"]["witness"]


def test_contain_semiring_alias(capsys):
    code, out, _ = run_cli(
        capsys, "contain", "--semiring", "boolean",
        "--q1", "Q() :- R(u, v)", "--q2", "Q() :- R(u, u)")
    assert code == 0
    assert "CONTAINED" in out


def test_unknown_semiring_suggestion(capsys):
    code, _, err = run_cli(capsys, "classify", "N[x")
    assert code == 1
    assert "did you mean" in err


def test_batch_subcommand(tmp_path, capsys):
    import json

    requests = tmp_path / "requests.jsonl"
    requests.write_text("\n".join([
        '{"semiring": "B", "q1": "Q() :- R(u, v), R(u, w)", '
        '"q2": "Q() :- R(u, v), R(u, v)", "id": "r1"}',
        "# a comment line",
        '{"semiring": "N", "q1": "Q() :- R(u, v), R(u, w)", '
        '"q2": "Q() :- R(u, v), R(u, v)", "id": "r2"}',
    ]) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(requests))
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line]
    assert [doc["request_id"] for doc in lines] == ["r1", "r2"]
    assert lines[0]["result"] is True
    assert lines[1]["result"] is None and lines[1]["necessary"] is True


def test_batch_reports_bad_lines_in_band(tmp_path, capsys):
    import json

    requests = tmp_path / "requests.jsonl"
    requests.write_text("\n".join([
        "this is not json",
        '{"semiring": "B", "q1": "Q() :- R(x)", "q2": "Q() :- R(x)"}',
    ]) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(requests))
    assert code == 1  # at least one error line
    lines = [json.loads(line) for line in out.splitlines() if line]
    assert "error" in lines[0] and lines[0]["line"] == 1
    assert lines[1]["result"] is True


@pytest.mark.parametrize("workers", ["1", "2"])
def test_batch_answers_nested_json_line_in_band(tmp_path, capsys, workers):
    import json

    requests = tmp_path / "requests.jsonl"
    requests.write_text("[" * 100000 + "\n"
                        '{"semiring": "B", "q1": "Q() :- R(x)", '
                        '"q2": "Q() :- R(x)", "id": "after"}\n')
    code, out, _ = run_cli(capsys, "batch", "--workers", workers,
                           "--input", str(requests))
    assert code == 1  # the nested line is an in-band error
    lines = [json.loads(line) for line in out.splitlines() if line]
    assert list(lines[0]) == ["line", "error"] and lines[0]["line"] == 1
    assert "recursion" in lines[0]["error"]
    assert lines[1]["request_id"] == "after"
    assert lines[1]["result"] is True


def test_pooled_batch_answers_before_stdin_closes():
    # batch is a streaming filter with a pool too: one request on a pipe
    # that stays open is answered without waiting for more input.
    import json
    import os
    import select
    import signal

    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "batch", "--workers", "2"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        process.stdin.write('{"semiring": "B", "q1": "Q() :- R(x)", '
                            '"q2": "Q() :- R(x)", "id": "open"}\n')
        process.stdin.flush()
        ready, _, _ = select.select([process.stdout], [], [], 30)
        assert ready, "no answer while stdin stays open"
        document = json.loads(process.stdout.readline())
        assert document["request_id"] == "open"
        assert document["result"] is True
        process.stdin.close()
        assert process.wait(timeout=60) == 0
        assert process.stdout.read() == ""
    finally:
        try:  # the batch process and its pool workers, on any failure
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        process.stdin.close()
        process.stdout.close()


def test_pooled_batch_whose_reader_closes_early_exits_cleanly(tmp_path):
    # `batch --workers 2 | head -n 1`: the next write meets a closed
    # pipe, and the run must end quietly with its stream cancelled.
    import json
    import os
    import signal

    requests = tmp_path / "requests.jsonl"
    requests.write_text("".join(
        json.dumps({"semiring": "N", "q1": f"Q() :- R(u, v), S{index}(u)",
                    "q2": "Q() :- R(u, v)", "id": f"r{index}"}) + "\n"
        for index in range(400)))
    errors = tmp_path / "stderr.txt"
    with open(errors, "w") as sink:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", "--workers", "2",
             "--input", str(requests)],
            stdout=subprocess.PIPE, stderr=sink, start_new_session=True)
    try:
        first = json.loads(process.stdout.readline())
        process.stdout.close()
        assert process.wait(timeout=60) == 0
    finally:
        try:  # the batch process and its pool workers, on any failure
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    assert first["request_id"] == "r0"
    assert "Traceback" not in errors.read_text()


def test_minimize(capsys):
    code, out, _ = run_cli(
        capsys, "minimize", "--semiring", "B", "Q(x) :- R(x, y), R(x, z)")
    assert code == 0
    assert "removed 1 atom(s)" in out


def test_evaluate_with_counts(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--semiring", "N",
        "--fact", "R('a', 'b') = 2", "--fact", "S('b') = 3",
        "--query", "Q(x) :- R(x, y), S(y)")
    assert code == 0
    assert "6" in out


def test_evaluate_with_provenance_tokens(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--semiring", "N[X]",
        "--fact", "R('a', 'b') = t1", "--fact", "S('b') = t2",
        "--query", "Q(x) :- R(x, y), S(y)")
    assert code == 0
    assert "t1·t2" in out


def test_evaluate_empty_answers(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--semiring", "N",
        "--fact", "R('a', 'b') = 1",
        "--query", "Q(x) :- S(x)")
    assert code == 0
    assert "no answers" in out


def test_evaluate_rejects_nonground_fact(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--semiring", "N",
        "--fact", "R(x, 'b') = 1",
        "--query", "Q(x) :- R(x, y)")
    assert code == 1
    assert "ground" in err


def test_evaluate_rejects_bad_annotation(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--semiring", "N",
        "--fact", "R('a') = banana",
        "--query", "Q(x) :- R(x)")
    assert code == 1


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "semirings"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "B[X]" in result.stdout


def test_falsify_all_axioms(capsys):
    code, out, _ = run_cli(capsys, "falsify", "N_2")
    assert code == 0
    assert "nhcov" in out and "VIOLATED" in out


def test_falsify_single_axiom_silent(capsys):
    code, out, _ = run_cli(capsys, "falsify", "T-", "--axiom", "nhcov")
    assert code == 0
    assert "no violation" in out


def test_falsify_unknown_axiom(capsys):
    code, _, err = run_cli(capsys, "falsify", "B", "--axiom", "bogus")
    assert code == 1
    assert "unknown axiom" in err


def test_falsify_requires_poly_order(capsys):
    code, _, err = run_cli(capsys, "falsify", "L")
    assert code == 1
    assert "polynomial order" in err


def test_contain_explain_flag(capsys):
    code, out, _ = run_cli(
        capsys, "contain", "--semiring", "N[X]", "--explain",
        "--q1", "Q() :- R(u, v), R(u, w)",
        "--q2", "Q() :- R(u, v), R(u, v)")
    assert code == 0
    assert "witness instance" in out


def test_evaluate_rejects_malformed_numeric_annotation(capsys):
    # "--5" used to slip past the digit guard and crash int() with a
    # bare "invalid literal" message.
    code, _, err = run_cli(
        capsys, "eval", "--semiring", "N",
        "--fact", "R('a') = --5",
        "--query", "Q(x) :- R(x)")
    assert code == 1
    assert "cannot parse annotation" in err


def test_evaluate_rejects_malformed_token_for_provenance(capsys):
    # Even with a var-capable semiring, "--5" is not a token name.
    code, _, err = run_cli(
        capsys, "eval", "--semiring", "N[X]",
        "--fact", "R('a') = --5",
        "--query", "Q(x) :- R(x)")
    assert code == 1
    assert "cannot parse annotation" in err


def test_evaluate_accepts_negative_annotation_where_lawful(capsys):
    # Plain integers (including signed forms) still parse.
    code, out, _ = run_cli(
        capsys, "eval", "--semiring", "N",
        "--fact", "R('a') = +2",
        "--query", "Q(x) :- R(x)")
    assert code == 0
    assert "2" in out


def test_batch_numeric_request_id(tmp_path, capsys):
    import json

    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        '{"semiring": "B", "q1": "Q() :- R(x, y)", '
        '"q2": "Q() :- R(x, x)", "id": 7}\n')
    code, out, _ = run_cli(capsys, "batch", "--input", str(requests))
    assert code == 0
    (doc,) = [json.loads(line) for line in out.splitlines() if line]
    assert doc["request_id"] == "7"


def test_eval_needs_exactly_one_fact_source(capsys, tmp_path):
    csv = tmp_path / "r.csv"
    csv.write_text("R,a,1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", "--semiring", "N",
                           "--query", "Q(x) :- R(x)")
    assert code == 2
    assert "one of the arguments --instance --fact is required" in err
    code, _, err = run_cli(capsys, "eval", "--semiring", "N",
                           "--query", "Q(x) :- R(x)",
                           "--instance", str(csv), "--fact", "R('a') = 1")
    assert code == 2
    assert "not allowed with" in err


def test_evaluate_subcommand_is_gone(capsys):
    import argparse

    from repro.cli import build_parser

    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert "eval" in commands.choices
    assert "evaluate" not in commands.choices
    code, _, err = run_cli(capsys, "evaluate", "--semiring", "N",
                           "Q(x) :- R(x)")
    assert code == 2
    assert "invalid choice: 'evaluate'" in err


_WARM_PAIR = {"q1": ["Q() :- R(x, y), R(y, x)", "Q() :- S(u)"],
              "q2": ["Q() :- R(x, y)", "Q() :- S(u)"]}

_WARM_RUNS = (
    [{"semiring": "Ssur[X]", **_WARM_PAIR},
     {"semiring": "Lin[X]", **_WARM_PAIR},
     {"semiring": "Lin[X]×N_2", "q1": "Q() :- S(u)", "q2": "Q() :- R(x, y)"}],
    [{"semiring": "Lin[X]×N_2", **_WARM_PAIR}],
)


def test_batch_snapshot_keeps_every_computed_layer(capsys, tmp_path):
    """A run that computes only structural entries must still re-save.

    The second run's only new work is ``⇉2``'s set-reduced table of
    ``⟨Q1⟩`` and one canonical form.  The first run built ``⟨Q1⟩``'s
    class table (``Ssur[X]``'s ``։∞``), the covered atoms of
    ``Q2 ⇉1 Q1`` (``Lin[X]``) and the classification of
    ``Lin[X]×N_2``.  The second run's ``⇉2`` adds only the set-reduced
    table, whose one new form is the set reduct ``R(x, x)`` of the class
    of ``R(x, x), R(x, x)``, and enumerates no kernel: no set-reduced
    class both repeats and lacks a symmetry.  Skipping the rewrite
    would drop both, and the third run would recompute them."""
    import json

    snapshot = tmp_path / "s.snap"
    calls = []
    for run, requests in enumerate((_WARM_RUNS[0], _WARM_RUNS[1],
                                    _WARM_RUNS[1])):
        source = tmp_path / f"run{run}.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in requests),
                          encoding="utf-8")
        code, _, err = run_cli(capsys, "batch", "--snapshot", str(snapshot),
                               "--input", str(source), "--output",
                               str(tmp_path / f"out{run}.jsonl"), "--stats")
        assert code == 0
        stats = json.loads(err.strip().splitlines()[-1])
        calls.append({key: value for key, value in stats.items()
                      if key.endswith("_calls") and value})
    assert calls[1] == {"description_calls": 1, "canon_calls": 1}
    assert calls[2] == {}
