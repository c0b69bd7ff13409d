"""Tests for ``repro.lint`` — the project invariant checker.

Each rule gets a pair of fixtures: a seeded violation it must fire on
and the clean idiom it must stay silent on.  Fixtures are written as
miniature ``repro`` package trees under ``tmp_path`` — the linter is a
pure AST pass and never imports them, so they cannot collide with the
real installed package.  On top of the per-rule pairs: pragma
suppression, the JSON reporter schema, CLI exit codes, and the
self-check that the repository's own tree lints clean.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint import render_json, run_lint


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialize a mini ``repro`` package tree; returns its root."""
    package = root / "repro"
    for relative, text in files.items():
        path = package / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        # every directory on the way needs to be a package
        current = path.parent
        while current != root:
            init = current / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            current = current.parent
    return package


def _rules_fired(report) -> set[str]:
    return {finding.rule for finding in report.findings}


# -- RL004: determinism hazards ----------------------------------------


def test_rl004_fires_on_each_hazard(tmp_path):
    package = _write_tree(tmp_path, {
        "service/routing.py": (
            "import hashlib\n\n\n"
            "def shard_of(key):\n"
            "    for item in {1, 2, 3}:\n"
            "        key += item\n"
            "    return id(key), hash(key), repr({4, 5})\n"),
    })
    report = run_lint([package])
    messages = " | ".join(f.message for f in report.findings)
    assert "id() is a per-process address" in messages
    assert "hash() is salted per process" in messages
    assert "repr() of a set" in messages
    assert "set iteration inside shard_of()" in messages


def test_rl004_silent_on_hash_memo_idiom(tmp_path):
    package = _write_tree(tmp_path, {
        "queries/cq.py": (
            "class CQ:\n"
            "    def __hash__(self):\n"
            "        return hash(self.atoms)\n\n"
            "    def precompute(self):\n"
            "        self._hash = hash(self.atoms)\n"
            "        object.__setattr__(self, \"_hash\",\n"
            "                           hash(self.atoms))\n\n"
            "    def walk(self):\n"
            "        for atom in sorted({1, 2}):\n"
            "            yield atom\n"),
    })
    report = run_lint([package])
    assert report.clean, report.findings


# -- pragmas ------------------------------------------------------------


def test_trailing_pragma_suppresses_own_line(tmp_path):
    package = _write_tree(tmp_path, {
        "service/routing.py": (
            "def route(key):\n"
            "    return id(key)  # repro-lint: disable=RL004\n"),
    })
    report = run_lint([package])
    assert report.clean
    assert report.suppressed == 1


def test_comment_pragma_suppresses_next_line(tmp_path):
    package = _write_tree(tmp_path, {
        "service/routing.py": (
            "def route(key):\n"
            "    # in-process only.  # repro-lint: disable=RL004\n"
            "    return id(key)\n"),
    })
    report = run_lint([package])
    assert report.clean
    assert report.suppressed == 1


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    package = _write_tree(tmp_path, {
        "service/routing.py": (
            "def route(key):\n"
            "    return id(key)  # repro-lint: disable=RL000\n"),
    })
    report = run_lint([package])
    assert len(report.findings) == 1
    assert report.suppressed == 0


def test_disable_all_pragma(tmp_path):
    package = _write_tree(tmp_path, {
        "service/routing.py": (
            "def route(key):\n"
            "    return id(key)  # repro-lint: disable=all\n"),
    })
    report = run_lint([package])
    assert report.clean


# -- reporters, CLI, self-check ----------------------------------------


def test_syntax_error_becomes_rl000_finding(tmp_path):
    package = _write_tree(tmp_path, {"broken.py": "def nope(:\n"})
    report = run_lint([package])
    assert any(f.rule == "RL000" for f in report.findings)
    assert report.exit_code == 1


def test_json_reporter_schema(tmp_path):
    package = _write_tree(tmp_path, {
        "service/routing.py": "def route(key):\n    return id(key)\n",
    })
    report = run_lint([package])
    document = render_json(report)
    assert document["version"] == 1
    assert document["clean"] is False
    assert document["files"] == report.files
    assert document["suppressed"] == 0
    [finding] = document["findings"]
    assert set(finding) == {"rule", "path", "line", "message"}
    assert finding["rule"] == "RL004"
    assert finding["line"] == 2
    json.dumps(document)  # JSON-clean end to end


def test_cli_lint_exit_codes_and_json(tmp_path, capsys):
    package = _write_tree(tmp_path, {
        "service/routing.py": "def route(key):\n    return id(key)\n",
    })
    assert main(["lint", "--json", str(package)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    clean = _write_tree(tmp_path / "ok", {"fine.py": "VALUE = 1\n"})
    assert main(["lint", str(clean)]) == 0
    assert "clean" in capsys.readouterr().out


def test_repo_tree_lints_clean():
    """The repository's own package must pass its own linter —
    exactly what the CI gate (`python -m repro lint`) enforces."""
    report = run_lint()  # defaults to the installed repro package
    assert report.clean, "\n".join(f.render() for f in report.findings)
