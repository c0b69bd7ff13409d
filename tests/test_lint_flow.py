"""Tests for the interprocedural flow rules (RL101–RL103).

Same shape as ``test_lint.py``: every rule gets fixture trees it must
fire on and the clean idiom it must stay silent on, written as
miniature ``repro`` package trees under ``tmp_path`` (the linter never
imports them).  On top of the per-rule pairs: pragma interplay with
the RL1xx rules, ``--select``/``--ignore`` pattern filtering, the
``--stats`` timing summary, and the self-check that the repository's
own tree passes its own flow rules.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (match_rule, render_json, render_text, run_lint,
                        select_rules)


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialize a mini ``repro`` package tree; returns its root."""
    package = root / "repro"
    for relative, text in files.items():
        path = package / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        current = path.parent
        while current != root:
            init = current / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            current = current.parent
    return package


# -- RL101: async-blocking ---------------------------------------------


_HELPER = """
import pickle


def save(payload):
    with open("/tmp/s", "wb") as fh:
        pickle.dump(payload, fh)


def flush_state():
    save(None)
"""

_GATEWAY = """
import asyncio
import pickle

from .helper import flush_state, save


class Gateway:
    async def handle(self, payload):
        save(payload)
        pickle.dump(payload, open("/tmp/x", "wb"))
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, flush_state)
"""


def test_rl101_fires_on_direct_and_transitive_blocking(tmp_path):
    package = _write_tree(tmp_path, {
        "service/helper.py": _HELPER,
        "service/gateway.py": _GATEWAY,
    })
    report = run_lint([package], select=["RL101"])
    messages = sorted(f.message for f in report.findings)
    # three: the transitive chain, plus pickle.dump() and open()
    # called directly inside the coroutine
    assert len(messages) == 3, messages
    # transitive: handle -> save -> pickle.dump, with the chain shown
    assert any("calls save()" in m and "save -> pickle.dump()" in m
               for m in messages)
    # direct: pickle.dump and open right inside the coroutine
    assert any("pickle.dump()" in m and "calls save()" not in m
               for m in messages)
    assert any("open()" in m for m in messages)
    # the executor *reference* to flush_state is not a call edge
    assert not any("flush_state" in m for m in messages)


def test_rl101_silent_on_sync_callers_and_executor_reference(tmp_path):
    package = _write_tree(tmp_path, {
        "service/helper.py": _HELPER,
        "service/runner.py": (
            "import asyncio\n\n"
            "from .helper import save\n\n\n"
            "def cold_path(payload):\n"
            "    save(payload)\n\n\n"
            "async def warm_path(payload):\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, save, payload)\n"),
    })
    report = run_lint([package], select=["RL101"])
    assert report.clean, [f.message for f in report.findings]


def test_rl101_fires_on_hom_search_reachable_from_async(tmp_path):
    package = _write_tree(tmp_path, {
        "homomorphisms/search.py": (
            "def find_homomorphism(q1, q2):\n"
            "    return None\n"),
        "service/api.py": (
            "from ..homomorphisms.search import find_homomorphism\n\n\n"
            "async def contains(q1, q2):\n"
            "    return find_homomorphism(q1, q2) is not None\n"),
    })
    report = run_lint([package], select=["RL101"])
    [finding] = report.findings
    assert "find_homomorphism" in finding.message
    assert finding.path.endswith("api.py")


def test_rl101_fires_on_kernel_enumeration_reachable_from_async(tmp_path):
    package = _write_tree(tmp_path, {
        "homomorphisms/search.py": (
            "def hom_kernels(member, target, kind, limit):\n"
            "    return ()\n"),
        "homomorphisms/ucq_conditions.py": (
            "from .search import hom_kernels\n\n\n"
            "def count(member, target):\n"
            "    return len(hom_kernels(member, target, None, 2))\n"),
        "service/api.py": (
            "from ..homomorphisms.ucq_conditions import count\n\n\n"
            "async def preimages(member, target):\n"
            "    return count(member, target)\n"),
    })
    report = run_lint([package], select=["RL101"])
    [finding] = report.findings
    assert "hom_kernels" in finding.message
    assert "exhaustive hom search" in finding.message
    assert finding.path.endswith("api.py")


def test_rl101_fires_on_tropical_order_reachable_from_async(tmp_path):
    package = _write_tree(tmp_path, {
        "polynomials/tropical_order.py": (
            "def decide_poly_leq(order, p1, p2):\n"
            "    return True, None\n\n\n"
            "def min_plus_poly_leq(p1, p2):\n"
            "    return decide_poly_leq('min-plus', p1, p2)[0]\n"),
        "service/api.py": (
            "from ..polynomials.tropical_order import min_plus_poly_leq\n\n\n"
            "async def order(p1, p2):\n"
            "    return min_plus_poly_leq(p1, p2)\n"),
    })
    report = run_lint([package], select=["RL101"])
    [finding] = report.findings
    assert "min_plus_poly_leq" in finding.message
    assert "decide_poly_leq" in finding.message
    assert finding.path.endswith("api.py")


def test_rl101_trailing_pragma_suppresses(tmp_path):
    package = _write_tree(tmp_path, {
        "service/helper.py": _HELPER,
        "service/gateway.py": (
            "from .helper import save\n\n\n"
            "async def handle(payload):\n"
            "    save(payload)  # repro-lint: disable=RL101\n"),
    })
    report = run_lint([package], select=["RL101"])
    assert report.clean
    assert report.suppressed == 1


# -- RL102: fork safety ------------------------------------------------


_FORKY = """
import multiprocessing
import socket
import threading


class Server:
    def __init__(self):
        self._listen = socket.socket()
        self._lock = threading.Lock()
        self._q = multiprocessing.SimpleQueue()

    def start(self):
        proc = multiprocessing.Process(target=self._child,
                                       args=(self._q,))
        proc.start()

    def _child(self, q):
        self._listen.accept()
        q.put("ready")
"""


def test_rl102_fires_on_inherited_socket(tmp_path):
    # the PR-8 class of bug: a listening socket created pre-fork is
    # still open inside the worker
    package = _write_tree(tmp_path, {"service/forky.py": _FORKY})
    report = run_lint([package], select=["RL102"])
    [finding] = report.findings
    assert "self._listen" in finding.message
    assert "pre-fork" in finding.message
    # the unused lock and the multiprocessing queue stay silent
    assert "_lock" not in finding.message


def test_rl102_fires_on_risky_args_and_module_global(tmp_path):
    package = _write_tree(tmp_path, {
        "service/forky.py": _FORKY.replace(
            "args=(self._q,)", "args=(self._lock,)"),
        "service/global_sock.py": (
            "import multiprocessing\n"
            "import socket\n\n"
            "LISTENER = socket.socket()\n\n\n"
            "def worker():\n"
            "    LISTENER.accept()\n\n\n"
            "def start():\n"
            "    multiprocessing.Process(target=worker).start()\n"),
    })
    report = run_lint([package], select=["RL102"])
    messages = " | ".join(f.message for f in report.findings)
    assert "self._lock via args=" in messages
    assert "module global 'LISTENER'" in messages


def test_rl102_silent_on_post_fork_creation(tmp_path):
    package = _write_tree(tmp_path, {
        "service/forky.py": _FORKY.replace(
            "        self._listen.accept()\n",
            "        import socket as sock\n"
            "        listen = sock.socket()\n"
            "        listen.accept()\n"),
    })
    report = run_lint([package], select=["RL102"])
    assert report.clean, [f.message for f in report.findings]


# -- RL103: shared-state ownership -------------------------------------


_OWNED = """
from collections import deque


class Pool:
    def __init__(self):
        self._home = deque()  # repro-lint: owner=submit,_pump

    def submit(self, item):
        self._home.append(item)

    def _pump(self):
        return self._home.popleft()

    def rogue(self):
        self._home.clear()

    def sneaky(self, index):
        home = self._home
        home.append(index)
"""


def test_rl103_fires_on_rogue_and_alias_mutation(tmp_path):
    package = _write_tree(tmp_path, {"service/owned.py": _OWNED})
    report = run_lint([package], select=["RL103"])
    messages = sorted(f.message for f in report.findings)
    assert len(messages) == 2, messages
    assert any("'rogue'" in m for m in messages)
    assert any("'sneaky'" in m for m in messages)  # via the local alias
    assert all("Pool._home" in m for m in messages)


def test_rl103_silent_for_owners_and_copies(tmp_path):
    clean = _OWNED.replace(
        "    def rogue(self):\n"
        "        self._home.clear()\n",
        "    def report(self):\n"
        "        snapshot = list(self._home)\n"
        "        snapshot.append(None)  # a copy, not the container\n",
    ).replace(
        "    def sneaky(self, index):\n"
        "        home = self._home\n"
        "        home.append(index)\n",
        "",
    )
    package = _write_tree(tmp_path, {"service/owned.py": clean})
    report = run_lint([package], select=["RL103"])
    assert report.clean, [f.message for f in report.findings]


def test_rl103_subclass_mutation_checked_through_mro(tmp_path):
    package = _write_tree(tmp_path, {
        "service/owned.py": _OWNED.replace(
            "    def rogue(self):\n"
            "        self._home.clear()\n",
            "",
        ).replace(
            "    def sneaky(self, index):\n"
            "        home = self._home\n"
            "        home.append(index)\n",
            "",
        ),
        "service/sub.py": (
            "from .owned import Pool\n\n\n"
            "class Supervisor(Pool):\n"
            "    def steal(self):\n"
            "        return self._home.pop()\n"),
    })
    report = run_lint([package], select=["RL103"])
    [finding] = report.findings
    assert "'steal'" in finding.message
    assert finding.path.endswith("sub.py")
    # adding the subclass method as a qualified owner silences it
    fixed = _write_tree(tmp_path / "ok", {
        "service/owned.py": _OWNED.replace(
            "owner=submit,_pump", "owner=submit,_pump,Supervisor.steal",
        ).replace(
            "    def rogue(self):\n        self._home.clear()\n", "",
        ).replace(
            "    def sneaky(self, index):\n"
            "        home = self._home\n"
            "        home.append(index)\n",
            "",
        ),
        "service/sub.py": (
            "from .owned import Pool\n\n\n"
            "class Supervisor(Pool):\n"
            "    def steal(self):\n"
            "        return self._home.pop()\n"),
    })
    assert run_lint([fixed], select=["RL103"]).clean


def test_rl103_comment_above_declares_ownership(tmp_path):
    package = _write_tree(tmp_path, {
        "service/owned.py": _OWNED.replace(
            "        self._home = deque()  # repro-lint: owner=submit,_pump\n",
            "        # repro-lint: owner=submit,_pump\n"
            "        self._home = deque()\n"),
    })
    report = run_lint([package], select=["RL103"])
    # same two violations as the trailing-comment form (declaration
    # line shifts by one, so compare the flagged methods, not text)
    messages = sorted(f.message for f in report.findings)
    assert len(messages) == 2, messages
    assert any("'rogue'" in m for m in messages)
    assert any("'sneaky'" in m for m in messages)


# -- rule filtering and stats ------------------------------------------


def test_match_rule_patterns():
    assert match_rule("RL103", "RL103")
    assert match_rule("RL103", "all")
    assert match_rule("RL103", "RL1*")
    assert match_rule("RL103", "RL1XX")
    assert match_rule("RL103", "RLx03")
    assert not match_rule("RL004", "RL1XX")
    assert not match_rule("RL103", "RL10")     # length mismatch
    assert not match_rule("RL103", "RL0*")


def test_select_rules_rejects_dead_patterns():
    with pytest.raises(ValueError, match="RL9XX"):
        select_rules(select=["RL9XX"], ignore=None)
    with pytest.raises(ValueError, match="matches no registered"):
        select_rules(select=None, ignore=["RL7*"])


def test_run_lint_select_and_ignore_compose(tmp_path):
    package = _write_tree(tmp_path, {
        "service/helper.py": _HELPER,
        "service/gateway.py": _GATEWAY,
        "service/owned.py": _OWNED,
    })
    both = run_lint([package], select=["RL1XX"])
    assert {f.rule for f in both.findings} == {"RL101", "RL103"}
    only_async = run_lint([package], select=["RL1XX"], ignore=["RL103"])
    assert {f.rule for f in only_async.findings} == {"RL101"}


def test_stats_timings_in_text_and_json(tmp_path):
    package = _write_tree(tmp_path, {"service/owned.py": _OWNED})
    report = run_lint([package], select=["RL103"], with_stats=True)
    assert [rule for rule, _ in report.timings] == ["RL103"]
    assert all(elapsed >= 0.0 for _, elapsed in report.timings)
    text = render_text(report, stats=True)
    assert "rule timings" in text and "RL103" in text
    document = render_json(report)
    assert document["version"] == 1
    assert set(document["timings"]) == {"RL103"}
    json.dumps(document)
    # without stats the JSON schema is unchanged
    plain = run_lint([package], select=["RL103"])
    assert "timings" not in render_json(plain)


def test_cli_select_ignore_stats_flags(tmp_path, capsys):
    package = _write_tree(tmp_path, {"service/owned.py": _OWNED})
    assert main(["lint", "--select", "RL103", "--stats",
                 str(package)]) == 1
    out = capsys.readouterr().out
    assert "RL103" in out and "rule timings" in out
    assert main(["lint", "--ignore", "RL103", str(package)]) == 0
    capsys.readouterr()
    assert main(["lint", "--select", "RL9XX", str(package)]) == 2
    assert "matches no registered rule" in capsys.readouterr().err


# -- self-check --------------------------------------------------------


def test_repo_tree_passes_flow_rules():
    """The repository's own package must pass RL101–RL103 — exactly
    what the CI gate (`python -m repro lint`) enforces."""
    report = run_lint(select=["RL1XX"])
    assert report.clean, "\n".join(f.render() for f in report.findings)
