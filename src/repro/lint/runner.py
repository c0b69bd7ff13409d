"""Collection and orchestration: turn paths into a lint report.

``run_lint()`` is the library entry point; ``python -m repro lint``
(see :mod:`repro.cli`) is a thin argument shim over it.  With no paths
the installed ``repro`` package itself is linted — the self-check mode
CI gates on.

Rule filtering accepts exact ids plus two wildcard forms: a trailing
``*`` prefix-matches (``RL1*``), and an ``X`` matches any single
character in that position (``RL00X``, ``RL1XX``) — so the cheap
per-file rules and the heavier interprocedural rules can be gated and
profiled independently (``--select``/``--ignore``/``--stats``).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, Sequence

from . import rules as _rules  # noqa: F401 - registers RL004
from . import rules_flow as _rules_flow  # noqa: F401 - registers RL101–RL103
from .model import Finding, Project, RULES, load_source_file
from .report import LintReport

__all__ = ["collect_project", "default_target", "match_rule",
           "run_lint", "select_rules"]


def default_target() -> Path:
    """The installed ``repro`` package directory (self-check mode)."""
    return Path(__file__).resolve().parent.parent


def _iter_python_files(path: Path) -> Iterable[Path]:
    if path.is_file():
        yield path
        return
    yield from sorted(path.rglob("*.py"))


def collect_project(paths: Sequence[Path]
                    ) -> tuple[Project, list[Finding], int]:
    """Parse every ``.py`` file under ``paths``.

    Returns the project, the parse-failure findings (``RL000``), and
    the number of files seen.  ``root`` for display purposes is the
    common parent when a single directory is linted, keeping paths
    short and stable in reports.
    """
    findings: list[Finding] = []
    files = []
    seen: set[Path] = set()
    for base in paths:
        root = base if base.is_dir() else base.parent
        for path in _iter_python_files(base):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            loaded = load_source_file(path, root=root.parent)
            if isinstance(loaded, Finding):
                findings.append(loaded)
            else:
                files.append(loaded)
    return Project(files), findings, len(seen)


def match_rule(rule_id: str, pattern: str) -> bool:
    """True when ``pattern`` covers ``rule_id``.

    Exact match, trailing-``*`` prefix (``RL1*``), or per-character
    ``X``/``x`` wildcards of equal length (``RL00X``, ``RL1XX``).
    """
    if pattern == rule_id or pattern == "all":
        return True
    if pattern.endswith("*"):
        return rule_id.startswith(pattern[:-1])
    if len(pattern) == len(rule_id):
        return all(want in ("X", "x") or want == have
                   for want, have in zip(pattern, rule_id))
    return False


def select_rules(select: Iterable[str] | None = None,
                 ignore: Iterable[str] | None = None) -> dict:
    """The rule registry filtered by wildcard patterns.

    Raises ``ValueError`` for a pattern matching no registered rule —
    a silently dead ``--select RL10X`` typo would un-gate CI.
    """
    def matched(pattern: str) -> set[str]:
        hits = {rid for rid in RULES if match_rule(rid, pattern)}
        if not hits:
            raise ValueError(
                f"rule pattern {pattern!r} matches no registered rule "
                f"(known: {', '.join(sorted(RULES))})")
        return hits

    chosen = dict(RULES)
    if select is not None:
        wanted: set[str] = set()
        for pattern in select:
            wanted |= matched(pattern)
        chosen = {rid: cls for rid, cls in chosen.items()
                  if rid in wanted}
    if ignore is not None:
        for pattern in ignore:
            for rid in matched(pattern):
                chosen.pop(rid, None)
    return chosen


def run_lint(paths: Sequence[str | Path] | None = None, *,
             rule_ids: Iterable[str] | None = None,
             select: Iterable[str] | None = None,
             ignore: Iterable[str] | None = None,
             with_stats: bool = False) -> LintReport:
    """Run every registered rule (or a filtered subset) over ``paths``.

    ``paths`` defaults to the installed ``repro`` package.
    ``rule_ids`` is the exact-id legacy filter; ``select``/``ignore``
    accept wildcard patterns (see :func:`match_rule`) and compose with
    it.  ``with_stats=True`` records per-rule wall-clock timings on the
    report.  Pragmas are applied here — a finding on a line carrying
    ``# repro-lint: disable=<rule>`` (or preceded by a comment-only
    pragma line) is counted as suppressed, not reported.
    """
    targets = ([Path(p) for p in paths] if paths
               else [default_target()])
    project, findings, file_count = collect_project(targets)
    selected = select_rules(select, ignore)
    if rule_ids is not None:
        exact = {rid: RULES[rid] for rid in rule_ids}
        selected = {rid: cls for rid, cls in selected.items()
                    if rid in exact}
        for rid, cls in exact.items():
            selected.setdefault(rid, cls)
    by_display = {sf.display: sf for sf in project.files}
    suppressed = 0
    timings: list[tuple[str, float]] = []
    for rule_id in sorted(selected):
        started = time.perf_counter()
        for finding in selected[rule_id]().check(project):
            sf = by_display.get(finding.path)
            if sf is not None and sf.suppressed(finding.rule,
                                                finding.line):
                suppressed += 1
                continue
            findings.append(finding)
        if with_stats:
            timings.append((rule_id, time.perf_counter() - started))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintReport(findings=tuple(findings), suppressed=suppressed,
                      files=file_count, timings=tuple(timings))
