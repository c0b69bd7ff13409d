"""Collection and orchestration: turn paths into a lint report.

``run_lint()`` is the library entry point; ``python -m repro lint``
(see :mod:`repro.cli`) is a thin argument shim over it.  With no paths
the installed ``repro`` package itself is linted — the self-check mode
CI gates on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from .model import Finding, Project, load_source_file
from .report import LintReport
from .rules import DeterminismRule

__all__ = ["collect_project", "default_target", "run_lint"]


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


def run_lint(paths: Sequence[str | Path] | None = None) -> LintReport:
    """Run the determinism rule (RL004) over ``paths``.

    ``paths`` defaults to the installed ``repro`` package.  Pragmas
    are applied here — a finding on a line carrying
    ``# repro-lint: disable=<rule>`` (or preceded by a comment-only
    pragma line) is counted as suppressed, not reported.
    """
    targets = ([Path(p) for p in paths] if paths
               else [default_target()])
    project, findings, file_count = collect_project(targets)
    by_display = {sf.display: sf for sf in project.files}
    suppressed = 0
    for finding in DeterminismRule().check(project):
        sf = by_display.get(finding.path)
        if sf is not None and sf.suppressed(finding.rule, finding.line):
            suppressed += 1
            continue
        findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintReport(findings=tuple(findings), suppressed=suppressed,
                      files=file_count)
