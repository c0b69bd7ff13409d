"""``repro.lint`` — the project's AST-based invariant checker.

It machine-enforces the determinism discipline that canonical keys,
digests and snapshots rest on (rule RL004, :mod:`repro.lint.rules`).
Run it as::

    python -m repro lint                  # self-check the package
    python -m repro lint --json           # machine-readable report
    python -m repro lint PATH ...         # lint specific trees

Exit code 0 means clean; 1 means findings (CI gates on this).  See
the README's "Static analysis" section for the pragma syntax.
"""

from .model import Finding, Project, Rule, SourceFile
from .report import LintReport, render_json, render_text
from .runner import collect_project, default_target, run_lint

__all__ = ["Finding", "LintReport", "Project", "Rule", "SourceFile",
           "collect_project", "default_target", "render_json",
           "render_text", "run_lint"]
