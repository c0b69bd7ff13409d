"""``repro.lint`` — the project's AST-based invariant checker.

The conventions the engine's correctness and warm-path performance
rest on (context threading, determinism discipline) are
machine-enforced here rather than by review, and an
interprocedural layer — a project-wide call graph, per-function CFGs
and a forward taint engine — checks the service invariants no single
file shows:
event-loop blocking (RL101), fork-safety (RL102) and shared-state
ownership (RL103).  Run it as::

    python -m repro lint                  # self-check the package
    python -m repro lint --json           # machine-readable report
    python -m repro lint --select RL1XX   # only the dataflow rules
    python -m repro lint --stats          # per-rule timings
    python -m repro lint PATH ...         # lint specific trees

Exit code 0 means clean; 1 means findings (CI gates on this).  See
:mod:`repro.lint.rules` for the per-file rule (RL004),
:mod:`repro.lint.rules_flow` for the dataflow rules (RL101–RL103), and
the README's "Static analysis" section for the pragma and ``owner=``
annotation syntax.
"""

from .callgraph import CallGraph, get_call_graph
from .cfg import CFG, build_cfg
from .dataflow import TaintAnalysis, run_forward
from .model import Finding, Project, RULES, Rule, SourceFile
from .report import LintReport, render_json, render_text
from .runner import (collect_project, default_target, match_rule,
                     run_lint, select_rules)

__all__ = ["CFG", "CallGraph", "Finding", "LintReport", "Project",
           "RULES", "Rule", "SourceFile", "TaintAnalysis", "build_cfg",
           "collect_project", "default_target", "get_call_graph",
           "match_rule", "render_json", "render_text", "run_forward",
           "run_lint", "select_rules"]
