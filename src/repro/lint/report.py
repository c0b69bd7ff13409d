"""Text and JSON reporters for lint runs."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Finding

__all__ = ["LintReport", "render_text", "render_json"]

#: The JSON reporter's schema version (bump on incompatible changes).
JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run.

    ``findings``   — surviving findings, sorted by (path, line, rule).
    ``suppressed`` — how many findings pragmas muted.
    ``files``      — how many files were analyzed.
    """

    findings: tuple[Finding, ...]
    suppressed: int
    files: int

    @property
    def clean(self) -> bool:
        """True when no finding survived suppression."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any finding survived."""
        return 0 if self.clean else 1


def render_text(report: LintReport) -> str:
    """Human-readable report: one ``path:line: RULE message`` per
    finding plus a one-line summary."""
    lines = [finding.render() for finding in report.findings]
    noun = "finding" if len(report.findings) == 1 else "findings"
    summary = (f"{len(report.findings)} {noun} in {report.files} "
               f"file(s)")
    if report.suppressed:
        summary += f" ({report.suppressed} suppressed by pragmas)"
    lines.append(summary if report.findings else f"clean: {summary}")
    return "\n".join(lines)


def render_json(report: LintReport) -> dict:
    """JSON-clean report document (stable schema, see tests)."""
    return {
        "version": JSON_SCHEMA_VERSION,
        "clean": report.clean,
        "files": report.files,
        "suppressed": report.suppressed,
        "findings": [finding.to_dict() for finding in report.findings],
    }
