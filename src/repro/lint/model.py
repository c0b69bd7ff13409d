"""Data model of the project linter: findings, files, rules, pragmas.

The linter is a pure AST pass: it never imports the code it checks.
Every checked file becomes a :class:`SourceFile` (parsed tree and
suppression pragmas); the set of files under analysis is a
:class:`Project`, which is what every rule receives.

Suppression pragmas are comments::

    names = {id(s): s.name for s in semirings}  # repro-lint: disable=RL004
    # repro-lint: disable=RL004
    key = id(semiring)

A trailing pragma suppresses its own line; a comment-only pragma line
suppresses itself *and* the next line (so a justification sentence can
precede the code it excuses).  ``disable=all`` mutes every rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["Finding", "SourceFile", "Project", "Rule",
           "load_source_file", "walk_with_parents"]

#: ``# repro-lint: disable=RL004`` (or ``disable=all``).
_PRAGMA = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        """The canonical ``path:line: RULE message`` text form."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        """JSON-clean form (the JSON reporter's per-finding schema)."""
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}


def _pragmas(text: str) -> dict[int, frozenset[str]]:
    """``line → suppressed rule ids`` from ``repro-lint`` comments."""
    suppressed: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(token.string)
            if match is None:
                continue
            rules = frozenset(
                part.strip() for part in match.group(1).split(",")
                if part.strip())
            line = token.start[0]
            lines = [line]
            # A comment-only pragma line also covers the next line.
            if token.line.lstrip().startswith("#"):
                lines.append(line + 1)
            for covered in lines:
                suppressed.setdefault(covered, set()).update(rules)
    except (tokenize.TokenError, IndentationError):
        pass  # an unparsable file already fails at ast.parse
    return {line: frozenset(rules)
            for line, rules in suppressed.items()}


@dataclass(frozen=True)
class SourceFile:
    """One parsed file under analysis."""

    path: Path
    display: str
    tree: ast.Module
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True when a pragma mutes ``rule_id`` on ``line``."""
        active = self.pragmas.get(line, frozenset())
        return rule_id in active or "all" in active


def load_source_file(path: Path, root: Path | None = None,
                     ) -> SourceFile | Finding:
    """Parse one file; a syntax error becomes an ``RL000`` finding."""
    display = str(path)
    if root is not None:
        try:
            display = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            display = str(path)
    try:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
    except (OSError, SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", None) or 1
        return Finding(rule="RL000", path=display, line=line,
                       message=f"cannot parse file ({error})")
    return SourceFile(path=path, display=display, tree=tree,
                      pragmas=_pragmas(text))


class Project:
    """The whole set of files a lint run analyzes."""

    def __init__(self, files: Iterable[SourceFile]):
        self.files: tuple[SourceFile, ...] = tuple(files)


class Rule:
    """Base class of a lint rule.

    Subclasses set :attr:`id`/:attr:`title` and implement
    :meth:`check`, yielding findings over the whole project; the runner
    applies pragma suppression afterwards, so rules never need to look
    at pragmas themselves.
    """

    id: str = "RL000"
    title: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        """Yield every violation of this rule in ``project``."""
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    def finding(self, sf: SourceFile, node: ast.AST | int,
                message: str) -> Finding:
        """A finding of this rule at an AST node (or literal line)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(rule=self.id, path=sf.display, line=line,
                       message=message)


def walk_with_parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """``child → parent`` links for every node (rules climb them)."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents
