"""Documentation integrity: no dead links, no phantom modules.

Fails when README.md or any file under ``docs/`` links to a repository
path that does not exist, or name-drops a ``repro`` module, a name in
one, a member of a ``repro`` class (``WorkerPool.submit``), or a
``src/``/``benchmarks/``/``examples/``/``tests/`` file that is not in
the tree — the cheap guard that keeps the architecture docs honest as
the codebase moves.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

#: Markdown inline links: [text](target)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Dotted references like ``repro.api.engine`` or
#: ``repro.api.ContainmentEngine`` (in backticks or prose).
_MODULE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: Backticked class-qualified names like ``WorkerPool.submit``.
_QUALIFIED = re.compile(r"`([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)")

#: Repository file paths named in prose/code blocks.
_PATH = re.compile(
    r"\b(?:src|docs|benchmarks|examples|tests)/[\w./-]+\.(?:py|md)\b")


def _python_modules() -> set[str]:
    modules = set()
    for path in (ROOT / "src").rglob("*.py"):
        relative = path.relative_to(ROOT / "src")
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.add(".".join(parts))
    return modules


MODULES = _python_modules()


def test_documents_exist():
    assert (ROOT / "docs" / "ARCHITECTURE.md").exists(), \
        "docs/ARCHITECTURE.md is part of the documented contract"
    for document in DOCUMENTS:
        assert document.exists(), document


def test_markdown_links_resolve():
    dead = []
    for document in DOCUMENTS:
        text = document.read_text(encoding="utf-8")
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = (document.parent / target.split("#", 1)[0]).resolve()
            if not path.exists():
                dead.append(f"{document.relative_to(ROOT)} -> {target}")
    assert not dead, "dead markdown links:\n" + "\n".join(dead)


def test_referenced_paths_exist():
    missing = []
    for document in DOCUMENTS:
        text = document.read_text(encoding="utf-8")
        for target in set(_PATH.findall(text)):
            if not (ROOT / target).exists():
                missing.append(f"{document.relative_to(ROOT)} -> {target}")
    assert not missing, "nonexistent paths referenced:\n" + "\n".join(missing)


def _resolves(reference: str) -> bool:
    """True iff the longest module prefix of ``reference`` exists and
    the rest of it resolves as attributes of that module (a class, a
    function, a constant, a method)."""
    parts = reference.split(".")
    for length in range(len(parts), 0, -1):
        module = ".".join(parts[:length])
        if module in MODULES:
            target = importlib.import_module(module)
            for name in parts[length:]:
                if not hasattr(target, name):
                    return False
                target = getattr(target, name)
            return True
    return False


def test_referenced_modules_exist():
    phantoms = []
    for document in DOCUMENTS:
        text = document.read_text(encoding="utf-8")
        for reference in set(_MODULE.findall(text)):
            if not _resolves(reference):
                phantoms.append(
                    f"{document.relative_to(ROOT)} -> {reference}")
    assert not phantoms, \
        "nonexistent modules or names referenced:\n" + "\n".join(phantoms)


def _repro_classes() -> dict[str, list[type]]:
    """Every class defined in a ``repro`` module, by name."""
    classes: dict[str, list[type]] = {}
    for module in sorted(MODULES):
        if module.endswith("__main__"):
            continue
        for value in vars(importlib.import_module(module)).values():
            if isinstance(value, type) and value.__module__ == module:
                classes.setdefault(value.__name__, []).append(value)
    return classes


def test_class_qualified_names_exist():
    classes = _repro_classes()
    phantoms = []
    for document in DOCUMENTS:
        text = document.read_text(encoding="utf-8")
        for owner, name in set(_QUALIFIED.findall(text)):
            if owner in classes and not any(
                    hasattr(cls, name) for cls in classes[owner]):
                phantoms.append(
                    f"{document.relative_to(ROOT)} -> {owner}.{name}")
    assert not phantoms, \
        "nonexistent class members referenced:\n" + "\n".join(phantoms)
