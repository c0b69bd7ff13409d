"""The project-specific lint rule (RL004).

It machine-enforces one convention the engine's correctness rests on;
the README's "Static analysis" section describes it from the user
side.  Conventions Python can check itself are not here: a semiring's
``poly_order`` is checked when its class is defined, an incomplete
:class:`~repro.semirings.base.VectorizedOps` kernel cannot be
instantiated, a memo key is the argument list of the engine's
``_memo`` call, a pickled query restores through its class, which
the snapshot unpickler admits like any ``repro`` class, and an
internal decision function called without its context raises
``TypeError``, because the argument is required.

* **RL004** — determinism hazards: ``id()``, ``hash()`` outside the
  ``__hash__``/``_hash``-memo idiom, stringified sets, set iteration
  inside digest/shard routines.

The rule is a pure AST analysis over a :class:`~repro.lint.model.Project`
— nothing under analysis is ever imported.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .model import Finding, Project, Rule, SourceFile, walk_with_parents

__all__ = ["DeterminismRule"]


def _const_str(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class DeterminismRule(Rule):
    """RL004: flag constructs whose value varies across processes.

    ``id()`` is a per-process address; ``hash()`` is salted per process
    (except inside ``__hash__`` itself or the ``self._hash = hash(...)``
    memo idiom); ``repr``/``str`` of a set literal leaks iteration
    order; and set iteration inside shard/digest routines routes work
    nondeterministically.  Anything feeding canonical keys, digests or
    snapshots must avoid these (or carry a pragma with a justification
    that the value never leaves the process).
    """

    id = "RL004"
    title = "determinism hazards"

    def check(self, project: Project) -> Iterator[Finding]:
        for sf in project.files:
            yield from self._check_file(sf)

    @staticmethod
    def _is_setish(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def _check_file(self, sf: SourceFile) -> Iterator[Finding]:
        parents = walk_with_parents(sf.tree)
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Call) and isinstance(node.func,
                                                         ast.Name):
                if node.func.id == "id" and len(node.args) == 1:
                    yield self.finding(
                        sf, node,
                        "id() is a per-process address — it must never "
                        "reach a digest, canonical key, or snapshot "
                        "(pragma with a justification if the value "
                        "stays in-process)")
                elif (node.func.id == "hash" and len(node.args) == 1
                        and not self._hash_allowed(node, parents)):
                    yield self.finding(
                        sf, node,
                        "hash() is salted per process — derive "
                        "persisted or cross-process keys from "
                        "canonical structure instead")
                elif (node.func.id in ("repr", "str") and node.args
                        and self._is_setish(node.args[0])):
                    yield self.finding(
                        sf, node,
                        f"{node.func.id}() of a set leaks arbitrary "
                        f"iteration order — sort before rendering")
            elif isinstance(node, ast.For) and self._is_setish(node.iter):
                scope = self._enclosing_function(node, parents)
                if scope is not None and any(
                        marker in scope.name
                        for marker in ("shard", "digest")):
                    yield self.finding(
                        sf, node,
                        f"set iteration inside {scope.name}() feeds "
                        f"routing/digest logic in arbitrary order — "
                        f"iterate sorted(...) instead")

    @staticmethod
    def _enclosing_function(node: ast.AST, parents
                            ) -> ast.FunctionDef | None:
        current = parents.get(node)
        while current is not None:
            if isinstance(current, ast.FunctionDef):
                return current
            current = parents.get(current)
        return None

    def _hash_allowed(self, node: ast.Call, parents) -> bool:
        current: ast.AST | None = node
        while current is not None:
            parent = parents.get(current)
            if isinstance(parent, ast.FunctionDef) \
                    and parent.name == "__hash__":
                return True
            if isinstance(parent, ast.Assign) and any(
                    (isinstance(t, ast.Attribute) and t.attr == "_hash")
                    or (isinstance(t, ast.Name) and t.id == "_hash")
                    for t in parent.targets):
                return True
            if (isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Attribute)
                    and parent.func.attr == "__setattr__"
                    and len(parent.args) >= 2
                    and _const_str(parent.args[1]) == "_hash"):
                return True
            current = parent
        return False
