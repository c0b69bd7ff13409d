"""The project-specific per-file lint rules (RL001, RL004).

Each rule machine-enforces one convention the engine's correctness or
warm-path performance rests on; ``docs/ARCHITECTURE.md`` and the
README's "Static analysis" section describe them from the user side.
Conventions Python can check itself are not here: a semiring's
``poly_order`` is checked when its class is defined, an incomplete
:class:`~repro.semirings.base.VectorizedOps` kernel cannot be
instantiated, a memo key is the argument list of the engine's
``_memo`` call, and a pickled query restores through its class, which
the snapshot unpickler admits like any ``repro`` class.

* **RL001** — calls to the context-accepting decision primitives must
  thread ``context=`` (an omitted keyword silently bypasses every
  engine cache).
* **RL004** — determinism hazards: ``id()``, ``hash()`` outside the
  ``__hash__``/``_hash``-memo idiom, stringified sets, set iteration
  inside digest/shard routines.

All rules are pure AST analyses over a :class:`~repro.lint.model.Project`
— nothing under analysis is ever imported.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .callgraph import import_map as _import_map
from .model import (Finding, Project, Rule, SourceFile, rule,
                    walk_with_parents)

__all__ = ["ContextThreadingRule", "DeterminismRule"]

#: The modules whose public context-accepting functions RL001 covers.
_CONTEXT_PREFIXES = ("repro.core", "repro.homomorphisms",
                     "repro.polynomials")


# Import/alias resolution is shared with the interprocedural layer:
# ``_import_map`` above is :func:`repro.lint.callgraph.import_map`.


def _const_str(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@rule
class ContextThreadingRule(Rule):
    """RL001: decision-primitive calls must thread ``context=``.

    Pass 1 collects every public module-level function under
    ``repro.core``/``repro.homomorphisms``/``repro.polynomials`` that
    accepts a ``context`` parameter.  Pass 2 flags call sites anywhere
    in the tree that resolve (through imports, package re-exports
    included) to one of those functions without a ``context=`` keyword
    (or a ``**kwargs`` splat that could carry one).
    """

    id = "RL001"
    title = "context-threading"

    def check(self, project: Project) -> Iterator[Finding]:
        targets = self._context_functions(project)
        if not targets:
            return
        for sf in project.files:
            yield from self._check_file(sf, targets)

    @staticmethod
    def _accepts_context(node: ast.FunctionDef) -> bool:
        args = node.args
        return any(arg.arg == "context"
                   for arg in list(args.args) + list(args.kwonlyargs))

    def _context_functions(self, project: Project
                           ) -> dict[str, frozenset[str]]:
        """``function name → acceptable origin modules``."""
        targets: dict[str, set[str]] = {}
        for prefix in _CONTEXT_PREFIXES:
            for sf in project.modules_under(prefix):
                for node in sf.tree.body:
                    if not isinstance(node, ast.FunctionDef):
                        continue
                    if node.name.startswith("_"):
                        continue
                    if not self._accepts_context(node):
                        continue
                    origins = targets.setdefault(node.name, set())
                    # The defining module plus every ancestor package:
                    # re-exports through __init__ stay recognized.
                    parts = sf.module.split(".")
                    for end in range(1, len(parts) + 1):
                        origins.add(".".join(parts[:end]))
        return {name: frozenset(origins)
                for name, origins in targets.items()}

    def _check_file(self, sf: SourceFile,
                    targets: dict[str, frozenset[str]]
                    ) -> Iterator[Finding]:
        imports = _import_map(sf)
        local_defs = {node.name for node in sf.tree.body
                      if isinstance(node, ast.FunctionDef)}
        local_covered = (sf.module is not None
                         and sf.module.startswith(_CONTEXT_PREFIXES))
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            symbol, origin = self._resolve_call(
                node, imports, sf, local_defs, local_covered)
            if symbol is None:
                continue
            origins = targets.get(symbol)
            if origins is None or origin not in origins:
                continue
            if any(kw.arg == "context" or kw.arg is None
                   for kw in node.keywords):
                continue
            yield self.finding(
                sf, node,
                f"call to {symbol}() omits context= — engine caches "
                f"are silently bypassed; thread the caller's "
                f"DecisionContext (or pragma with a justification)")

    @staticmethod
    def _resolve_call(node: ast.Call, imports, sf: SourceFile,
                      local_defs, local_covered
                      ) -> tuple[str | None, str | None]:
        func = node.func
        if isinstance(func, ast.Name):
            entry = imports.get(func.id)
            if entry is not None and entry[1] is not None:
                return entry[1], entry[0]
            if local_covered and func.id in local_defs:
                return func.id, sf.module
            return None, None
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            entry = imports.get(func.value.id)
            if entry is not None and entry[1] is None:
                return func.attr, entry[0]
        return None, None


@rule
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
