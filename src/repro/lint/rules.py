"""The project-specific lint rules (RL001–RL005).

Each rule machine-enforces one convention the engine's correctness or
warm-path performance rests on; ``docs/ARCHITECTURE.md`` and the
README's "Static analysis" section describe them from the user side.

* **RL001** — calls to the context-accepting decision primitives must
  thread ``context=`` (an omitted keyword silently bypasses every
  engine cache).
* **RL002** — the engine's cache layers live in exactly one registry
  (:mod:`repro.api.layers`): it parses, names each layer once, and no
  engine store or snapshot layer list exists outside it.
* **RL003** — registered semirings declare a coherent ``poly_order``
  and any :class:`~repro.semirings.base.VectorizedOps` kernel is a
  complete, exact pair with the object fallback.
* **RL004** — determinism hazards: ``id()``, ``hash()`` outside the
  ``__hash__``/``_hash``-memo idiom, stringified sets, set iteration
  inside digest/shard routines.
* **RL005** — every ``__reduce__`` crossing the pool boundary restores
  through a callable the snapshot unpickler's allowlist covers.

All rules are pure AST analyses over a :class:`~repro.lint.model.Project`
— nothing under analysis is ever imported.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .callgraph import import_map as _import_map
from .model import Finding, Project, Rule, SourceFile, rule

__all__ = ["ContextThreadingRule", "CacheLayerRule", "SemiringRule",
           "DeterminismRule", "PickleBoundaryRule"]

#: Fallback VectorizedOps protocol, used when ``semirings/base.py`` is
#: not under analysis (e.g. linting a subtree).
_VECTOR_PROTOCOL = frozenset({"encode", "decode", "add", "mul",
                              "segment_add"})

#: The modules whose public context-accepting functions RL001 covers.
_CONTEXT_PREFIXES = ("repro.core", "repro.homomorphisms",
                     "repro.polynomials")


# Import/alias resolution is shared with the interprocedural layer:
# ``_import_map`` above is :func:`repro.lint.callgraph.import_map`.


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    links: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            links[child] = node
    return links


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
class CacheLayerRule(Rule):
    """RL002: one cache-layer registry, and no store outside it.

    The engine derives its stores, counters, reports and snapshot
    payload from :mod:`repro.api.layers` (parsed as a literal, never
    imported), so what is left to check is the registry itself: it
    parses and declares each layer once (RL104 reads it too),
    ``ContainmentEngine`` constructs no ``_LRU`` store outside a loop
    over it, and the snapshot schema is imported from it — a literal
    re-listing anywhere is flagged as drift waiting to happen.
    """

    id = "RL002"
    title = "cache-layer registry"

    _FIELD_ORDER = ("name", "attr", "hits", "calls", "entries", "size",
                    "rejected", "keyed_by_semiring")

    def check(self, project: Project) -> Iterator[Finding]:
        engine_sf = project.file("repro.api.engine")
        layers_sf = project.file("repro.api.layers")
        if layers_sf is None:
            if engine_sf is not None:
                yield self.finding(
                    engine_sf, 1,
                    "engine is under analysis but no cache-layer "
                    "registry (repro.api.layers) is — every layer "
                    "must be declared exactly once there")
            return
        layers, problems = self._parse_registry(layers_sf)
        yield from problems
        names = [layer["name"] for layer in layers]
        for name in sorted({n for n in names if names.count(n) > 1}):
            yield self.finding(layers_sf, 1,
                               f"layer {name!r} is declared twice")
        if engine_sf is not None:
            yield from self._check_engine(engine_sf)
        snapshot_sf = project.file("repro.service.snapshot")
        if snapshot_sf is not None:
            yield from self._check_snapshot(snapshot_sf)

    def _parse_registry(self, sf: SourceFile
                        ) -> tuple[list[dict], list[Finding]]:
        """Extract the literal ``CACHE_LAYERS`` tuple from the AST."""
        for node in sf.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if not any(isinstance(t, ast.Name) and t.id == "CACHE_LAYERS"
                       for t in targets):
                continue
            if not isinstance(value, (ast.Tuple, ast.List)):
                return [], [self.finding(
                    sf, node, "CACHE_LAYERS must be a literal tuple of "
                              "CacheLayer(...) calls (the linter reads "
                              "it without importing)")]
            layers = []
            problems = []
            for element in value.elts:
                parsed = self._parse_layer(element)
                if parsed is None:
                    problems.append(self.finding(
                        sf, element,
                        "unparseable CACHE_LAYERS entry — use literal "
                        "CacheLayer(name=..., attr=..., ...) calls"))
                else:
                    parsed["line"] = element.lineno
                    layers.append(parsed)
            return layers, problems
        return [], [self.finding(
            sf, 1, "repro.api.layers defines no CACHE_LAYERS registry")]

    def _parse_layer(self, node: ast.AST) -> dict | None:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "CacheLayer"):
            return None
        values: dict[str, object] = {}
        for index, arg in enumerate(node.args):
            if index >= len(self._FIELD_ORDER):
                return None
            if not isinstance(arg, ast.Constant):
                return None
            values[self._FIELD_ORDER[index]] = arg.value
        for keyword in node.keywords:
            if keyword.arg not in self._FIELD_ORDER:
                return None
            if not isinstance(keyword.value, ast.Constant):
                return None
            values[keyword.arg] = keyword.value.value
        if not all(field in values for field in
                   ("name", "attr", "hits", "calls", "entries")):
            return None
        return values

    def _check_engine(self, sf: SourceFile) -> Iterator[Finding]:
        engine_cls = next(
            (node for node in sf.tree.body
             if isinstance(node, ast.ClassDef)
             and node.name == "ContainmentEngine"), None)
        if engine_cls is None:
            return
        parents = _parents(engine_cls)
        for call in self._stray_stores(engine_cls, False):
            parent = parents.get(call)
            target = (parent.targets[0] if isinstance(parent, ast.Assign)
                      else getattr(parent, "target", None))
            label = (f"store self.{target.attr}"
                     if isinstance(target, ast.Attribute) else "store")
            yield self.finding(
                sf, call,
                f"cache {label} is built outside CACHE_LAYERS — declare "
                f"it (with its size) in repro.api.layers; stats, "
                f"snapshot export/import and the pool merge all miss "
                f"an undeclared store")

    def _stray_stores(self, node: ast.AST,
                      in_registry_loop: bool) -> Iterator[ast.Call]:
        """``_LRU(...)`` calls not inside a loop over ``CACHE_LAYERS``."""
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_LRU" and not in_registry_loop):
            yield node
        loops = ([node] if isinstance(node, (ast.For, ast.AsyncFor))
                 else getattr(node, "generators", ()))
        in_registry_loop = in_registry_loop or any(
            isinstance(loop.iter, ast.Name) and loop.iter.id == "CACHE_LAYERS"
            for loop in loops)
        for child in ast.iter_child_nodes(node):
            yield from self._stray_stores(child, in_registry_loop)

    def _check_snapshot(self, sf: SourceFile) -> Iterator[Finding]:
        imports_schema = any(
            isinstance(node, ast.ImportFrom) and node.module
            and node.module.endswith("layers")
            and any(alias.name == "SNAPSHOT_LAYERS"
                    for alias in node.names)
            for node in ast.walk(sf.tree))
        if not imports_schema:
            yield self.finding(
                sf, 1,
                "snapshot module must import SNAPSHOT_LAYERS from "
                "repro.api.layers instead of keeping its own layer list")
        for node in sf.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            names = {t.id for t in node.targets
                     if isinstance(t, ast.Name)}
            if not names & {"_LAYERS", "SNAPSHOT_LAYERS"}:
                continue
            if isinstance(node.value, (ast.Tuple, ast.List)) and all(
                    isinstance(e, ast.Constant) for e in node.value.elts):
                yield self.finding(
                    sf, node,
                    "literal layer list duplicates the registry in "
                    "repro.api.layers — import SNAPSHOT_LAYERS instead")


@rule
class SemiringRule(Rule):
    """RL003: semiring declarations are coherent.

    For every class under ``repro.semirings`` that (transitively)
    subclasses ``Semiring``: a declared ``poly_order`` must be a known
    literal kind, must come with ``poly_order_decidable=True`` in the
    class's ``SemiringProperties`` and a ``poly_leq`` implementation;
    and any ``vectorized_ops`` hook must return a kernel class from
    ``semirings/_vectorized.py`` implementing the complete
    ``VectorizedOps`` protocol (so the exact object fallback and the
    columnar path stay interchangeable).
    """

    id = "RL003"
    title = "semiring conformance"

    _KINDS = frozenset({"min-plus", "max-plus"})

    def check(self, project: Project) -> Iterator[Finding]:
        class_files: dict[str, tuple[SourceFile, ast.ClassDef]] = {}
        for sf in project.modules_under("repro.semirings"):
            for node in sf.tree.body:
                if isinstance(node, ast.ClassDef):
                    class_files.setdefault(node.name, (sf, node))
        if "Semiring" not in class_files:
            return
        protocol = self._protocol(project)
        semirings = self._transitive_subclasses(class_files, "Semiring")
        kernels = self._kernel_methods(project, class_files)
        for name in sorted(semirings):
            if name == "Semiring":
                continue
            sf, node = class_files[name]
            yield from self._check_semiring(sf, node, class_files,
                                            semirings, kernels, protocol)

    def _protocol(self, project: Project) -> frozenset[str]:
        base_sf = project.file("repro.semirings.base")
        if base_sf is None:
            return _VECTOR_PROTOCOL
        for node in base_sf.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "VectorizedOps":
                methods = frozenset(
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_"))
                return methods or _VECTOR_PROTOCOL
        return _VECTOR_PROTOCOL

    @staticmethod
    def _base_names(node: ast.ClassDef) -> list[str]:
        names = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                names.append(base.id)
            elif isinstance(base, ast.Attribute):
                names.append(base.attr)
        return names

    def _transitive_subclasses(self, class_files, root: str) -> set[str]:
        members = {root}
        changed = True
        while changed:
            changed = False
            for name, (_, node) in class_files.items():
                if name in members:
                    continue
                if members & set(self._base_names(node)):
                    members.add(name)
                    changed = True
        return members

    def _kernel_methods(self, project: Project,
                        class_files) -> dict[str, frozenset[str]]:
        """``kernel class → transitively defined public methods``."""
        vec_sf = project.file("repro.semirings._vectorized")
        if vec_sf is None:
            return {}
        local: dict[str, ast.ClassDef] = {
            node.name: node for node in vec_sf.tree.body
            if isinstance(node, ast.ClassDef)}
        resolved: dict[str, frozenset[str]] = {}

        def methods_of(name: str, seen: frozenset[str]) -> frozenset[str]:
            if name in resolved:
                return resolved[name]
            node = local.get(name)
            if node is None or name in seen:
                return frozenset()
            own = frozenset(item.name for item in node.body
                            if isinstance(item, ast.FunctionDef))
            inherited: frozenset[str] = frozenset()
            for base in self._base_names(node):
                inherited |= methods_of(base, seen | {name})
            resolved[name] = own | inherited
            return resolved[name]

        return {name: methods_of(name, frozenset()) for name in local}

    def _properties_call(self, node: ast.ClassDef,
                         class_files, semirings) -> ast.Call | None:
        """The class's ``SemiringProperties(...)`` call, searching the
        class body (and ``__init__``) then in-tree base classes."""
        for candidate in ast.walk(node):
            if (isinstance(candidate, ast.Call)
                    and isinstance(candidate.func, ast.Name)
                    and candidate.func.id == "SemiringProperties"):
                return candidate
        for base in self._base_names(node):
            if base in semirings and base in class_files:
                found = self._properties_call(class_files[base][1],
                                              class_files, semirings)
                if found is not None:
                    return found
        return None

    def _defines(self, node: ast.ClassDef, method: str,
                 class_files, semirings) -> bool:
        if any(isinstance(item, ast.FunctionDef) and item.name == method
               for item in node.body):
            return True
        return any(
            base in semirings and base in class_files
            and self._defines(class_files[base][1], method,
                              class_files, semirings)
            for base in self._base_names(node))

    def _check_semiring(self, sf: SourceFile, node: ast.ClassDef,
                        class_files, semirings, kernels,
                        protocol) -> Iterator[Finding]:
        poly_order = self._poly_order(node)
        if poly_order is not None:
            value, anchor = poly_order
            if value is None:
                pass  # explicit opt-out (poly_order = None)
            elif value not in self._KINDS:
                yield self.finding(
                    sf, anchor,
                    f"{node.name}: poly_order must be a literal in "
                    f"{sorted(self._KINDS)} (got {value!r}) — the "
                    f"certificate memo keys on the kind")
            else:
                properties = self._properties_call(node, class_files,
                                                   semirings)
                decidable = None
                if properties is not None:
                    for keyword in properties.keywords:
                        if keyword.arg == "poly_order_decidable":
                            decidable = (
                                keyword.value.value
                                if isinstance(keyword.value, ast.Constant)
                                else keyword.value)
                if decidable is not True:
                    yield self.finding(
                        sf, anchor,
                        f"{node.name}: declares poly_order={value!r} "
                        f"but its SemiringProperties does not set "
                        f"poly_order_decidable=True")
                if not self._defines(node, "poly_leq", class_files,
                                     semirings):
                    yield self.finding(
                        sf, anchor,
                        f"{node.name}: declares poly_order={value!r} "
                        f"but implements no poly_leq fallback — the "
                        f"certificate memo revalidates against it")
        hook = next((item for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name == "vectorized_ops"), None)
        if hook is not None:
            yield from self._check_vectorized(sf, node, hook, kernels,
                                              protocol)

    @staticmethod
    def _poly_order(node: ast.ClassDef):
        """``(value, anchor node)`` of the class's own declaration."""
        for item in node.body:
            if (isinstance(item, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "poly_order"
                            for t in item.targets)):
                value = (item.value.value
                         if isinstance(item.value, ast.Constant)
                         else object())
                return value, item
        for item in ast.walk(node):
            if (isinstance(item, ast.Assign)
                    and len(item.targets) == 1
                    and isinstance(item.targets[0], ast.Attribute)
                    and item.targets[0].attr == "poly_order"):
                value = (item.value.value
                         if isinstance(item.value, ast.Constant)
                         else object())
                return value, item
        return None

    def _check_vectorized(self, sf: SourceFile, cls: ast.ClassDef,
                          hook: ast.FunctionDef, kernels,
                          protocol) -> Iterator[Finding]:
        imported_kernels = {
            alias.asname or alias.name
            for node in ast.walk(hook)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.endswith("_vectorized")
            for alias in node.names}
        for ret in ast.walk(hook):
            if not isinstance(ret, ast.Return) or ret.value is None:
                continue
            value = ret.value
            if isinstance(value, ast.Constant) and value.value is None:
                continue  # the documented no-numpy fallback
            name = None
            if isinstance(value, ast.Name):
                name = value.id
            elif (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)):
                name = value.func.id
            if name is None:
                yield self.finding(
                    sf, ret,
                    f"{cls.name}.vectorized_ops: unanalyzable return — "
                    f"return a kernel class imported from "
                    f"semirings/_vectorized.py (or None)")
                continue
            if name not in imported_kernels:
                yield self.finding(
                    sf, ret,
                    f"{cls.name}.vectorized_ops returns {name}, which "
                    f"is not imported from semirings/_vectorized.py — "
                    f"kernels must live beside their exact fallbacks")
                continue
            if kernels and name not in kernels:
                yield self.finding(
                    sf, ret,
                    f"{cls.name}.vectorized_ops returns {name}, but "
                    f"semirings/_vectorized.py defines no such kernel")
                continue
            if kernels:
                missing = sorted(protocol - kernels[name])
                if missing:
                    yield self.finding(
                        sf, ret,
                        f"{cls.name}.vectorized_ops kernel {name} is "
                        f"missing VectorizedOps methods: "
                        f"{', '.join(missing)} — the columnar path "
                        f"would diverge from the exact fallback")


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
        parents = _parents(sf.tree)
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


@rule
class PickleBoundaryRule(Rule):
    """RL005: pool-crossing types restore through allowlisted callables.

    Every ``__reduce__`` must return a tuple whose restore callable the
    linter can see: a same-file class (the restricted unpickler admits
    any ``repro`` class) or a module-level function present in the
    snapshot unpickler's ``_ALLOWED_FUNCTIONS`` allowlist.  Classes
    shipping a ``_from_canonical`` fast restore must also define
    ``__reduce__`` (otherwise the pool boundary never uses it), and
    every allowlisted function name must actually exist.
    """

    id = "RL005"
    title = "pickle-boundary safety"

    def check(self, project: Project) -> Iterator[Finding]:
        snapshot_sf = project.file("repro.service.snapshot")
        allowlist, anchor = self._allowlist(snapshot_sf)
        module_functions: set[str] = set()
        for sf in project.files:
            module_functions.update(
                node.name for node in sf.tree.body
                if isinstance(node, ast.FunctionDef))
            yield from self._check_file(sf, allowlist)
        if allowlist is not None and snapshot_sf is not None:
            for name in sorted(allowlist - module_functions):
                yield self.finding(
                    snapshot_sf, anchor,
                    f"allowlisted restore function {name!r} does not "
                    f"exist as a module-level function anywhere under "
                    f"analysis")

    @staticmethod
    def _allowlist(sf: SourceFile | None
                   ) -> tuple[frozenset[str] | None, int]:
        if sf is None:
            return None, 1
        for node in ast.walk(sf.tree):
            if not (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name)
                            and t.id == "_ALLOWED_FUNCTIONS"
                            for t in node.targets)):
                continue
            value = node.value
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "frozenset" and value.args
                    and isinstance(value.args[0], (ast.Set, ast.Tuple,
                                                   ast.List))):
                names = frozenset(
                    element.value for element in value.args[0].elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str))
                return names, node.lineno
        return None, 1

    def _check_file(self, sf: SourceFile,
                    allowlist: frozenset[str] | None
                    ) -> Iterator[Finding]:
        local_functions = {node.name for node in sf.tree.body
                           if isinstance(node, ast.FunctionDef)}
        local_classes = {node.name for node in sf.tree.body
                         if isinstance(node, ast.ClassDef)}
        for cls in [node for node in ast.walk(sf.tree)
                    if isinstance(node, ast.ClassDef)]:
            reduce_def = next(
                (item for item in cls.body
                 if isinstance(item, ast.FunctionDef)
                 and item.name == "__reduce__"), None)
            has_fast_restore = any(
                isinstance(item, ast.FunctionDef)
                and item.name == "_from_canonical" for item in cls.body)
            if has_fast_restore and reduce_def is None:
                yield self.finding(
                    sf, cls,
                    f"{cls.name} defines _from_canonical but no "
                    f"__reduce__ — the pool boundary and snapshots "
                    f"will never use the fast restore path")
            if reduce_def is None:
                continue
            for ret in ast.walk(reduce_def):
                if not isinstance(ret, ast.Return) or ret.value is None:
                    continue
                yield from self._check_return(
                    sf, cls, ret, local_functions, local_classes,
                    allowlist)

    def _check_return(self, sf: SourceFile, cls: ast.ClassDef,
                      ret: ast.Return, local_functions, local_classes,
                      allowlist) -> Iterator[Finding]:
        value = ret.value
        if not (isinstance(value, ast.Tuple) and value.elts):
            yield self.finding(
                sf, ret,
                f"{cls.name}.__reduce__ must return a literal tuple "
                f"(restore_callable, args) the linter can check "
                f"against the snapshot unpickler allowlist")
            return
        head = value.elts[0]
        if not isinstance(head, ast.Name):
            yield self.finding(
                sf, ret,
                f"{cls.name}.__reduce__: unanalyzable restore callable "
                f"— use a module-level function or class name")
            return
        if head.id in local_classes or head.id == cls.name:
            return  # class-based restore: the unpickler admits classes
        if head.id in local_functions:
            if allowlist is not None and head.id not in allowlist:
                yield self.finding(
                    sf, ret,
                    f"{cls.name}.__reduce__ restores through "
                    f"{head.id}(), which is missing from the snapshot "
                    f"unpickler's _ALLOWED_FUNCTIONS allowlist — "
                    f"warm-start restores of this type will be "
                    f"rejected")
            return
        yield self.finding(
            sf, ret,
            f"{cls.name}.__reduce__ restores through {head.id}, which "
            f"is neither a module-level function nor a class of this "
            f"module — the linter cannot verify the unpickler admits "
            f"it")
