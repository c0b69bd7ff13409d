"""Project-wide call graph with import, alias and receiver typing.

The per-file rule (RL004) is a pattern check on one file at a time;
the dataflow rules (RL101–RL103) need to answer
*whole-project* questions — "is a blocking LP solve reachable from
this ``async def``?", "does the worker entry point touch a pre-fork
socket?" — which require following calls across modules, through
package re-exports, and through *methods* whose receiver type must be
inferred.  :class:`CallGraph` is that shared substrate:

* every module-level function, class and method under analysis becomes
  a node, identified as ``"module:Class.method"`` / ``"module:func"``
  (external callables keep their plain dotted name, ``"pickle.dump"``);
* class bases are resolved (project classes by qualname, external ones
  by dotted name) so method lookup can walk the MRO *and* — class
  hierarchy analysis — include subclass overrides, since a receiver's
  static type is often a base class;
* receiver types come from a deliberately small, high-precision
  inference: constructor calls, annotated parameters, and ``self.attr``
  assignments in ``__init__`` (ternaries and ``or``-defaults union both
  arms).  Anything else stays *untyped* and produces **no** edge — for
  lint rules a missing edge is a missed finding, never a false one.

Like everything in :mod:`repro.lint`, the graph is built purely from
the AST; nothing under analysis is imported.  Build cost is linear in
project size; :func:`get_call_graph` memoizes one graph per
:class:`~repro.lint.model.Project` so the RL1xx rules share it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .model import Project, SourceFile

__all__ = ["CallGraph", "CallSite", "ClassInfo", "FunctionInfo",
           "get_call_graph", "import_map", "resolve_relative"]

#: Builtin callables worth resolving by bare name (rules match on
#: these; everything else unresolved stays edge-less).
_BUILTIN_CALLS = frozenset({"open", "input", "print", "exec", "eval",
                            "compile", "iter", "next"})

#: Builtin container constructors, typed so method calls on them
#: resolve to harmless external ids instead of project methods.
_BUILTIN_TYPES = {"set": "builtins.set", "frozenset": "builtins.frozenset",
                  "dict": "builtins.dict", "list": "builtins.list",
                  "tuple": "builtins.tuple", "deque": "collections.deque"}

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def resolve_relative(module: str | None, is_package: bool,
                     node: ast.ImportFrom) -> str | None:
    """The absolute module an ``ImportFrom`` refers to."""
    if node.level == 0:
        return node.module
    if module is None:
        return None
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = node.level - 1
    if drop:
        parts = parts[:-drop] if drop < len(parts) else []
    if node.module:
        parts.extend(node.module.split("."))
    return ".".join(parts) if parts else None


def import_map(sf: SourceFile) -> dict[str, tuple[str, str | None]]:
    """``local alias → (origin module, symbol)`` for a file.

    ``symbol`` is ``None`` for whole-module imports (``import x.y``;
    ``from x import y_module`` is indistinguishable from a symbol
    import and recorded with its name).
    """
    is_package = sf.path.name == "__init__.py"
    mapping: dict[str, tuple[str, str | None]] = {}
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ImportFrom):
            origin = resolve_relative(sf.module, is_package, node)
            if origin is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = (origin, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    mapping[alias.asname] = (alias.name, None)
                else:
                    root = alias.name.split(".")[0]
                    mapping.setdefault(root, (root, None))
    return mapping


def _dotted(expr: ast.AST) -> str | None:
    """``"a.b.c"`` for a pure ``Name``/``Attribute`` chain, else None."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``targets`` are the candidate callees: project ids
    (``"module:Class.method"``) and/or external dotted names.  Empty
    when the receiver could not be typed — rules treat that as "no
    information", never as a violation.
    """

    node: ast.Call
    targets: tuple[str, ...]


@dataclass
class FunctionInfo:
    """One function or method node of the graph."""

    qualname: str                 # "module:func" / "module:Class.method"
    module: str
    name: str
    sf: SourceFile
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None        # owning class qualname ("module:Class")
    is_async: bool = False


@dataclass
class ClassInfo:
    """One class node: resolved bases, methods and inferred attr types."""

    qualname: str                 # "module:Class"
    name: str
    module: str
    sf: SourceFile
    node: ast.ClassDef
    bases: tuple[str, ...] = ()   # class qualnames or external dotted names
    methods: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, frozenset[str]] = field(default_factory=dict)


class CallGraph:
    """Functions, classes, typed attributes and resolved call edges."""

    def __init__(self, project: Project):
        self.project = project
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.calls: dict[str, tuple[CallSite, ...]] = {}
        self._imports: dict[str, dict[str, tuple[str, str | None]]] = {}
        self._module_functions: dict[str, set[str]] = {}
        self._module_classes: dict[str, set[str]] = {}
        self._subclasses: dict[str, set[str]] = {}
        self._build()

    # -- construction --------------------------------------------------

    @staticmethod
    def _module_of(sf: SourceFile) -> str:
        return sf.module if sf.module is not None else sf.display

    def _build(self) -> None:
        for sf in self.project.files:
            module = self._module_of(sf)
            self._imports[module] = import_map(sf)
            self._module_functions[module] = set()
            self._module_classes[module] = set()
            self._register_scope(sf, module, sf.tree.body, prefix="",
                                 cls=None)
        self._resolve_bases()
        self._infer_attr_types()
        for info in self.functions.values():
            self.calls[info.qualname] = tuple(self._collect_calls(info))

    def _register_scope(self, sf: SourceFile, module: str, body,
                        prefix: str, cls: str | None) -> None:
        for node in body:
            if isinstance(node, _FUNCTION_DEFS):
                name = prefix + node.name
                qualname = f"{module}:{name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=module, name=node.name,
                    sf=sf, node=node, cls=cls,
                    is_async=isinstance(node, ast.AsyncFunctionDef))
                if not prefix:
                    self._module_functions[module].add(node.name)
                # Nested defs become their own nodes (their calls must
                # not be attributed to the enclosing function).
                self._register_scope(sf, module, node.body,
                                     prefix=name + ".", cls=cls)
            elif isinstance(node, ast.ClassDef) and not prefix:
                class_id = f"{module}:{node.name}"
                info = ClassInfo(qualname=class_id, name=node.name,
                                 module=module, sf=sf, node=node)
                self.classes[class_id] = info
                self._module_classes[module].add(node.name)
                for item in node.body:
                    if isinstance(item, _FUNCTION_DEFS):
                        method_id = f"{module}:{node.name}.{item.name}"
                        info.methods[item.name] = method_id
                        self.functions[method_id] = FunctionInfo(
                            qualname=method_id, module=module,
                            name=item.name, sf=sf, node=item, cls=class_id,
                            is_async=isinstance(item, ast.AsyncFunctionDef))
                        self._register_scope(
                            sf, module, item.body,
                            prefix=f"{node.name}.{item.name}.",
                            cls=class_id)

    # -- symbol resolution ---------------------------------------------

    def _resolve_symbol(self, module: str, name: str,
                        depth: int = 0) -> tuple[str, str] | None:
        """``(kind, id)`` for ``name`` looked up in ``module``.

        Kinds: ``"func"``/``"class"`` (project ids), ``"module"`` (a
        project module's dotted name) or ``"external"`` (dotted name).
        Follows one-hop-at-a-time package re-exports up to 8 levels.
        """
        if depth > 8:
            return None
        if module in self._module_functions:
            if name in self._module_functions[module]:
                return ("func", f"{module}:{name}")
            if name in self._module_classes[module]:
                return ("class", f"{module}:{name}")
            submodule = f"{module}.{name}"
            if submodule in self._module_functions:
                return ("module", submodule)
            entry = self._imports[module].get(name)
            if entry is not None:
                origin, symbol = entry
                if symbol is None:
                    return ("module", origin) \
                        if origin in self._module_functions \
                        else ("external", origin)
                return self._resolve_symbol(origin, symbol, depth + 1)
            return None  # project module, but the symbol is not visible
        return ("external", f"{module}.{name}")

    def _class_id_for(self, sf: SourceFile, name: str) -> str | None:
        """The type id a bare name refers to, or None."""
        module = self._module_of(sf)
        if name in self._module_classes.get(module, ()):
            return f"{module}:{name}"
        entry = self._imports.get(module, {}).get(name)
        if entry is not None:
            origin, symbol = entry
            if symbol is None:
                return None
            resolved = self._resolve_symbol(origin, symbol)
            if resolved is not None and resolved[0] in ("class",
                                                        "external"):
                return resolved[1]
            return None
        return _BUILTIN_TYPES.get(name)

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            bases: list[str] = []
            for base in info.node.bases:
                resolved = None
                if isinstance(base, ast.Name):
                    resolved = self._class_id_for(info.sf, base.id)
                elif isinstance(base, ast.Attribute):
                    resolved = self._resolve_dotted(info.sf, base)
                if resolved is not None:
                    bases.append(resolved)
                    if ":" in resolved:
                        self._subclasses.setdefault(
                            resolved, set()).add(info.qualname)
            info.bases = tuple(bases)

    def _resolve_dotted(self, sf: SourceFile,
                        expr: ast.AST) -> str | None:
        """Resolve an ``a.b.c`` chain to a class/function/external id."""
        dotted = _dotted(expr)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        module = self._module_of(sf)
        entry = self._imports.get(module, {}).get(head)
        if entry is None:
            return None
        origin, symbol = entry
        current = origin if symbol is None else None
        if current is None:
            resolved = self._resolve_symbol(origin, symbol)
            if resolved is None:
                return None
            kind, ident = resolved
            if kind != "module":
                return ident if not rest else None
            current = ident
        if not rest:
            return None
        parts = rest.split(".")
        for index, part in enumerate(parts):
            last = index == len(parts) - 1
            resolved = self._resolve_symbol(current, part)
            if resolved is None:
                return None
            kind, ident = resolved
            if kind == "module":
                current = ident
                if last:
                    return None
                continue
            return ident if last else None
        return None

    def resolve_value(self, sf: SourceFile,
                      expr: ast.AST) -> str | None:
        """The id a bare ``Name``/``Attribute`` expression denotes in
        ``sf`` (class, function or external dotted name), or None.

        Used by rules that classify constructor calls outside normal
        call-edge collection (e.g. RL102 typing module-level globals).
        """
        if isinstance(expr, ast.Name):
            ident = self._class_id_for(sf, expr.id)
            if ident is not None:
                return ident
            module = self._module_of(sf)
            entry = self._imports.get(module, {}).get(expr.id)
            if entry is not None and entry[1] is not None:
                resolved = self._resolve_symbol(*entry)
                return resolved[1] if resolved is not None else None
            if expr.id in _BUILTIN_CALLS and entry is None \
                    and expr.id not in self._module_functions.get(module,
                                                                  ()):
                return expr.id
            return None
        if isinstance(expr, ast.Attribute):
            return self._resolve_dotted(sf, expr)
        return None

    # -- class queries --------------------------------------------------

    def mro(self, class_id: str) -> list[str]:
        """The project-visible linearization of ``class_id``."""
        order: list[str] = []
        stack = [class_id]
        seen: set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            info = self.classes.get(current)
            if info is not None:
                stack.extend(info.bases)
        return order

    def subclasses(self, class_id: str) -> set[str]:
        """Every transitive project subclass of ``class_id``."""
        found: set[str] = set()
        stack = [class_id]
        while stack:
            for sub in self._subclasses.get(stack.pop(), ()):
                if sub not in found:
                    found.add(sub)
                    stack.append(sub)
        return found

    def lookup_method(self, class_id: str, name: str) -> tuple[str, ...]:
        """Candidate implementations of ``obj.name()`` for a receiver
        statically typed ``class_id``: the MRO match plus — class
        hierarchy analysis — every subclass override."""
        if ":" not in class_id:
            return (f"{class_id}.{name}",)
        targets: list[str] = []
        for ancestor in self.mro(class_id):
            info = self.classes.get(ancestor)
            if info is None:
                if "." in ancestor or ancestor.startswith("builtins"):
                    continue
                continue
            method = info.methods.get(name)
            if method is not None:
                targets.append(method)
                break
        for sub in self.subclasses(class_id):
            method = self.classes[sub].methods.get(name)
            if method is not None and method not in targets:
                targets.append(method)
        return tuple(targets)

    def class_attr_types(self, class_id: str,
                         attr: str) -> frozenset[str]:
        """Inferred types of ``self.attr`` on ``class_id`` (MRO union)."""
        found: set[str] = set()
        for ancestor in self.mro(class_id):
            info = self.classes.get(ancestor)
            if info is not None:
                found |= info.attr_types.get(attr, frozenset())
        return frozenset(found)

    # -- type inference --------------------------------------------------

    def _annotation_types(self, sf: SourceFile,
                          annotation: ast.AST | None) -> frozenset[str]:
        """Class ids an annotation may denote (``None`` arms dropped)."""
        if annotation is None:
            return frozenset()
        if isinstance(annotation, ast.Constant):
            return frozenset()  # string annotations are not chased
        if isinstance(annotation, ast.BinOp) \
                and isinstance(annotation.op, ast.BitOr):
            return (self._annotation_types(sf, annotation.left)
                    | self._annotation_types(sf, annotation.right))
        if isinstance(annotation, ast.Subscript):
            # Optional[X] / Union[X, Y]: type arguments carry the info.
            value = annotation.slice
            if isinstance(value, ast.Tuple):
                types: frozenset[str] = frozenset()
                for element in value.elts:
                    types |= self._annotation_types(sf, element)
                return types
            return self._annotation_types(sf, value)
        if isinstance(annotation, ast.Name):
            if annotation.id == "None":
                return frozenset()
            ident = self._class_id_for(sf, annotation.id)
            return frozenset((ident,)) if ident else frozenset()
        if isinstance(annotation, ast.Attribute):
            ident = self._resolve_dotted(sf, annotation)
            return frozenset((ident,)) if ident else frozenset()
        return frozenset()

    def _expr_types(self, sf: SourceFile, expr: ast.AST,
                    env: dict[str, frozenset[str]],
                    cls: str | None) -> frozenset[str]:
        """Conservative value typing: constructors, typed names, unions."""
        if isinstance(expr, ast.Call):
            ident = None
            if isinstance(expr.func, ast.Name):
                ident = self._class_id_for(sf, expr.func.id)
            elif isinstance(expr.func, ast.Attribute):
                ident = self._resolve_dotted(sf, expr.func)
            if ident is not None:
                is_class = (ident in self.classes if ":" in ident
                            else ident[:1].isupper()
                            or ident in _BUILTIN_TYPES.values()
                            or ident.rsplit(".", 1)[-1][:1].isupper())
                if is_class:
                    return frozenset((ident,))
            return frozenset()
        if isinstance(expr, ast.Name):
            return env.get(expr.id, frozenset())
        if isinstance(expr, ast.IfExp):
            return (self._expr_types(sf, expr.body, env, cls)
                    | self._expr_types(sf, expr.orelse, env, cls))
        if isinstance(expr, ast.BoolOp):
            types: frozenset[str] = frozenset()
            for value in expr.values:
                types |= self._expr_types(sf, value, env, cls)
            return types
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" and cls is not None:
            return self.class_attr_types(cls, expr.attr)
        return frozenset()

    def _parameter_env(self, info: FunctionInfo
                       ) -> dict[str, frozenset[str]]:
        env: dict[str, frozenset[str]] = {}
        args = info.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            types = self._annotation_types(info.sf, arg.annotation)
            if types:
                env[arg.arg] = types
        return env

    def _infer_attr_types(self) -> None:
        """``self.attr`` types from every method body (union across
        assignments; constructor calls and annotated params only)."""
        for info in self.classes.values():
            for method_name, method_id in info.methods.items():
                method = self.functions[method_id]
                env = self._parameter_env(method)
                for node in ast.walk(method.node):
                    target = value = None
                    if isinstance(node, ast.Assign) \
                            and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    types = frozenset()
                    if isinstance(node, ast.AnnAssign):
                        types |= self._annotation_types(info.sf,
                                                        node.annotation)
                    if value is not None:
                        types |= self._expr_types(info.sf, value, env,
                                                  info.qualname)
                    if types:
                        merged = info.attr_types.get(target.attr,
                                                     frozenset())
                        info.attr_types[target.attr] = merged | types

    # -- call collection --------------------------------------------------

    def _local_env(self, info: FunctionInfo) -> dict[str, frozenset[str]]:
        """Parameter + straight-line local variable types."""
        env = self._parameter_env(info)
        for node in self._own_nodes(info.node):
            target = value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if not isinstance(target, ast.Name):
                continue
            types = frozenset()
            if isinstance(node, ast.AnnAssign):
                types |= self._annotation_types(info.sf, node.annotation)
            if value is not None:
                types |= self._expr_types(info.sf, value, env, info.cls)
            if types:
                env[target.id] = env.get(target.id, frozenset()) | types
        return env

    @staticmethod
    def _own_nodes(func: ast.AST):
        """Walk a function body, skipping nested function/lambda scopes
        (their calls belong to their own graph nodes, and a lambda's
        body does not run where it is defined)."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (*_FUNCTION_DEFS, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _collect_calls(self, info: FunctionInfo) -> list[CallSite]:
        env = self._local_env(info)
        nested = {node.name: f"{info.qualname.split(':', 1)[1]}.{node.name}"
                  for node in ast.walk(info.node)
                  if isinstance(node, _FUNCTION_DEFS) and node is not info.node}
        sites = []
        for node in self._own_nodes(info.node):
            if isinstance(node, ast.Call):
                targets = self._resolve_call(info, env, nested, node)
                sites.append(CallSite(node=node, targets=targets))
        return sites

    def _resolve_call(self, info: FunctionInfo,
                      env: dict[str, frozenset[str]],
                      nested: dict[str, str],
                      call: ast.Call) -> tuple[str, ...]:
        sf, module, cls = info.sf, info.module, info.cls
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in nested:
                return (f"{module}:{nested[name]}",)
            if name in self._module_functions.get(module, ()):
                return (f"{module}:{name}",)
            ident = self._class_id_for(sf, name)
            if ident is not None:
                return self._constructor_targets(ident)
            entry = self._imports.get(module, {}).get(name)
            if entry is not None and entry[1] is not None:
                resolved = self._resolve_symbol(*entry)
                if resolved is None:
                    return ()
                kind, target = resolved
                if kind == "func":
                    return (target,)
                if kind == "class":
                    return self._constructor_targets(target)
                if kind == "external":
                    return (target,)
                return ()
            if name in _BUILTIN_CALLS and entry is None:
                return (name,)
            return ()
        if isinstance(func, ast.Attribute):
            method = func.attr
            value = func.value
            dotted = self._resolve_dotted(sf, func)
            if dotted is not None:
                if ":" in dotted:
                    kind = ("class" if dotted in self.classes else "func")
                    return ((dotted,) if kind == "func"
                            else self._constructor_targets(dotted))
                return (dotted,)
            if isinstance(value, ast.Name):
                if value.id == "self" and cls is not None:
                    return self.lookup_method(cls, method)
                receiver = env.get(value.id, frozenset())
                receiver |= frozenset(
                    filter(None, (self._class_id_for(sf, value.id),))
                ) if value.id not in env else frozenset()
                return self._method_targets(receiver, method)
            if isinstance(value, ast.Attribute) \
                    and isinstance(value.value, ast.Name) \
                    and value.value.id == "self" and cls is not None:
                receiver = self.class_attr_types(cls, value.attr)
                return self._method_targets(receiver, method)
            if isinstance(value, ast.Call):
                receiver = self._expr_types(sf, value, env, cls)
                return self._method_targets(receiver, method)
        return ()

    def _method_targets(self, receiver: frozenset[str],
                        method: str) -> tuple[str, ...]:
        targets: list[str] = []
        for type_id in receiver:
            for target in self.lookup_method(type_id, method):
                if target not in targets:
                    targets.append(target)
        return tuple(targets)

    def _constructor_targets(self, class_id: str) -> tuple[str, ...]:
        """Calling a class runs ``__init__`` (when the project has it)."""
        if ":" not in class_id:
            return (class_id,)
        targets = [t for t in self.lookup_method(class_id, "__init__")]
        return tuple(targets)

    # -- reachability ------------------------------------------------------

    def reachable(self, roots) -> set[str]:
        """Every project function reachable from ``roots`` (inclusive)."""
        seen: set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for site in self.calls.get(current, ()):
                for target in site.targets:
                    if target in self.functions and target not in seen:
                        stack.append(target)
        return seen


def get_call_graph(project: Project) -> CallGraph:
    """The memoized :class:`CallGraph` of ``project`` (built once; the
    RL1xx rules all share it)."""
    graph = getattr(project, "_callgraph", None)
    if graph is None or graph.project is not project:
        graph = CallGraph(project)
        project._callgraph = graph
    return graph
