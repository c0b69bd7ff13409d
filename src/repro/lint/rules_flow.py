"""The interprocedural dataflow rules (RL101–RL103).

Built on the call graph (:mod:`repro.lint.callgraph`), per-function
CFGs (:mod:`repro.lint.cfg`) and the forward taint engine
(:mod:`repro.lint.dataflow`):

* **RL101** — async-blocking: a call transitively reachable from an
  ``async def`` that may block the event loop (LP solves, homomorphism
  search, pickle/snapshot I/O, synchronous socket/file/lock/queue ops)
  unless routed through an executor.  Passing a *reference* to
  ``run_in_executor`` creates no call edge, so the executor pattern is
  clean by construction.
* **RL102** — fork-safety: locks, sockets, file handles and numpy
  ``Generator`` objects created before a ``Process(target=...)`` fork
  and referenced inside worker-side code paths (the checked
  generalization of the inherited-socket FIN hang fixed by
  ``_close_inherited_sockets``).
* **RL103** — shared-state ownership: mutations of attributes carrying
  a ``# repro-lint: owner=`` annotation outside their declared owner
  methods, with CFG-based alias tracking (``home = self._home[i];
  home.pop()`` is still a mutation of ``self._home``).

All three are pure AST analyses; the shared call graph is built once
per project and memoized.  An unresolved receiver or import produces
*no* edge and therefore no finding — the rules err toward silence,
never toward fabricated violations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from .callgraph import CallGraph, FunctionInfo, get_call_graph
from .cfg import build_cfg
from .dataflow import (MUTATOR_METHODS, REMOVAL_METHODS, TaintAnalysis,
                       run_forward)
from .model import Finding, Project, Rule, SourceFile, rule

__all__ = ["AsyncBlockingRule", "ForkSafetyRule", "OwnershipRule"]

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _short(qualname: str) -> str:
    """``module:Class.method`` → ``Class.method`` for messages."""
    return qualname.split(":", 1)[-1]


def _walk_scope(root: ast.AST):
    """Walk a subtree without descending into nested function or
    lambda scopes (their bodies do not execute here)."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node is not root and isinstance(node, (*_FUNCTION_DEFS,
                                                  ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _stmt_exprs(stmt: ast.stmt):
    """The expressions evaluated *at* a CFG statement.

    Compound statements appear in a block as their whole AST node while
    their bodies live in other blocks; yielding only the header
    expressions here keeps per-statement scans from double-visiting
    body code.
    """
    if isinstance(stmt, (*_FUNCTION_DEFS, ast.ClassDef, ast.Try)):
        return
    if isinstance(stmt, ast.ExceptHandler):
        return
    if isinstance(stmt, (ast.If, ast.While)):
        yield stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.iter
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
    else:
        yield stmt


def _container_root(expr: ast.AST) -> ast.AST:
    """Strip subscripts: ``self._home[i]`` → the ``self._home`` node."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


# ---------------------------------------------------------------------------
# RL101 — async-blocking
# ---------------------------------------------------------------------------

#: External callables that may block the event loop, with the reason
#: reported to the user.  Method entries use the receiver's resolved
#: type (``threading.Condition.wait``), so an untyped receiver never
#: produces a finding.
_BLOCKING: dict[str, str] = {
    "open": "synchronous file I/O",
    "input": "blocking console input",
    "time.sleep": "a synchronous sleep",
    "pickle.dump": "pickle snapshot I/O",
    "pickle.load": "pickle snapshot I/O",
    "pickle.dumps": "pickle serialization (CPU-bound)",
    "pickle.loads": "pickle deserialization (CPU-bound)",
    "subprocess.run": "a subprocess wait",
    "subprocess.call": "a subprocess wait",
    "subprocess.check_call": "a subprocess wait",
    "subprocess.check_output": "a subprocess wait",
    "os.system": "a subprocess wait",
    "shutil.copyfile": "synchronous file I/O",
    "socket.create_connection": "a blocking socket connect",
    "socket.getaddrinfo": "a blocking DNS lookup",
    "socket.gethostbyname": "a blocking DNS lookup",
    "urllib.request.urlopen": "a blocking HTTP request",
    "threading.Condition.wait": "waiting on a threading.Condition",
    "threading.Condition.wait_for": "waiting on a threading.Condition",
    "threading.Event.wait": "waiting on a threading.Event",
    "threading.Lock.acquire": "a lock acquire",
    "threading.RLock.acquire": "a lock acquire",
    "threading.Semaphore.acquire": "a semaphore acquire",
    "threading.BoundedSemaphore.acquire": "a semaphore acquire",
    "threading.Thread.join": "a thread join",
    "queue.Queue.get": "a blocking queue get",
    "queue.Queue.put": "a blocking queue put",
    "queue.SimpleQueue.get": "a blocking queue get",
    "multiprocessing.Queue.get": "a blocking queue get",
    "multiprocessing.Queue.put": "a blocking queue put",
    "multiprocessing.SimpleQueue.get": "a blocking queue get",
    "socket.socket.recv": "blocking socket I/O",
    "socket.socket.recv_into": "blocking socket I/O",
    "socket.socket.send": "blocking socket I/O",
    "socket.socket.sendall": "blocking socket I/O",
    "socket.socket.accept": "a blocking socket accept",
    "socket.socket.connect": "a blocking socket connect",
    "socket.socket.makefile": "blocking socket I/O",
}

#: Project functions that are CPU-bound enough to count as blocking on
#: an event loop even though they never hit a syscall, keyed by
#: ``(module prefix, function name)``: the exhaustive homomorphism
#: search and the exact tropical-order solve.
_CPU_BOUND: dict[tuple[str, str], str] = {
    ("repro.homomorphisms", "find_homomorphism"): "exhaustive hom search",
    ("repro.homomorphisms", "homomorphism_mappings"):
        "exhaustive hom search",
    ("repro.homomorphisms", "hom_kernels"): "exhaustive hom search",
    ("repro.polynomials.tropical_order", "decide_poly_leq"):
        "an exact LP solve",
}


@rule
class AsyncBlockingRule(Rule):
    """RL101: no may-block call on an event-loop code path.

    A fixpoint over the call graph marks every *sync* project function
    from which a blocking external call is reachable (async callees do
    not propagate — awaiting them suspends rather than blocks).  Any
    direct call from an ``async def`` to a blocking external or to a
    marked sync function is flagged, with the offending chain spelled
    out.  Blocking work handed to ``run_in_executor`` as a function
    reference is invisible to call-edge collection and thus clean.
    """

    id = "RL101"
    title = "async-blocking"

    def check(self, project: Project) -> Iterator[Finding]:
        graph = get_call_graph(project)
        chains = self._blocking_chains(graph)
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if not info.is_async:
                continue
            seen: set[tuple[int, str]] = set()
            for site in graph.calls.get(qualname, ()):
                for target in site.targets:
                    message = self._describe(graph, chains, target)
                    if message is None:
                        continue
                    key = (site.node.lineno, target)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding(
                        info.sf, site.node,
                        f"async def {info.name} {message} — the event "
                        f"loop stalls for its duration; route it "
                        f"through loop.run_in_executor (pass the "
                        f"callable, do not call it)")

    def _describe(self, graph: CallGraph, chains: dict[str, tuple[str, ...]],
                  target: str) -> str | None:
        reason = _BLOCKING.get(target)
        if reason is not None:
            return f"directly performs {reason} via {target}()"
        info = graph.functions.get(target)
        if info is None or info.is_async:
            return None
        chain = chains.get(target)
        if chain is None:
            return None
        return (f"calls {_short(target)}(), which may block "
                f"({' -> '.join(chain)})")

    def _blocking_chains(self, graph: CallGraph
                         ) -> dict[str, tuple[str, ...]]:
        """``sync function → chain of names ending at the blocking
        call`` for every may-block project function."""
        chains: dict[str, tuple[str, ...]] = {}
        callers: dict[str, list[str]] = {}
        worklist: list[str] = []
        for qualname, sites in graph.calls.items():
            if graph.functions[qualname].is_async:
                continue
            for site in sites:
                for target in site.targets:
                    if target in graph.functions:
                        callers.setdefault(target, []).append(qualname)
                    elif qualname not in chains and target in _BLOCKING:
                        chains[qualname] = (_short(qualname),
                                            f"{target}()")
                        worklist.append(qualname)
        for qualname, info in graph.functions.items():
            if qualname in chains or info.is_async:
                continue
            for (prefix, name), reason in _CPU_BOUND.items():
                if info.name == name and info.module.startswith(prefix):
                    chains[qualname] = (_short(qualname), reason)
                    worklist.append(qualname)
                    break
        while worklist:
            current = worklist.pop()
            for caller in callers.get(current, ()):
                if caller in chains or graph.functions[caller].is_async:
                    continue
                chains[caller] = (_short(caller),) + chains[current]
                worklist.append(caller)
        return chains


# ---------------------------------------------------------------------------
# RL102 — fork-safety
# ---------------------------------------------------------------------------

#: Constructors whose products must not cross a fork boundary.
_RISKY_CTORS: dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "condition variable",
    "threading.Event": "event",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "socket.create_server": "listening socket",
    "open": "open file handle",
    "io.open": "open file handle",
    "numpy.random.default_rng": "numpy random Generator",
    "numpy.random.Generator": "numpy random Generator",
}


@dataclass
class _RiskyAttr:
    kind: str
    creator: str  # qualname of the creating method
    line: int


@rule
class ForkSafetyRule(Rule):
    """RL102: pre-fork resources must not be touched post-fork.

    Finds every ``Process(target=...)`` spawn, resolves the target
    (module function or ``self._method``) and computes the worker-side
    function set as everything call-graph-reachable from it.  A
    violation is a worker-side reference to a lock/socket/file/numpy
    Generator that was created *outside* the worker set — on a module
    global or a ``self`` attribute — or such an object passed through
    the spawn's ``args=``.  Resources created inside worker-side code
    (post-fork) are exempt.
    """

    id = "RL102"
    title = "fork-safety"

    def check(self, project: Project) -> Iterator[Finding]:
        graph = get_call_graph(project)
        fork_sites = self._fork_sites(graph)
        if not fork_sites:
            return
        worker = graph.reachable(
            target for _, _, targets in fork_sites for target in targets)
        risky_attrs = self._risky_attrs(graph)
        risky_globals = self._risky_globals(graph)
        for qualname in sorted(worker):
            yield from self._check_worker(graph, graph.functions[qualname],
                                          worker, risky_attrs,
                                          risky_globals)
        for info, call, _targets in fork_sites:
            yield from self._check_args(graph, info, call, risky_attrs,
                                        risky_globals)

    # -- collection ----------------------------------------------------

    def _fork_sites(self, graph: CallGraph
                    ) -> list[tuple[FunctionInfo, ast.Call, tuple[str, ...]]]:
        """Every ``...Process(target=..., ...)`` call, with the spawn
        target resolved to project functions."""
        sites = []
        for qualname, call_sites in graph.calls.items():
            info = graph.functions[qualname]
            for site in call_sites:
                call = site.node
                func = call.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name != "Process":
                    continue
                target_expr = next((kw.value for kw in call.keywords
                                    if kw.arg == "target"), None)
                if target_expr is None:
                    continue
                targets = self._spawn_targets(graph, info, target_expr)
                sites.append((info, call, targets))
        return sites

    @staticmethod
    def _spawn_targets(graph: CallGraph, info: FunctionInfo,
                       expr: ast.AST) -> tuple[str, ...]:
        if isinstance(expr, ast.Name):
            resolved = graph.resolve_value(info.sf, expr)
            if resolved is not None and resolved in graph.functions:
                return (resolved,)
            local = f"{info.module}:{expr.id}"
            if local in graph.functions:
                return (local,)
            return ()
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" and info.cls is not None:
            return graph.lookup_method(info.cls, expr.attr)
        return ()

    def _risky_attrs(self, graph: CallGraph
                     ) -> dict[tuple[str, str], _RiskyAttr]:
        """``(class id, attr) → risky resource`` from every
        ``self.X = <risky ctor>()`` assignment."""
        found: dict[tuple[str, str], _RiskyAttr] = {}
        for class_id, cls in graph.classes.items():
            for method_id in cls.methods.values():
                method = graph.functions[method_id]
                for node in _walk_scope(method.node):
                    target = value = None
                    if isinstance(node, ast.Assign) \
                            and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and isinstance(value, ast.Call)):
                        continue
                    kind = self._ctor_kind(graph, method.sf, value)
                    if kind is not None:
                        found.setdefault(
                            (class_id, target.attr),
                            _RiskyAttr(kind=kind, creator=method_id,
                                       line=node.lineno))
        return found

    def _risky_globals(self, graph: CallGraph
                       ) -> dict[tuple[str, str], tuple[str, int]]:
        """``(module, name) → (kind, line)`` for module-level risky
        objects (created at import time, hence always pre-fork)."""
        found: dict[tuple[str, str], tuple[str, int]] = {}
        for sf in graph.project.files:
            module = graph._module_of(sf)
            for node in sf.tree.body:
                if not (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)):
                    continue
                kind = self._ctor_kind(graph, sf, node.value)
                if kind is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        found[(module, target.id)] = (kind, node.lineno)
        return found

    @staticmethod
    def _ctor_kind(graph: CallGraph, sf: SourceFile,
                   call: ast.Call) -> str | None:
        ident = graph.resolve_value(sf, call.func)
        return _RISKY_CTORS.get(ident) if ident is not None else None

    # -- checking ------------------------------------------------------

    def _check_worker(self, graph: CallGraph, info: FunctionInfo,
                      worker: set[str],
                      risky_attrs: dict[tuple[str, str], _RiskyAttr],
                      risky_globals) -> Iterator[Finding]:
        seen: set[tuple[int, str]] = set()
        imports = graph._imports.get(info.module, {})
        for node in _walk_scope(info.node):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self" and info.cls is not None:
                for ancestor in graph.mro(info.cls):
                    risky = risky_attrs.get((ancestor, node.attr))
                    if risky is None or risky.creator in worker:
                        continue
                    key = (node.lineno, node.attr)
                    if key in seen:
                        break
                    seen.add(key)
                    yield self.finding(
                        info.sf, node,
                        f"worker-side {_short(info.qualname)} uses "
                        f"self.{node.attr}, a {risky.kind} created "
                        f"pre-fork in {_short(risky.creator)} "
                        f"(line {risky.line}) — state inherited across "
                        f"fork() deadlocks or leaks descriptors; "
                        f"create it post-fork or close it in the "
                        f"worker (as _close_inherited_sockets does)")
                    break
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                origin = (info.module, node.id)
                entry = imports.get(node.id)
                if entry is not None and entry[1] is not None:
                    origin = (entry[0], entry[1])
                risky_global = risky_globals.get(origin)
                if risky_global is None:
                    continue
                kind, line = risky_global
                key = (node.lineno, node.id)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    info.sf, node,
                    f"worker-side {_short(info.qualname)} uses module "
                    f"global {node.id!r}, a {kind} created at import "
                    f"time ({origin[0]}:{line}) and inherited across "
                    f"fork() — create it inside the worker instead")

    def _check_args(self, graph: CallGraph, info: FunctionInfo,
                    call: ast.Call, risky_attrs,
                    risky_globals) -> Iterator[Finding]:
        args_expr = next((kw.value for kw in call.keywords
                          if kw.arg == "args"), None)
        if args_expr is None:
            return
        imports = graph._imports.get(info.module, {})
        for node in _walk_scope(args_expr):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self" and info.cls is not None:
                for ancestor in graph.mro(info.cls):
                    risky = risky_attrs.get((ancestor, node.attr))
                    if risky is not None:
                        yield self.finding(
                            info.sf, call,
                            f"fork target receives pre-fork "
                            f"{risky.kind} self.{node.attr} via args= "
                            f"— it is captured before fork(); pass "
                            f"fork-safe handles and construct the "
                            f"resource in the worker")
                        break
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                origin = (info.module, node.id)
                entry = imports.get(node.id)
                if entry is not None and entry[1] is not None:
                    origin = (entry[0], entry[1])
                risky_global = risky_globals.get(origin)
                if risky_global is not None:
                    yield self.finding(
                        info.sf, call,
                        f"fork target receives module-level "
                        f"{risky_global[0]} {node.id!r} via args= — "
                        f"construct the resource in the worker instead")


# ---------------------------------------------------------------------------
# RL103 — shared-state ownership
# ---------------------------------------------------------------------------

_MUTATORS = MUTATOR_METHODS | REMOVAL_METHODS


@dataclass
class _OwnedDecl:
    """One ``# repro-lint: owner=`` annotated attribute declaration."""

    class_id: str
    class_name: str
    attr: str
    owners: tuple[str, ...]
    method: str  # name of the declaring method (always allowed)
    sf: SourceFile
    line: int


class _AliasTaint(TaintAnalysis):
    """Taint whose sources are loads of owned ``self`` attributes —
    turning the dataflow engine into an alias tracker for RL103.

    Aliasing only survives *access paths*: a bare load
    (``home = self._home``), a subscript (``home = self._home[i]`` —
    the supervisor's per-shard deque idiom), or a ternary/``or`` of
    those.  A call result is a new object (``dict(self._counts)`` is a
    copy, not the counter table), loop variables are elements rather
    than the container, and mutator arguments do not alias their
    receiver — each of these would otherwise flag reads as mutations.
    """

    def __init__(self, owned: frozenset[str]):
        super().__init__({})
        self._owned = owned

    def extra_sources(self, expr: ast.expr) -> frozenset[str]:
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" and expr.attr in self._owned:
            return frozenset((expr.attr,))
        return frozenset()

    def assign_taint(self, expr: ast.expr, state: dict
                     ) -> frozenset[str]:
        if isinstance(expr, ast.Name):
            return state.get(expr.id, frozenset())
        if isinstance(expr, ast.Attribute):
            return self.extra_sources(expr)
        if isinstance(expr, ast.Subscript):
            return self.assign_taint(expr.value, state)
        if isinstance(expr, ast.IfExp):
            return (self.assign_taint(expr.body, state)
                    | self.assign_taint(expr.orelse, state))
        if isinstance(expr, ast.BoolOp):
            taint: frozenset[str] = frozenset()
            for value in expr.values:
                taint |= self.assign_taint(value, state)
            return taint
        return frozenset()

    def element_taint(self, expr: ast.expr, state: dict
                      ) -> frozenset[str]:
        return frozenset()


@rule
class OwnershipRule(Rule):
    """RL103: annotated shared state mutates only inside its owners.

    An attribute declared with ``# repro-lint: owner=a,b`` may be
    mutated only by the declaring method and the methods named in the
    annotation.  Mutations are attribute rebinds, subscript stores,
    ``del``, augmented assignment, and in-place mutator calls
    (``append``/``pop``/``update``/``put``/...), including through
    local aliases recovered by CFG-based taint.  ``self``-rooted
    mutations match declarations of the same class hierarchy only;
    mutations through other objects match the attribute name anywhere
    (catching ``pool.metrics._counts[...] = ...`` from outside).
    """

    id = "RL103"
    title = "shared-state ownership"

    def check(self, project: Project) -> Iterator[Finding]:
        graph = get_call_graph(project)
        decls = self._declarations(graph)
        if not decls:
            return
        by_attr: dict[str, list[_OwnedDecl]] = {}
        for decl in decls:
            by_attr.setdefault(decl.attr, []).append(decl)
        for qualname in sorted(graph.functions):
            yield from self._check_function(graph,
                                            graph.functions[qualname],
                                            by_attr)

    def _declarations(self, graph: CallGraph) -> list[_OwnedDecl]:
        decls: list[_OwnedDecl] = []
        for sf in graph.project.files:
            if not sf.owners:
                continue
            module = graph._module_of(sf)
            for cls in sf.tree.body:
                if not isinstance(cls, ast.ClassDef):
                    continue
                for method in cls.body:
                    if not isinstance(method, _FUNCTION_DEFS):
                        continue
                    for node in _walk_scope(method):
                        target = None
                        if isinstance(node, ast.Assign) \
                                and len(node.targets) == 1:
                            target = node.targets[0]
                        elif isinstance(node, ast.AnnAssign):
                            target = node.target
                        if not (target is not None
                                and isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and node.lineno in sf.owners):
                            continue
                        decls.append(_OwnedDecl(
                            class_id=f"{module}:{cls.name}",
                            class_name=cls.name, attr=target.attr,
                            owners=sf.owners[node.lineno],
                            method=method.name, sf=sf,
                            line=node.lineno))
        return decls

    def _check_function(self, graph: CallGraph, info: FunctionInfo,
                        by_attr: dict[str, list[_OwnedDecl]]
                        ) -> Iterator[Finding]:
        if not any(isinstance(node, ast.Attribute)
                   and node.attr in by_attr
                   for node in _walk_scope(info.node)):
            return  # never touches an annotated attribute name
        mro = graph.mro(info.cls) if info.cls is not None else []
        self_decls = {
            decl.attr: decl
            for attr, candidates in by_attr.items()
            for decl in candidates if decl.class_id in mro}
        cfg = build_cfg(info.node)
        analysis = _AliasTaint(frozenset(self_decls))
        states = run_forward(cfg, analysis)
        seen: set[tuple[int, str, str]] = set()
        for block in cfg.blocks:
            state = analysis.copy(states[block])
            for stmt in block.statements:
                for attr, is_self, anchor in self._mutations(stmt, state):
                    for decl in self._matching(by_attr, attr, is_self,
                                               self_decls):
                        if self._allowed(graph, info, decl):
                            continue
                        key = (anchor.lineno, attr, decl.class_id)
                        if key in seen:
                            continue
                        seen.add(key)
                        owners = ", ".join(decl.owners)
                        yield self.finding(
                            info.sf, anchor,
                            f"mutation of {decl.class_name}.{decl.attr} "
                            f"outside its owner methods ({owners}) — "
                            f"ownership declared at {decl.sf.display}:"
                            f"{decl.line}; add {info.name!r} to the "
                            f"owner= annotation or route the mutation "
                            f"through an owner")
                analysis.transfer(stmt, state)

    @staticmethod
    def _matching(by_attr, attr: str, is_self: bool,
                  self_decls: dict[str, _OwnedDecl]) -> list[_OwnedDecl]:
        if is_self:
            decl = self_decls.get(attr)
            return [decl] if decl is not None else []
        return by_attr.get(attr, [])

    @staticmethod
    def _allowed(graph: CallGraph, info: FunctionInfo,
                 decl: _OwnedDecl) -> bool:
        if info.name == decl.method:
            return True  # the declaring method re-initializes freely
        if info.name in decl.owners:
            return True
        if info.cls is not None:
            cls_name = graph.classes[info.cls].name
            if f"{cls_name}.{info.name}" in decl.owners:
                return True
        return f"{decl.class_name}.{info.name}" in decl.owners

    def _mutations(self, stmt: ast.stmt, state: dict
                   ):
        """``(attr, receiver_is_self, anchor node)`` for every mutation
        this statement performs on an attribute-rooted container."""
        results: list[tuple[str, bool, ast.AST]] = []
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            root = _container_root(target)
            if isinstance(root, ast.Attribute):
                is_self = (isinstance(root.value, ast.Name)
                           and root.value.id == "self")
                results.append((root.attr, is_self, target))
            elif isinstance(root, ast.Name) \
                    and not isinstance(target, ast.Name):
                for attr in state.get(root.id, ()):
                    results.append((attr, True, target))
        for expr in _stmt_exprs(stmt):
            for node in _walk_scope(expr):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATORS):
                    continue
                root = _container_root(node.func.value)
                if isinstance(root, ast.Attribute):
                    is_self = (isinstance(root.value, ast.Name)
                               and root.value.id == "self")
                    results.append((root.attr, is_self, node))
                elif isinstance(root, ast.Name):
                    for attr in state.get(root.id, ()):
                        results.append((attr, True, node))
        return results
