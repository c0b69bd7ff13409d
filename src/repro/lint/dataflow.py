"""A small forward dataflow engine over :mod:`repro.lint.cfg` graphs.

Two layers:

* :class:`ForwardAnalysis` + :func:`run_forward` — a classic worklist
  fixpoint for *may*-analyses: states live on block entries, transfer
  functions fold statements through a block, joins are unions, and the
  loop runs until nothing changes.  Monotone transfer functions over
  the finite taint lattice guarantee termination.

* :class:`TaintAnalysis` — the taint analysis RL103's alias tracker
  specializes.  A state maps each local variable to the frozenset of
  *source labels* that may influence its value.  Propagation is
  deliberately coarse-but-sound in the *may* direction: every ``Name``
  read inside the right-hand side contributes its taint, calls taint
  their result with every argument, tuple unpacking spreads the full
  RHS taint, and loop/with/except headers model their bindings.

A rule reads results by replaying a block from its entry state (as
:func:`run_forward` returns it) statement by statement.
"""

from __future__ import annotations

import ast

from .cfg import CFG, Block

__all__ = ["ForwardAnalysis", "TaintAnalysis", "run_forward"]

#: Methods that mutate their receiver in place using their arguments.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "extend", "extendleft", "insert",
    "update", "setdefault", "put", "put_nowait", "push",
})

#: Receiver methods that mutate without argument inflow (removal /
#: reset); relevant to ownership checking, not to taint.
REMOVAL_METHODS = frozenset({
    "pop", "popleft", "popitem", "remove", "discard", "clear",
})


class ForwardAnalysis:
    """Interface a forward may-analysis implements."""

    def initial(self) -> dict:
        """Entry state of the function."""
        return {}

    def bottom(self) -> dict:
        """State for blocks not yet visited."""
        return {}

    def copy(self, state: dict) -> dict:
        """An independent copy of ``state`` safe to mutate."""
        return dict(state)

    def join(self, into: dict, other: dict) -> bool:
        """Union ``other`` into ``into``; True when ``into`` changed."""
        changed = False
        for key, value in other.items():
            merged = into.get(key, frozenset()) | value
            if merged != into.get(key):
                into[key] = merged
                changed = True
        return changed

    def transfer(self, stmt: ast.stmt, state: dict) -> None:
        """Fold one statement into ``state`` (in place)."""
        raise NotImplementedError


def run_forward(cfg: CFG, analysis: ForwardAnalysis
                ) -> dict[Block, dict]:
    """Worklist fixpoint; returns the entry state of every block."""
    states: dict[Block, dict] = {
        block: analysis.bottom() for block in cfg.blocks}
    states[cfg.entry] = analysis.initial()
    worklist = [cfg.entry]
    while worklist:
        block = worklist.pop()
        state = analysis.copy(states[block])
        for stmt in block.statements:
            analysis.transfer(stmt, state)
        for successor in block.successors:
            if analysis.join(states[successor], state):
                if successor not in worklist:
                    worklist.append(successor)
    return states


def _assigned_names(target: ast.expr):
    """Every plain Name bound by an assignment target."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned_names(element)
    elif isinstance(target, ast.Starred):
        yield from _assigned_names(target.value)


class TaintAnalysis(ForwardAnalysis):
    """Track which source labels may influence each local variable.

    ``seeds`` maps variable names to their initial label sets (for
    example each parameter to ``{its own name}``).  Subclasses
    may override :meth:`extra_sources` to inject labels at arbitrary
    expressions — RL103 uses that to treat loads of owned ``self``
    attributes as sources, which turns the same engine into an alias
    tracker (``home = self._home[index]; home.pop()``).
    """

    def __init__(self, seeds: dict[str, frozenset[str]]):
        self._seeds = seeds

    def initial(self) -> dict:
        return {name: frozenset(labels)
                for name, labels in self._seeds.items()}

    # -- expression taint ------------------------------------------------

    def extra_sources(self, expr: ast.expr) -> frozenset[str]:
        """Labels an expression node introduces by itself."""
        return frozenset()

    def expr_taint(self, expr: ast.expr | None, state: dict
                   ) -> frozenset[str]:
        """Union of every label that may flow into ``expr``'s value."""
        if expr is None:
            return frozenset()
        taint: frozenset[str] = frozenset()
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                taint |= state.get(node.id, frozenset())
            taint |= self.extra_sources(node)
        return taint

    def assign_taint(self, expr: ast.expr, state: dict
                     ) -> frozenset[str]:
        """Labels bound by ``target = expr`` (default: full influence).

        Alias-style subclasses narrow this to access paths so that a
        copy (``dict(x)``) does not count as the original."""
        return self.expr_taint(expr, state)

    def element_taint(self, expr: ast.expr, state: dict
                      ) -> frozenset[str]:
        """Labels bound by ``for target in expr`` (default: full
        influence; alias-style subclasses return nothing — an element
        is not the container)."""
        return self.expr_taint(expr, state)

    # -- statement transfer ---------------------------------------------

    def transfer(self, stmt: ast.stmt, state: dict) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.assign_taint(stmt.value, state)
            for target in stmt.targets:
                self._bind(target, taint, state)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target,
                           self.assign_taint(stmt.value, state), state)
        elif isinstance(stmt, ast.AugAssign):
            taint = self.assign_taint(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                state[name] = state.get(name, frozenset()) | taint
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self.element_taint(stmt.iter, state)
            self._bind(stmt.target, taint, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind(item.optional_vars,
                               self.assign_taint(item.context_expr,
                                                 state),
                               state)
        elif isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                state[stmt.name] = frozenset()

    def _bind(self, target: ast.expr, taint: frozenset[str],
              state: dict) -> None:
        for name in _assigned_names(target):
            state[name] = taint
