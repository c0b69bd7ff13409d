"""Per-function control-flow graphs for the dataflow rules.

A :class:`CFG` is a set of basic blocks over the *statements* of one
function body.  Compound statements contribute their header node to the
block preceding their subtrees (the dataflow transfer functions use the
header to model bindings such as ``for target in iter:``), and their
bodies become separate blocks wired with the usual edges:

* ``if``/``else`` fork and rejoin;
* loops get a back edge and an exit edge (``orelse`` supported);
* ``break``/``continue``/``return``/``raise`` terminate their block
  (``return``/``raise`` jump to the synthetic exit block);
* ``try`` is approximated soundly for forward may-analyses: every block
  of the protected body gains an edge to each handler, since an
  exception may fire anywhere inside it; ``finally`` runs on the join.

The graphs are built from the AST only and are deliberately small —
just enough structure for the worklist engine in
:mod:`repro.lint.dataflow` to reach a fixpoint over branchy code
(loops with ``break``, early returns, exception fallbacks) without
falsely merging facts straight-line analysis would get wrong.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["Block", "CFG", "build_cfg"]


@dataclass(eq=False)  # identity hash/eq: blocks key worklist maps
class Block:
    """A straight-line run of statements with outgoing edges."""

    index: int
    statements: list[ast.stmt] = field(default_factory=list)
    successors: list["Block"] = field(default_factory=list)

    def link(self, other: "Block") -> None:
        """Add an edge to ``other`` (self-loops and duplicates elided)."""
        if other is not self and other not in self.successors:
            self.successors.append(other)

    def __repr__(self) -> str:
        lines = [getattr(s, "lineno", "?") for s in self.statements]
        return f"Block({self.index}, lines={lines})"


@dataclass
class CFG:
    """Entry/exit plus every block of one function."""

    entry: Block
    exit: Block
    blocks: list[Block]


class _Builder:
    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.exit = self._new()
        self._loop_stack: list[tuple[Block, Block]] = []  # (head, after)

    def _new(self) -> Block:
        block = Block(index=len(self.blocks))
        self.blocks.append(block)
        return block

    def build(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
        entry = self._new()
        tail = self._body(func.body, entry)
        tail.link(self.exit)
        # Keep block list in creation order but move exit last for
        # readable dumps; order is irrelevant to the worklist engine.
        self.blocks.remove(self.exit)
        self.blocks.append(self.exit)
        return CFG(entry=entry, exit=self.exit, blocks=self.blocks)

    def _body(self, statements: list[ast.stmt], current: Block) -> Block:
        """Wire ``statements`` starting at ``current``; return the open
        block that control falls out of (it may be unreachable after a
        ``return`` — harmless for a may-analysis)."""
        for stmt in statements:
            current = self._statement(stmt, current)
        return current

    def _statement(self, stmt: ast.stmt, current: Block) -> Block:
        if isinstance(stmt, ast.If):
            current.statements.append(stmt)
            after = self._new()
            then_entry = self._new()
            current.link(then_entry)
            self._body(stmt.body, then_entry).link(after)
            if stmt.orelse:
                else_entry = self._new()
                current.link(else_entry)
                self._body(stmt.orelse, else_entry).link(after)
            else:
                current.link(after)
            return after
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            head = self._new()
            current.link(head)
            head.statements.append(stmt)  # models the loop binding
            after = self._new()
            body_entry = self._new()
            head.link(body_entry)
            head.link(after)  # zero iterations / condition false
            self._loop_stack.append((head, after))
            self._body(stmt.body, body_entry).link(head)
            self._loop_stack.pop()
            if stmt.orelse:
                else_entry = self._new()
                head.link(else_entry)
                self._body(stmt.orelse, else_entry).link(after)
            return after
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            current.statements.append(stmt)  # models ``as`` bindings
            return self._body(stmt.body, current)
        if isinstance(stmt, ast.Try):
            current.statements.append(stmt)
            after = self._new()
            body_entry = self._new()
            current.link(body_entry)
            body_blocks_start = len(self.blocks)
            body_tail = self._body(stmt.body, body_entry)
            body_blocks = [body_entry] + \
                self.blocks[body_blocks_start:len(self.blocks)]
            handler_entries: list[Block] = []
            for handler in stmt.handlers:
                handler_entry = self._new()
                handler_entry.statements.append(handler)  # ``as`` binding
                handler_entries.append(handler_entry)
                self._body(handler.body, handler_entry).link(after)
            # An exception may fire at any protected statement.
            for block in body_blocks:
                for handler_entry in handler_entries:
                    block.link(handler_entry)
            if stmt.orelse:
                else_entry = self._new()
                body_tail.link(else_entry)
                self._body(stmt.orelse, else_entry).link(after)
            else:
                body_tail.link(after)
            if stmt.finalbody:
                final_entry = self._new()
                # finally runs on every path out of the try.
                for block in [after]:
                    block.link(final_entry)
                return self._body(stmt.finalbody, final_entry)
            return after
        if isinstance(stmt, (ast.Return, ast.Raise)):
            current.statements.append(stmt)
            current.link(self.exit)
            return self._new()  # unreachable continuation
        if isinstance(stmt, ast.Break):
            current.statements.append(stmt)
            if self._loop_stack:
                current.link(self._loop_stack[-1][1])
            return self._new()
        if isinstance(stmt, ast.Continue):
            current.statements.append(stmt)
            if self._loop_stack:
                current.link(self._loop_stack[-1][0])
            return self._new()
        current.statements.append(stmt)
        return current


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """The control-flow graph of one function's body."""
    return _Builder().build(func)
