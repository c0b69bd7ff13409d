"""Conjunctive queries (CQs).

A CQ ``Q = ∃v φ(u, v)`` has a list ``u`` of free (head) variables and a
*multiset* ``φ`` of atoms; the remaining variables ``v`` are existential
(Sec. 2 of the paper).  Multiset bodies matter: under most annotation
semirings ``R(x, y), R(x, y)`` is *not* equivalent to ``R(x, y)``.

Queries are immutable; the atom multiset is canonicalized by sorting, so
structural equality is multiset equality.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from .atoms import Atom, Var, is_var

__all__ = ["CQ"]


class CQ:
    """An immutable conjunctive query with a multiset body.

    ``head`` is the tuple of free variables (duplicates allowed, order
    significant); every free variable must occur in the body, as the
    paper requires (``u1 ∪ … ∪ un = u``).
    """

    __slots__ = ("head", "atoms", "_hash", "_hom_cache")

    def __init__(self, head: Iterable[Var], atoms: Iterable[Atom]):
        head = tuple(head)
        atoms = tuple(sorted(atoms, key=Atom.sort_key))
        for var in head:
            if not is_var(var):
                raise TypeError(f"head terms must be variables, got {var!r}")
        if not atoms:
            raise ValueError(
                "a CQ needs at least one atom (the empty *UCQ* models the "
                "constantly-0 query)")
        body_vars = {v for atom in atoms for v in atom.variables()}
        missing = [v for v in head if v not in body_vars]
        if missing:
            raise ValueError(
                f"free variables {missing} do not occur in the body")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_hash", hash((head, atoms)))
        # Lazily populated with immutable per-query derived structures:
        # the matching indexes of repro.homomorphisms.search and the
        # integer code of repro.queries.ccq.QueryCode (queries are
        # shared freely, so the derived structures are too).
        object.__setattr__(self, "_hom_cache", {})

    def __setattr__(self, *args) -> None:  # pragma: no cover - immutability
        raise AttributeError("CQ is immutable")

    def __getstate__(self) -> tuple:
        # Only the validated, sorted parts travel: ``_hash`` is salted
        # per process and the derived matching structures in
        # ``_hom_cache`` are per-process anyway.  Pickle restores
        # through the class itself (``__new__`` plus
        # :meth:`__setstate__`), so the snapshot unpickler admits it
        # as it admits any ``repro`` class.
        return (self.head, self.atoms)

    def __setstate__(self, state: tuple) -> None:
        # The trusted fast path: no re-sorting and no head/body checks
        # (the pickling process established both), which is measurable
        # at snapshot scale (tens of thousands of queries).
        head, atoms = state
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_hash", hash((head, atoms)))
        object.__setattr__(self, "_hom_cache", {})

    @classmethod
    def _from_canonical(cls, head: tuple, atoms: tuple) -> "CQ":
        """Rebuild from already-validated, already-sorted parts."""
        self = object.__new__(cls)
        CQ.__setstate__(self, (head, atoms))
        return self

    # -- structure ------------------------------------------------------

    @property
    def arity(self) -> int:
        """Arity of the query head."""
        return len(self.head)

    def head_vars(self) -> tuple[Var, ...]:
        """Distinct free variables, in head order."""
        seen: dict[Var, None] = {}
        for var in self.head:
            seen.setdefault(var, None)
        return tuple(seen)

    def variables(self) -> tuple[Var, ...]:
        """All distinct variables (free first, then existential, sorted)."""
        return self.head_vars() + self.existential_vars()

    def existential_vars(self) -> tuple[Var, ...]:
        """Sorted tuple of existential (non-head) variables."""
        head = set(self.head)
        body_vars = {v for atom in self.atoms for v in atom.variables()}
        return tuple(sorted(body_vars - head))

    def constants(self) -> tuple:
        """All distinct constants of the body, sorted by representation."""
        consts = {
            term for atom in self.atoms for term in atom.terms
            if not is_var(term)
        }
        return tuple(sorted(consts, key=repr))

    def schema(self) -> dict[str, int]:
        """Relation name → arity map of the body."""
        schema: dict[str, int] = {}
        for atom in self.atoms:
            arity = schema.setdefault(atom.relation, atom.arity)
            if arity != atom.arity:
                raise ValueError(
                    f"inconsistent arity for relation {atom.relation}")
        return schema

    def atom_multiset(self) -> dict[Atom, int]:
        """Multiplicity map of the body atoms."""
        counts: dict[Atom, int] = {}
        for atom in self.atoms:
            counts[atom] = counts.get(atom, 0) + 1
        return counts

    # -- transformation --------------------------------------------------

    def substitute(self, mapping: Mapping[Var, Any]) -> "CQ":
        """Apply a variable substitution to head and body.

        Head variables must stay variables (containment compares queries
        with the same free tuple).
        """
        new_head = tuple(mapping.get(var, var) for var in self.head)
        return CQ(new_head, (atom.substitute(mapping) for atom in self.atoms))

    def rename_apart(self, suffix: str) -> "CQ":
        """Uniformly rename all variables by appending ``suffix``."""
        mapping = {var: Var(var.name + suffix) for var in self.variables()}
        return self.substitute(mapping)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CQ) and type(other) is type(self)
                and self.head == other.head and self.atoms == other.atoms)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        head = ", ".join(repr(v) for v in self.head)
        body = ", ".join(repr(atom) for atom in self.atoms)
        return f"Q({head}) :- {body}"

