"""Unions of conjunctive queries (UCQs).

A UCQ is a *multiset* of CQs of the same arity over the same schema
(Sec. 2).  The empty UCQ is allowed and evaluates to ``0`` everywhere —
requirement (C3) makes it the bottom query.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .atoms import term_sort_key
from .cq import CQ

__all__ = ["UCQ"]


class UCQ:
    """An immutable multiset of same-arity CQs."""

    __slots__ = ("cqs", "_hash")

    def __init__(self, cqs: Iterable[CQ] = ()):
        cqs = tuple(cqs)
        arities = {cq.arity for cq in cqs}
        if len(arities) > 1:
            raise ValueError(f"members must share one arity, got {arities}")
        schema: dict[str, int] = {}
        for cq in cqs:
            for relation, arity in cq.schema().items():
                known = schema.setdefault(relation, arity)
                if known != arity:
                    raise ValueError(
                        f"inconsistent arity for relation {relation}")
        if len(cqs) > 1:  # zero or one member is already in order
            cqs = tuple(sorted(cqs, key=_cq_key))
        object.__setattr__(self, "cqs", cqs)
        object.__setattr__(self, "_hash", hash(self.cqs))

    def __setattr__(self, *args) -> None:  # pragma: no cover - immutability
        raise AttributeError("UCQ is immutable")

    def __reduce__(self):
        return (UCQ, (self.cqs,))

    # -- structure ------------------------------------------------------

    @property
    def arity(self) -> int:
        """Arity of the members (0 for the empty UCQ)."""
        return self.cqs[0].arity if self.cqs else 0

    def is_empty(self) -> bool:
        """True iff this is the empty UCQ (constantly ``0``)."""
        return not self.cqs

    def schema(self) -> dict[str, int]:
        """Relation name → arity map across all members."""
        schema: dict[str, int] = {}
        for cq in self.cqs:
            schema.update(cq.schema())
        return schema

    # -- operations -----------------------------------------------------

    def union(self, other: "UCQ") -> "UCQ":
        """Multiset union (requirement (C4) quantifies over these)."""
        return UCQ(self.cqs + other.cqs)

    def with_member(self, cq: CQ) -> "UCQ":
        """Add one more disjunct."""
        return UCQ(self.cqs + (cq,))

    # -- dunder ---------------------------------------------------------

    def __iter__(self) -> Iterator[CQ]:
        return iter(self.cqs)

    def __len__(self) -> int:
        return len(self.cqs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UCQ) and self.cqs == other.cqs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.cqs:
            return "UCQ(∅)"
        return " ∪ ".join(f"[{cq!r}]" for cq in self.cqs)


def _cq_key(cq: CQ) -> tuple:
    """Deterministic ordering key for member CQs."""
    return (
        tuple(term_sort_key(term) for term in cq.head),
        tuple(atom.sort_key() for atom in cq.atoms),
        tuple(sorted(
            tuple(sorted(term_sort_key(term) for term in pair))
            for pair in getattr(cq, "inequalities", ())
        )),
    )


def as_ucq(query) -> UCQ:
    """Coerce a CQ or UCQ to a UCQ."""
    if isinstance(query, UCQ):
        return query
    if isinstance(query, CQ):
        return UCQ((query,))
    raise TypeError(f"expected CQ or UCQ, got {type(query).__name__}")
