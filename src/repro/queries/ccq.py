"""CQs with inequalities, complete CQs and complete descriptions.

A *CQ with inequalities* attaches ``≠`` constraints to pairs of
variables; it is *complete* (a CCQ) when every pair of distinct
existential variables is constrained (Sec. 4.6).

The *complete description* ``⟨Q⟩`` of a CQ ``Q`` is the multiset of CCQs
obtained by, for every partition ``π`` of the existential variables,
identifying the variables inside each block and making all surviving
pairs explicitly unequal.  ``⟨Q⟩`` is equivalent to ``Q`` over every
semiring (Sec. 5) because the valuations of ``Q`` split exactly by their
equality pattern on existential variables; it is the workhorse of the
UCQ procedures (``→֒k``, ``։∞``, ``⇉2``) and of the small-model theorem.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping

from .atoms import Atom, Var
from .cq import CQ

__all__ = [
    "CQWithInequalities",
    "complete_description",
    "complete_description_ucq",
    "description_orbits",
    "set_partitions",
]


class CQWithInequalities(CQ):
    """A CQ plus a set of variable inequalities.

    ``inequalities`` is a frozenset of two-element frozensets of
    variables; each constrains its pair to take distinct values in every
    valuation.
    """

    __slots__ = ("inequalities",)

    def __init__(self, head: Iterable[Var], atoms: Iterable[Atom],
                 inequalities: Iterable[Iterable[Var]] = ()):
        pairs = []
        for pair in inequalities:
            pair = frozenset(pair)
            if len(pair) != 2:
                raise ValueError(
                    f"inequality must relate two distinct variables: {pair}")
            pairs.append(pair)
        super().__init__(head, atoms)
        known = set(self.variables())
        for pair in pairs:
            for var in pair:
                if var not in known:
                    raise ValueError(
                        f"inequality variable {var!r} not in the query")
        object.__setattr__(self, "inequalities", frozenset(pairs))
        object.__setattr__(
            self, "_hash", hash((self.head, self.atoms, self.inequalities)))

    def __getstate__(self) -> tuple:
        # Extends CQ's state: the inequality pairs must travel too.
        return (self.head, self.atoms, self.inequalities)

    def __setstate__(self, state: tuple) -> None:
        head, atoms, inequalities = state
        super().__setstate__((head, atoms))
        object.__setattr__(self, "inequalities", inequalities)
        object.__setattr__(
            self, "_hash", hash((head, atoms, inequalities)))

    # -- structure ------------------------------------------------------

    def is_complete(self) -> bool:
        """True iff every pair of distinct existential variables is
        constrained (the query is a CCQ)."""
        existential = self.existential_vars()
        return all(
            frozenset((x, y)) in self.inequalities
            for i, x in enumerate(existential)
            for y in existential[i + 1:]
        )

    def respects(self, assignment: Mapping[Var, Any]) -> bool:
        """True iff ``assignment`` gives distinct values to every
        constrained pair (variables missing from the assignment are
        ignored)."""
        for pair in self.inequalities:
            x, y = tuple(pair)
            if x in assignment and y in assignment:
                if assignment[x] == assignment[y]:
                    return False
        return True

    # -- transformation --------------------------------------------------

    def substitute(self, mapping: Mapping[Var, Any]) -> "CQWithInequalities":
        """Substitute variables; constrained pairs must stay distinct."""
        new_pairs = []
        for pair in self.inequalities:
            x, y = tuple(pair)
            new_x, new_y = mapping.get(x, x), mapping.get(y, y)
            if new_x == new_y:
                raise ValueError(
                    f"substitution collapses constrained pair {x!r} ≠ {y!r}")
            new_pairs.append((new_x, new_y))
        new_head = tuple(mapping.get(var, var) for var in self.head)
        return CQWithInequalities(
            new_head,
            (atom.substitute(mapping) for atom in self.atoms),
            new_pairs,
        )

    def drop_inequalities(self) -> CQ:
        """The underlying plain CQ."""
        return CQ(self.head, self.atoms)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CQWithInequalities)
                and self.head == other.head and self.atoms == other.atoms
                and self.inequalities == other.inequalities)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        base = super().__repr__()
        if not self.inequalities:
            return base
        constraints = ", ".join(
            f"{x!r} ≠ {y!r}" for x, y in
            sorted(tuple(sorted(pair)) for pair in self.inequalities)
        )
        return f"{base}, {constraints}"


def set_partitions(items: tuple) -> Iterator[tuple[tuple, ...]]:
    """Enumerate all set partitions of ``items`` (Bell-number many).

    Each partition is a tuple of blocks; each block a tuple of items in
    the original order.  Deterministic enumeration order.
    """
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        # first joins an existing block …
        for index, block in enumerate(partition):
            yield (partition[:index] + ((first,) + block,)
                   + partition[index + 1:])
        # … or forms its own.
        yield ((first,),) + partition


def _quotient(query: CQ, partition: tuple[tuple[Var, ...], ...]) -> CQWithInequalities:
    """Identify variables inside each block and attach all inequalities
    between the surviving representatives."""
    mapping: dict[Var, Var] = {}
    representatives: list[Var] = []
    for block in partition:
        representative = min(block)
        representatives.append(representative)
        for var in block:
            mapping[var] = representative
    atoms = tuple(atom.substitute(mapping) for atom in query.atoms)
    pairs = [
        (x, y)
        for i, x in enumerate(representatives)
        for y in representatives[i + 1:]
    ]
    return CQWithInequalities(query.head, atoms, pairs)


def complete_description(query: CQ) -> tuple[CQWithInequalities, ...]:
    """The complete description ``⟨Q⟩`` of a CQ (Sec. 4.6).

    One CCQ per partition of the existential variables; the result is a
    multiset (tuple), possibly containing isomorphic members.  A CCQ
    input is returned as the singleton multiset of itself.
    """
    if isinstance(query, CQWithInequalities):
        if not query.is_complete():
            raise ValueError(
                "complete descriptions of partially-constrained queries "
                "are not defined by the paper")
        return (query,)
    return tuple(
        _quotient(query, partition)
        for partition in set_partitions(query.existential_vars())
    )


def complete_description_ucq(queries: Iterable[CQ]) -> tuple[CQWithInequalities, ...]:
    """The complete description of a UCQ: the disjoint (multiset) union
    of the complete descriptions of its members (Sec. 5.2)."""
    result: list[CQWithInequalities] = []
    for query in queries:
        result.extend(complete_description(query))
    return tuple(result)


def description_orbits(query: CQ, generators_of: Callable[
        [CQWithInequalities], Iterable[tuple[int, ...]]]
                       ) -> Iterator[tuple[CQWithInequalities, int]]:
    """``⟨Q⟩`` of a CQ as one CCQ per orbit, with the orbit's size.

    ``generators_of(ccq)`` returns automorphisms of a CCQ that generate
    a group of them, each a permutation of the indices of
    ``ccq.existential_vars()`` (variable ``i`` goes to
    ``generator[i]``).  It is asked once, for the quotient by the
    finest partition: that CCQ has the query's atoms and existentials
    and constrains every pair of them, so its automorphisms are exactly
    the query's.  An automorphism ``σ`` fixes the head and the
    constants, so the quotients by ``π`` and by ``σ(π)`` are isomorphic
    CCQs: the group acts on the partitions, and one CCQ per orbit
    stands for all of the orbit's.  The CCQ yielded is the quotient by
    the orbit's first partition in :func:`set_partitions` order, and
    orbits come in the order of their first partitions.  The orbit
    sizes sum to the Bell number of the existentials; with no
    generators every orbit is one partition and the CCQs are exactly
    :func:`complete_description`'s.  A CCQ input is its own one-CCQ
    orbit, and ``generators_of`` is not asked.
    """
    if isinstance(query, CQWithInequalities):
        for ccq in complete_description(query):
            yield ccq, 1
        return
    variables = query.existential_vars()
    finest = _quotient(query, tuple((var,) for var in variables))
    generators = tuple(generators_of(finest))
    index = {var: i for i, var in enumerate(variables)}
    seen: set[tuple[int, ...]] = set()
    for partition in set_partitions(variables):
        code = _growth_code(partition, index)
        if code in seen:
            continue
        orbit, frontier = {code}, [code]
        while frontier:
            labels = frontier.pop()
            for generator in generators:
                image = [0] * len(labels)
                for var_index, label in enumerate(labels):
                    image[generator[var_index]] = label
                image = _renumber(image)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        ccq = finest if len(partition) == len(variables) else \
            _quotient(query, partition)
        yield ccq, len(orbit)


def _growth_code(partition: tuple[tuple[Var, ...], ...],
                 index: Mapping[Var, int]) -> tuple[int, ...]:
    """A partition as one block label per variable index, the labels
    numbered by first appearance (its restricted-growth code)."""
    code = [0] * len(index)
    for block_index, block in enumerate(partition):
        for var in block:
            code[index[var]] = block_index
    return _renumber(code)


def _renumber(labels: list[int]) -> tuple[int, ...]:
    """Relabel blocks by first appearance, so equal partitions get
    equal codes."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(label, len(first)) for label in labels)
