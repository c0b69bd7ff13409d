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

Quotients are computed on integers.  A :class:`QueryCode` codes a query
once as rows ``(relation, labels)``: label ``i ≥ 0`` is the ``i``-th
existential in sorted-name order (the order of
``CQ.existential_vars()``), and a negative label is reserved for a
rigid term (a head variable or a constant).  A partition of the
existentials is its restricted-growth code (one block number per
existential, numbered by first appearance), and the quotient ``m/π`` is
the member's rows relabelled through that code and sorted
(:meth:`QueryCode.quotient`): block ``b``'s representative is its
smallest variable, so the quotient's labels are again in sorted-name
order.  Canonical labeling runs on these rows
(:mod:`repro.homomorphisms.canonical`), ``⇉2``'s set reduction drops
duplicate rows, and a :class:`CQWithInequalities` is built from a code
only when a caller needs the query itself (:meth:`QueryCode.materialise`,
through a trusted constructor).  :func:`complete_description` is that
materialisation for every partition; the isomorphism-class table of
:func:`repro.homomorphisms.isomorphism.description_classes` makes one
query per class.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Mapping

from .atoms import Atom, Var, is_var, term_sort_key
from .cq import CQ

__all__ = [
    "CQWithInequalities",
    "QueryCode",
    "complete_description",
    "complete_description_ucq",
    "description_orbits",
    "growth_codes",
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

    @classmethod
    def _from_canonical(cls, head: tuple, atoms: tuple,
                        inequalities: frozenset = frozenset()
                        ) -> "CQWithInequalities":
        """Rebuild from already-validated, already-sorted parts."""
        self = object.__new__(cls)
        self.__setstate__((head, atoms, inequalities))
        return self

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


class QueryCode:
    """A (C)CQ as integer-labelled rows: hashable, and equal exactly
    when the queries it stands for are equal.

    ``rows`` is the sorted tuple of ``(relation, labels)`` of the body
    atoms.  Label ``i ≥ 0`` is the existential ``evars[i]`` (sorted-name
    order); label ``~j`` (that is ``-1 - j``) is the rigid term
    ``rigid[j]``, a head variable or a constant, ordered by
    :func:`~repro.queries.atoms.term_sort_key`.  ``kind`` is the query's
    class.  ``complete`` says that every pair of distinct existentials
    is unequal without listing those pairs; ``pairs`` holds every other
    inequality as a sorted tuple of sorted label pairs.

    The quotients of a plain member (:meth:`quotient`) are complete
    codes of kind :class:`CQWithInequalities`.  Canonical labeling
    (:func:`repro.homomorphisms.canonical.compute_canonical_form`)
    accepts a code wherever it accepts a query, and gives the same
    record for both.
    """

    __slots__ = ("kind", "head", "evars", "rigid", "rows", "pairs",
                 "complete", "_hash")

    def __init__(self, kind: type, head: tuple, evars: tuple, rigid: tuple,
                 rows: tuple, pairs: tuple = (), complete: bool = False):
        self.kind = kind
        self.head = head
        self.evars = evars
        self.rigid = rigid
        self.rows = rows
        self.pairs = pairs
        self.complete = complete
        self._hash = hash((kind.__name__, head, evars, rigid, rows, pairs,
                           complete))

    @classmethod
    def of(cls, query: CQ) -> "QueryCode":
        """Code ``query`` (a plain CQ or a CQ with inequalities), once
        per query object."""
        code = query._hom_cache.get("code")
        if code is None:
            code = cls._code(query)
            query._hom_cache["code"] = code
        return code

    @classmethod
    def _code(cls, query: CQ) -> "QueryCode":
        evars = query.existential_vars()
        labels: dict = {var: i for i, var in enumerate(evars)}
        rigid = sorted({_rigid_id(term): term for atom in query.atoms
                        for term in atom.terms
                        if not (is_var(term) and term in labels)}.values(),
                       key=term_sort_key)
        rigid_labels = {_rigid_id(term): ~j for j, term in enumerate(rigid)}
        labels.update((var, rigid_labels[_rigid_id(var)])
                      for var in query.head)

        def label(term) -> int:
            found = labels.get(term) if is_var(term) else None
            return rigid_labels[_rigid_id(term)] if found is None else found

        rows = tuple(sorted(
            (atom.relation, tuple([label(term) for term in atom.terms]))
            for atom in query.atoms))
        kind = type(query)
        among, rigid_pairs = 0, []
        for x, y in getattr(query, "inequalities", ()):
            x, y = sorted((labels[x], labels[y]))
            if x >= 0:
                among += 1
            else:
                rigid_pairs.append((x, y))
        n = len(evars)
        complete = (kind is CQWithInequalities
                    and among == n * (n - 1) // 2)
        pairs = rigid_pairs
        if among and not complete:
            pairs = [tuple(sorted((labels[x], labels[y])))
                     for x, y in query.inequalities]
        return cls(kind, query.head, evars, tuple(rigid), rows,
                   tuple(sorted(pairs)), complete)

    def quotient(self, growth: tuple[int, ...]) -> "QueryCode":
        """The CCQ ``m/π`` of a plain code ``m`` and the partition ``π``
        of its existentials with restricted-growth code ``growth``:
        each block becomes its smallest variable, and every pair of
        blocks is unequal."""
        table = growth + tuple(range(-len(self.rigid), 0))
        rows = sorted([(relation, tuple([table[label] for label in labels]))
                       for relation, labels in self.rows])
        evars = self.evars
        representatives = []
        for i, block in enumerate(growth):
            if block == len(representatives):
                representatives.append(evars[i])
        return QueryCode(CQWithInequalities, self.head,
                         tuple(representatives), self.rigid, tuple(rows),
                         (), True)

    def set_reduced(self) -> "QueryCode":
        """The code without duplicate rows (itself when it has none)."""
        rows = tuple(sorted(set(self.rows)))
        if len(rows) == len(self.rows):
            return self
        return QueryCode(self.kind, self.head, self.evars, self.rigid, rows,
                         self.pairs, self.complete)

    def materialise(self) -> CQ:
        """The query this code stands for, built without re-validation
        (the query keeps this code, so coding it again is free)."""
        terms = self.evars + self.rigid[::-1]  # label ~j is rigid[j]
        if self.rigid:
            # Atoms sort by their terms' sort keys; existentials alone
            # already sort by label.
            order = sorted(range(len(terms)),
                           key=lambda i: term_sort_key(terms[i]))
            rank = [0] * len(terms)
            for position, label in enumerate(order):
                rank[label] = position
            rows = sorted(self.rows, key=lambda row: (
                row[0], len(row[1]), [rank[label] for label in row[1]]))
        else:
            rows = sorted(self.rows,
                          key=lambda row: (row[0], len(row[1]), row[1]))
        atoms = tuple([Atom(relation, [terms[label] for label in labels])
                       for relation, labels in rows])
        if self.kind is not CQWithInequalities:
            query = self.kind._from_canonical(self.head, atoms)
        else:
            inequalities = frozenset(
                frozenset((terms[x], terms[y])) for x, y in self.pairs)
            if self.complete:
                inequalities |= _all_unequal(self.evars)
            query = CQWithInequalities._from_canonical(
                self.head, atoms, inequalities)
        query._hom_cache["code"] = self
        return query

    def _state(self) -> tuple:
        return (self.kind, self.head, self.evars, self.rigid, self.rows,
                self.pairs, self.complete)

    def __getstate__(self) -> tuple:
        # ``_hash`` is salted per process: recomputed on restore.
        return self._state()

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QueryCode) and self._hash == other._hash
                and self._state() == other._state())

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"QueryCode({self.materialise()!r})"


@lru_cache(maxsize=1024)
def _all_unequal(evars: tuple[Var, ...]) -> frozenset:
    """Every pair of distinct variables of ``evars``, as inequalities."""
    return frozenset(frozenset((x, y)) for i, x in enumerate(evars)
                     for y in evars[i + 1:])


def _rigid_id(term) -> tuple:
    """A rigid term's identity in a code: its type and value, so ``1``
    and ``True`` stay apart as they do in an atom's serialization."""
    return (type(term), term)


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


def growth_codes(n: int) -> Iterator[tuple[int, ...]]:
    """The restricted-growth codes of the partitions of ``n`` indices,
    in :func:`set_partitions` order."""
    index = {i: i for i in range(n)}
    for partition in set_partitions(tuple(range(n))):
        yield _growth_code(partition, index)


def complete_description(query: CQ) -> tuple[CQWithInequalities, ...]:
    """The complete description ``⟨Q⟩`` of a CQ (Sec. 4.6).

    One CCQ per partition of the existential variables, in
    :func:`set_partitions` order; the result is a multiset (tuple),
    possibly containing isomorphic members.  A CCQ input is returned as
    the singleton multiset of itself.
    """
    if isinstance(query, CQWithInequalities):
        _require_complete(query)
        return (query,)
    code = QueryCode.of(query)
    return tuple(code.quotient(growth).materialise()
                 for growth in growth_codes(len(code.evars)))


def _require_complete(query: CQWithInequalities) -> None:
    if not query.is_complete():
        raise ValueError(
            "complete descriptions of partially-constrained queries "
            "are not defined by the paper")


def complete_description_ucq(queries: Iterable[CQ]) -> tuple[CQWithInequalities, ...]:
    """The complete description of a UCQ: the disjoint (multiset) union
    of the complete descriptions of its members (Sec. 5.2)."""
    result: list[CQWithInequalities] = []
    for query in queries:
        result.extend(complete_description(query))
    return tuple(result)


def description_orbits(query: CQ, generators_of: Callable[
        [QueryCode], Iterable[tuple[int, ...]]]
                       ) -> Iterator[tuple[QueryCode, int]]:
    """``⟨Q⟩`` of a CQ as one coded CCQ per orbit, with the orbit's size.

    ``generators_of(code)`` returns automorphisms of a coded CCQ that
    generate a group of them, each a permutation of the existential
    labels (variable ``i`` goes to ``generator[i]``).  It is asked
    once, for the quotient by the finest partition: that CCQ has the
    query's atoms and existentials and constrains every pair of them,
    so its automorphisms are exactly the query's.  An automorphism
    ``σ`` fixes the head and the constants, so the quotients by ``π``
    and by ``σ(π)`` are isomorphic CCQs: the group acts on the
    partitions, and one CCQ per orbit stands for all of the orbit's.
    The code yielded is the quotient by the orbit's first partition in
    :func:`set_partitions` order, and orbits come in the order of their
    first partitions.  The orbit sizes sum to the Bell number of the
    existentials; with no generators every orbit is one partition and
    the codes materialise to exactly :func:`complete_description`'s
    CCQs.  A CCQ input is its own one-CCQ orbit, and ``generators_of``
    is not asked.
    """
    if isinstance(query, CQWithInequalities):
        _require_complete(query)
        yield QueryCode.of(query), 1
        return
    member = QueryCode.of(query)
    n = len(member.evars)
    identity = tuple(range(n))
    finest = member.quotient(identity)
    generators = tuple(generators_of(finest))
    seen: set[tuple[int, ...]] = set()
    for code in growth_codes(n):
        if code in seen:
            continue
        orbit, frontier = {code}, [code]
        while frontier:
            labels = frontier.pop()
            for generator in generators:
                image = [0] * n
                for var_index, label in enumerate(labels):
                    image[generator[var_index]] = label
                image = _renumber(image)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        yield (finest if code == identity else member.quotient(code)), \
            len(orbit)


def _growth_code(partition: tuple[tuple, ...],
                 index: Mapping[Any, int]) -> tuple[int, ...]:
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
