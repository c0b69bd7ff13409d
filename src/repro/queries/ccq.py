"""CQs with inequalities, complete CQs and complete descriptions.

A *CQ with inequalities* attaches ``≠`` constraints to pairs of terms,
each pair holding at least one variable (the other may be a variable or
a constant).  It is *complete* (a CCQ) when every pair of distinct
existential variables is constrained and every existential is
constrained against every rigid term: every head variable and constant
it mentions (Sec. 4.6).

The *complete description* ``⟨Q⟩`` of a CQ ``Q`` splits its valuations
by their equality pattern.  An existential may take the value of another
existential, of a constant or of a head variable, so the pattern is
taken relative to the *rigid terms* ``R``: ``Q``'s head variables and
the constants of the containment pair it is compared in.  ``⟨Q⟩`` has
one CCQ per partition of the existentials in which every block is
either *free* or *bound* to one rigid term (a partition of
existentials ∪ ``R`` with the rigid terms in distinct blocks): a bound
block becomes its term, a free block its smallest variable, and every
free block is made unequal to every other free block and to every
rigid term.  Both queries of a pair are described relative to the
same constants, so their CCQs compare class by class.

The split is exact only on output tuples whose head values differ from
each other and from the constants.  On any other tuple two CCQs may
count one valuation twice (``R(x, x)`` and ``R(x, 'c')`` at
``x = 'c'``).  So a procedure that reads ``⟨Q⟩`` decides one *head
pattern* at a time (:func:`head_patterns`): a partition of the head
positions whose blocks are free or bound to one constant of the pair,
substituted into both queries.  Inside one pattern the remaining head
values are pairwise distinct and distinct from the constants, and
``Q1 ⊆K Q2`` holds iff it holds in every pattern.  ``⟨Q⟩`` is the
workhorse of the UCQ procedures (``→֒k``, ``։∞``, ``⇉2``) and of the
small-model theorem.  A member that already has inequalities is
described only when its existentials are pairwise unequal (the paper
leaves partially constrained queries undescribed); its CCQs are its
injective bindings of existentials to rigid terms that no inequality
forbids.

Quotients are computed on integers.  A :class:`QueryCode` codes a query
once as rows ``(relation, labels)``: label ``i ≥ 0`` is the ``i``-th
existential in sorted-name order (the order of
``CQ.existential_vars()``), and label ``~j`` is the rigid term
``rigid[j]`` (a head variable or a constant).  A partition of the
existentials with its bindings is one label per existential: a free
block's number (numbered by first appearance, as in a restricted-growth
code) or the bound term's label ``~j``.  The quotient is the member's
rows relabelled through those labels and sorted
(:meth:`QueryCode.quotient`): free block ``b``'s representative is its
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
from itertools import product
from typing import Any, Callable, Iterable, Iterator, Mapping

from .atoms import Atom, Var, is_var, term_sort_key
from .cq import CQ
from .ucq import UCQ

__all__ = [
    "CQWithInequalities",
    "QueryCode",
    "binding_codes",
    "complete_description",
    "complete_description_ucq",
    "description_orbits",
    "description_size",
    "growth_codes",
    "head_patterns",
    "pattern_values",
    "require_described",
    "rigid_constants",
    "set_partitions",
]

_ABSENT = object()


class CQWithInequalities(CQ):
    """A CQ plus a set of inequalities.

    ``inequalities`` is a frozenset of two-element frozensets of terms;
    each constrains its pair to take distinct values in every
    valuation.  A pair holds at least one variable of the query; the
    other term may be a constant (``x ≠ 'a'``), which need not occur in
    an atom.
    """

    __slots__ = ("inequalities",)

    def __init__(self, head: Iterable[Var], atoms: Iterable[Atom],
                 inequalities: Iterable[Iterable[Any]] = ()):
        pairs = []
        for pair in inequalities:
            pair = frozenset(pair)
            if len(pair) != 2 or not any(is_var(term) for term in pair):
                raise ValueError(
                    f"inequality must relate a variable to another "
                    f"term: {pair}")
            pairs.append(pair)
        super().__init__(head, atoms)
        known = set(self.variables())
        for pair in pairs:
            for var in pair:
                if is_var(var) and var not in known:
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
        """True iff the query is a CCQ: every pair of distinct
        existential variables is constrained, and so is every
        existential with every head variable and constant the query
        mentions."""
        return QueryCode.of(self).complete

    def respects(self, assignment: Mapping[Var, Any]) -> bool:
        """True iff ``assignment`` gives distinct values to every
        constrained pair (a constant is its own value; variables
        missing from the assignment are ignored)."""
        for pair in self.inequalities:
            x, y = tuple(pair)
            x = assignment.get(x, _ABSENT) if is_var(x) else x
            y = assignment.get(y, _ABSENT) if is_var(y) else y
            if x is not _ABSENT and y is not _ABSENT and x == y:
                return False
        return True

    # -- transformation --------------------------------------------------

    def substitute(self, mapping: Mapping[Var, Any]) -> "CQWithInequalities":
        """Substitute variables; constrained pairs must stay distinct
        (a pair that becomes two distinct constants always holds and is
        dropped)."""
        new_pairs = []
        for pair in self.inequalities:
            x, y = tuple(pair)
            new_x = mapping.get(x, x) if is_var(x) else x
            new_y = mapping.get(y, y) if is_var(y) else y
            if new_x == new_y:
                raise ValueError(
                    f"substitution collapses constrained pair {x!r} ≠ {y!r}")
            if is_var(new_x) or is_var(new_y):
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
            f"{x!r} ≠ {y!r}" for x, y in _sorted_pairs(self.inequalities))
        return f"{base}, {constraints}"


def _sorted_pairs(pairs: Iterable[Iterable[Any]]) -> list[tuple]:
    """Inequality pairs as sorted term pairs, in term order."""
    return sorted((tuple(sorted(pair, key=term_sort_key)) for pair in pairs),
                  key=lambda pair: [term_sort_key(term) for term in pair])


class QueryCode:
    """A (C)CQ as integer-labelled rows: hashable, and equal exactly
    when the queries it stands for are equal.

    ``rows`` is the sorted tuple of ``(relation, labels)`` of the body
    atoms.  Label ``i ≥ 0`` is the existential ``evars[i]`` (sorted-name
    order); label ``~j`` (that is ``-1 - j``) is the rigid term
    ``rigid[j]``, a head variable or a constant, ordered by
    :func:`~repro.queries.atoms.term_sort_key`.  ``kind`` is the query's
    class.  ``complete`` says that every pair of distinct existentials
    is unequal and every existential is unequal to every rigid term,
    without listing those pairs; ``pairs`` holds every other inequality
    as a sorted tuple of sorted label pairs.  ``rigid`` may hold terms
    no row mentions: the constants of the pair a description is taken
    for (:meth:`relative`).

    The quotients of a member (:meth:`quotient`) are complete codes of
    kind :class:`CQWithInequalities`.  Canonical labeling
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
        inequalities = getattr(query, "inequalities", ())
        terms = [term for atom in query.atoms for term in atom.terms]
        terms += [term for pair in inequalities for term in pair]
        rigid = sorted({_rigid_id(term): term for term in terms
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
        pairs = sorted({tuple(sorted(map(label, pair)))
                        for pair in inequalities})
        # A sorted label pair (x, y) is among existentials when x ≥ 0,
        # an existential and a rigid term when x < 0 ≤ y, and two rigid
        # terms when y < 0.
        n, r = len(evars), len(rigid)
        among = sum(1 for x, _ in pairs if x >= 0)
        against = sum(1 for x, y in pairs if x < 0 <= y)
        complete = (kind is CQWithInequalities
                    and among == n * (n - 1) // 2 and against == n * r)
        if complete:
            pairs = [pair for pair in pairs if pair[1] < 0]
        return cls(kind, query.head, evars, tuple(rigid), rows,
                   tuple(pairs), complete)

    def relative(self, constants: Iterable) -> "QueryCode":
        """This code with ``constants`` among its rigid terms (itself
        when it has them all): the code a description relative to the
        pair's constants quotients.  A complete code lists its implied
        pairs once new terms arrive, since nothing rules those out."""
        if not constants:
            return self
        known = {_rigid_id(term) for term in self.rigid}
        extra = {_rigid_id(term): term for term in constants
                 if _rigid_id(term) not in known}
        if not extra:
            return self
        rigid = tuple(sorted(self.rigid + tuple(extra.values()),
                             key=term_sort_key))
        new_label = {_rigid_id(term): ~j for j, term in enumerate(rigid)}
        remap = [new_label[_rigid_id(term)] for term in self.rigid]

        def relabel(label: int) -> int:
            return label if label >= 0 else remap[~label]

        rows = tuple(sorted((relation, tuple(map(relabel, labels)))
                            for relation, labels in self.rows))
        pairs = {tuple(sorted(map(relabel, pair))) for pair in self.pairs}
        if self.complete:
            n = len(self.evars)
            pairs.update((x, y) for x in range(n) for y in range(x + 1, n))
            pairs.update((remap[j], x) for j in range(len(self.rigid))
                         for x in range(n))
        return QueryCode(self.kind, self.head, self.evars, rigid, rows,
                         tuple(sorted(pairs)), False)

    def quotient(self, labels: tuple[int, ...]) -> "QueryCode":
        """The CCQ ``m/π`` of a member code ``m`` and a partition ``π``
        of its existentials with bindings, coded as one label per
        existential (a free block's number by first appearance, or a
        bound term's ``~j``): each free block becomes its smallest
        variable, each bound block its term, every free block is unequal
        to every other and to every rigid term, and an inequality of
        ``m`` whose sides both became rigid terms stays (unless both
        are constants).  ``labels`` must collapse no inequality of
        ``m``."""
        table = labels + tuple(range(-len(self.rigid), 0))
        rows = sorted([(relation, tuple([table[label] for label in row]))
                       for relation, row in self.rows])
        evars = self.evars
        representatives = []
        for i, block in enumerate(labels):
            if block == len(representatives):
                representatives.append(evars[i])
        pairs = ()
        if self.pairs:
            rigid = self.rigid
            pairs = tuple(sorted({
                pair for pair in (tuple(sorted((table[x], table[y])))
                                  for x, y in self.pairs)
                if pair[1] < 0 and (is_var(rigid[~pair[0]])
                                    or is_var(rigid[~pair[1]]))}))
        if not representatives:
            return _mentioned_only(self.head, rows, pairs, self.rigid)
        return QueryCode(CQWithInequalities, self.head,
                         tuple(representatives), self.rigid, tuple(rows),
                         pairs, True)

    def admits(self, labels: tuple[int, ...]) -> bool:
        """True iff the partition with bindings ``labels`` keeps every
        inequality of this code apart (a complete code admits only its
        finest, unbound partition)."""
        if self.complete:
            return labels == tuple(range(len(self.evars)))
        table = labels + tuple(range(-len(self.rigid), 0))
        return all(table[x] != table[y] for x, y in self.pairs)

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
                inequalities |= _all_unequal(self.evars, self.rigid)
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


def _mentioned_only(head: tuple, rows: list, pairs: tuple,
                    rigid: tuple) -> QueryCode:
    """The complete code of a quotient with no existentials, keeping
    only the rigid terms its rows and pairs mention: nothing is unequal
    to the others, so that is all its query shows, and the code stays
    equal to the one its query codes to."""
    used = {label for _, labels in rows for label in labels}
    used.update(label for pair in pairs for label in pair)
    if len(used) < len(rigid):
        kept = [j for j in range(len(rigid)) if ~j in used]
        remap = {~j: ~k for k, j in enumerate(kept)}
        rows = sorted((relation, tuple([remap[label] for label in labels]))
                      for relation, labels in rows)
        pairs = tuple(sorted(tuple(sorted((remap[x], remap[y])))
                             for x, y in pairs))
        rigid = tuple(rigid[j] for j in kept)
    return QueryCode(CQWithInequalities, head, (), rigid, tuple(rows),
                     pairs, True)


@lru_cache(maxsize=1024)
def _all_unequal(evars: tuple[Var, ...], rigid: tuple = ()) -> frozenset:
    """Every pair of distinct variables of ``evars``, and every variable
    of ``evars`` with every term of ``rigid``, as inequalities."""
    return frozenset([frozenset((x, y)) for i, x in enumerate(evars)
                      for y in evars[i + 1:]]
                     + [frozenset((x, term)) for x in evars
                        for term in rigid])


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


def binding_codes(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """The partitions of ``n`` existentials whose blocks are free or
    bound to one of ``r`` rigid terms, one label per existential (a
    free block's number by first appearance, or ``~j`` for the ``j``-th
    rigid term).

    The bindings come in :func:`itertools.product` order with "free"
    first, and each binding's free existentials in
    :func:`growth_codes` order, so ``r = 0`` gives exactly
    :func:`growth_codes`.  There are ``Σ_k C(n, k) r^(n-k) Bell(k)``
    of them (:func:`description_size`).
    """
    choices = (None, *range(-1, -r - 1, -1))
    for binding in product(choices, repeat=n):
        free = [i for i, label in enumerate(binding) if label is None]
        labels = list(binding)
        for growth in growth_codes(len(free)):
            for i, block in zip(free, growth):
                labels[i] = block
            yield tuple(labels)


def rigid_constants(members: Iterable[CQ]) -> tuple:
    """The constants of ``members`` (in atoms and inequalities), in
    :func:`~repro.queries.atoms.term_sort_key` order: with each
    member's head variables, the rigid terms its description is taken
    relative to when the members are those of a containment pair."""
    found: dict = {}
    for member in members:
        found.update((_rigid_id(term), term)
                     for term in QueryCode.of(member).rigid
                     if not is_var(term))
    return tuple(sorted(found.values(), key=term_sort_key))


def head_patterns(q1: UCQ, q2: UCQ) -> list[tuple[tuple, UCQ, UCQ]]:
    """The pair ``(Q1, Q2)`` split by head pattern: one
    ``(pattern, P1, P2)`` triple per partition of the head positions
    whose blocks are free or bound to distinct constants of the pair,
    skipping the patterns that no member of ``Q1`` fits.

    A member is specialised by putting each head variable's block in
    its place: a bound block's constant, or a free block's first head
    variable.  Its head keeps one variable per free block, in block
    order, and :func:`pattern_values` turns it back into an output
    tuple of ``Q1``.  A member that no tuple of the pattern answers is
    dropped: one with a head variable in two blocks, or one with an
    inequality the pattern breaks.  ``Q1 ⊆K Q2`` holds iff it holds on
    every pair ``(P1, P2)`` returned, and each pair's head values are
    pairwise distinct and distinct from its constants, where ``⟨·⟩`` is
    exact.  A pattern that changes no member gives back ``Q1`` and
    ``Q2`` themselves, so a pair without head variables or constants is
    its one pattern.
    """
    if not q1.arity:
        return [((), q1, q2)]
    constants = rigid_constants((*q1, *q2))
    splits = []
    for partition in set_partitions(tuple(range(q1.arity))):
        blocks = sorted(partition)
        for binding in product((_ABSENT, *constants), repeat=len(blocks)):
            bound = {_rigid_id(term) for term in binding
                     if term is not _ABSENT}
            if len(bound) < len(blocks) - binding.count(_ABSENT):
                continue  # two blocks bound to one constant
            pattern = tuple(zip(blocks, binding))
            specialised = _specialised(q1, pattern)
            if not specialised.is_empty():
                splits.append((pattern, specialised,
                               _specialised(q2, pattern)))
    return splits


def pattern_values(pattern: tuple, head: tuple) -> tuple:
    """The output tuple of the original pair that a specialised head
    stands for under ``pattern`` (from :func:`head_patterns`):
    each position takes its block's constant, or the head value of its
    free block (the head holds one per free block, in block order)."""
    values: dict[int, Any] = {}
    free = iter(head)
    for positions, constant in pattern:
        value = next(free) if constant is _ABSENT else constant
        values.update(dict.fromkeys(positions, value))
    return tuple(values[position] for position in sorted(values))


def _specialised(union: UCQ, pattern: tuple) -> UCQ:
    """``union``'s members specialised to ``pattern`` (see
    :func:`head_patterns`); ``union`` itself when none changes."""
    members = [_specialise(member, pattern) for member in union]
    if all(new is old for new, old in zip(members, union)):
        return union
    return UCQ(member for member in members if member is not None)


def _specialise(member: CQ, pattern: tuple) -> CQ | None:
    """``member`` under one head pattern, or None when no tuple of the
    pattern is one of its answers."""
    image: dict = {}
    owner: dict = {}
    head = []
    for index, (positions, constant) in enumerate(pattern):
        first = member.head[positions[0]]
        if constant is _ABSENT:
            head.append(first)
        for position in positions:
            var = member.head[position]
            if owner.setdefault(var, index) != index:
                return None  # one variable, two blocks
            image[var] = first if constant is _ABSENT else constant
    if tuple(head) == member.head and all(
            is_var(term) and term == var for var, term in image.items()):
        return member
    atoms = [atom.substitute(image) for atom in member.atoms]
    if not isinstance(member, CQWithInequalities):
        return CQ(head, atoms)
    pairs = []
    for pair in member.inequalities:
        x, y = (image.get(term, term) if is_var(term) else term
                for term in pair)
        if x == y:
            return None  # the pattern breaks this inequality
        if is_var(x) or is_var(y):
            pairs.append((x, y))
    return CQWithInequalities(head, atoms, pairs)


def _member_code(query: CQ, constants: Iterable) -> QueryCode:
    """The code ``⟨query⟩`` quotients: ``query``'s own rigid terms plus
    ``constants``."""
    if isinstance(query, CQWithInequalities):
        require_described(query)
    return QueryCode.of(query).relative(constants)


def complete_description(query: CQ, constants: Iterable | None = None
                         ) -> tuple[CQWithInequalities, ...]:
    """The complete description ``⟨Q⟩`` of a CQ (Sec. 4.6) relative to
    its head variables and ``constants`` (the pair's constants; None:
    the query's own).

    One CCQ per partition of the existential variables with bindings,
    in :func:`binding_codes` order; the result is a multiset (tuple),
    possibly containing isomorphic members.  A CCQ input is the
    singleton multiset of itself.
    """
    return tuple(code.materialise() for code, _ in
                 description_orbits(query, _no_generators, constants or ()))


def _no_generators(code: QueryCode) -> tuple:
    return ()


def require_described(query: CQWithInequalities) -> None:
    """Raise ValueError unless the existentials of ``query`` are
    pairwise unequal: the paper describes no partially constrained
    query."""
    existential = query.existential_vars()
    if not all(frozenset((x, y)) in query.inequalities
               for i, x in enumerate(existential)
               for y in existential[i + 1:]):
        raise ValueError(
            "complete descriptions of partially-constrained queries "
            "are not defined by the paper")


def complete_description_ucq(queries: Iterable[CQ]
                             ) -> tuple[CQWithInequalities, ...]:
    """The complete description of a UCQ: the disjoint (multiset) union
    of the complete descriptions of its members (Sec. 5.2), relative to
    the UCQ's constants."""
    queries = tuple(queries)
    constants = rigid_constants(queries)
    result: list[CQWithInequalities] = []
    for query in queries:
        result.extend(complete_description(query, constants))
    return tuple(result)


def description_size(query: CQ, constants: Iterable) -> int:
    """The number of CCQs in ``⟨query⟩`` relative to ``constants``.

    For a plain CQ with ``n`` existentials and ``r`` rigid terms this
    is the ``r``-Bell number ``T(n, r) = r·T(n-1, r) + T(n-1, r+1)``,
    ``T(0, r) = 1`` (the Bell number when ``r = 0``), with no
    enumeration; a member with inequalities counts its admitted
    bindings (:func:`_injective_bindings`).
    """
    code = _member_code(query, constants)
    n, r = len(code.evars), len(code.rigid)
    if code.kind is CQWithInequalities:
        return sum(1 for _ in _injective_bindings(code))
    counts = [1] * (n + 1)  # counts[i] = T(k, r + i)
    for k in range(1, n + 1):
        counts = [(r + i) * counts[i] + counts[i + 1]
                  for i in range(n + 1 - k)]
    return counts[0]


def description_orbits(query: CQ, generators_of: Callable[
        [QueryCode], Iterable[tuple[int, ...]]],
                       constants: Iterable
                       ) -> Iterator[tuple[QueryCode, int]]:
    """``⟨Q⟩`` relative to ``constants`` (the pair's constants) as one
    coded CCQ per orbit, with the orbit's size.

    ``generators_of(code)`` returns automorphisms of a coded CCQ that
    generate a group of them, each a permutation of the existential
    labels (variable ``i`` goes to ``generator[i]``).  It is asked
    once, for the quotient by the finest unbound partition: that CCQ
    has the query's atoms and existentials and constrains every pair of
    them and each against every rigid term, uniformly, so its
    automorphisms are exactly the query's.  An automorphism ``σ`` fixes
    the head and the constants, so the quotients by ``π`` and by
    ``σ(π)`` (the same bindings, moved along) are isomorphic CCQs: the
    group acts on the partitions with bindings, and one CCQ per orbit
    stands for all of the orbit's.  The code yielded is the quotient by
    the orbit's first partition in :func:`binding_codes` order, and
    orbits come in the order of their first partitions.  The orbit
    sizes sum to :func:`description_size`; with no generators every
    orbit is one partition and the codes materialise to exactly
    :func:`complete_description`'s CCQs.  A member with inequalities
    yields each admitted binding as its own orbit
    (:func:`_injective_bindings`), and ``generators_of`` is not asked:
    its automorphisms must keep its own inequalities, which the finest
    quotient no longer tells apart.
    """
    member = _member_code(query, constants)
    n, r = len(member.evars), len(member.rigid)
    if member.kind is CQWithInequalities:
        for labels in _injective_bindings(member):
            yield member.quotient(labels), 1
        return
    identity = tuple(range(n))
    finest = member.quotient(identity)
    generators = tuple(generators_of(finest))
    seen: set[tuple[int, ...]] = set()
    for code in binding_codes(n, r):
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


def _injective_bindings(member: QueryCode) -> Iterator[tuple[int, ...]]:
    """The partitions with bindings that a described member with
    inequalities admits, in :func:`binding_codes` order.

    Its existentials are pairwise unequal (:func:`require_described`),
    so every free block is one existential and no two existentials bind
    to one term: the bindings are the injective partial maps from
    existentials to rigid terms that no inequality forbids.  A complete
    member admits only its finest, unbound partition.
    """
    n, r = len(member.evars), len(member.rigid)
    if member.complete:
        yield tuple(range(n))
        return
    # A sorted label pair (~j, x) with x ≥ 0 keeps existential x off
    # the rigid term ~j.
    forbidden = {(x, y) for x, y in member.pairs if x < 0 <= y}
    labels = [0] * n

    def extend(i: int, free: int, used: frozenset) -> Iterator[tuple]:
        if i == n:
            yield tuple(labels)
            return
        labels[i] = free
        yield from extend(i + 1, free + 1, used)
        for term in range(-1, -r - 1, -1):
            if term not in used and (term, i) not in forbidden:
                labels[i] = term
                yield from extend(i + 1, free, used | {term})

    yield from extend(0, 0, frozenset())


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
    """Relabel free blocks by first appearance, so equal partitions get
    equal codes; a bound label ``~j`` stays."""
    first: dict[int, int] = {}
    return tuple(label if label < 0 else first.setdefault(label, len(first))
                 for label in labels)
