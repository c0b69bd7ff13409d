"""Refinement-based canonical labeling of (C)CQs.

The isomorphism machinery of Sec. 5.2 — canonical keys for the
``→֒k``/``→֒∞`` class counting, canonical renaming for the normalizer,
and automorphism group sizes for the finite-offset reconstruction —
used to minimize a serialization over *all* permutations of the
existential variables, which is factorial and hangs past ~10
existentials.  This module replaces that with the standard
individualization-refinement (IR) scheme of practical graph
canonization (McKay's *nauty* family), adapted to the variable/atom
incidence structure of conjunctive queries:

1. **Color refinement.**  Existential variables are partitioned by an
   iterated invariant: each variable's color is refined by the multiset
   of its atom occurrences — relation, arity, argument position, the
   repetition pattern inside the atom, and the colors (or fixed
   encodings) of the co-occurring terms — plus the multiset of colors
   of its inequality neighbors.  Head variables (encoded by first head
   position) and constants are *fixed*: they never enter the partition
   and anchor it instead.  The first pass subsumes the classic initial
   invariants (relation/arity/position profiles, constants, inequality
   degrees); iteration propagates them to a fixpoint.
2. **Individualization-refinement search.**  If refinement leaves a
   non-singleton cell, the first such cell is the *target*: each of its
   variables is individualized in turn and refinement re-run, building
   an invariant search tree whose leaves are discrete partitions, i.e.
   complete labelings.  The canonical labeling is the leaf minimizing
   the pair *(node-invariant trace, serialization)* — both
   renaming-invariant, so isomorphic queries pick corresponding leaves.
3. **Automorphism pruning and counting.**  A leaf serializing equal to
   the first leaf witnesses an automorphism (compose the two
   labelings); discovered generators prune sibling branches lying in
   the same orbit, and a subtree that yields an automorphism is
   abandoned wholesale (it is the isomorphic image of an explored one).
   The group order falls out of the orbit-stabilizer theorem along the
   first root-to-leaf path: the product, over its branch nodes, of the
   orbit size of the chosen variable under the generators fixing the
   preceding choices pointwise.

The net effect: symmetric inputs (complete CCQs over interchangeable
variables, the worst case for the factorial scheme) canonicalize in a
quadratic number of tree nodes, and a 20-existential complete CCQ gets
key, renaming and ``|Aut|`` in milliseconds
(``benchmarks/bench_canonical.py`` pins this, plus agreement with the
preserved factorial reference, the test oracle
``tests/reference_iso.py``).

The search runs on a query's integer code
(:class:`repro.queries.ccq.QueryCode`): a query is coded first, and
the quotients of a complete description arrive already coded, so
``⟨Q⟩`` is labeled without building its CCQs.  Query and code give the
same record.

Serializations label variables with *integers* (never strings like
``"e10"``, whose lexicographic order disagrees with label order past
ten labels), and the canonical renaming is capture-free: fresh
existential names skip every head-variable name, so ``Q(e0) :- R(e0,
x)`` can never collapse its existential into the head.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..queries.atoms import Var, is_var
from ..queries.ccq import QueryCode
from ..queries.cq import CQ

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "compute_canonical_form",
    "fresh_existential_labels",
]


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical labeling record of one query, computed in one pass.

    ``key`` is a hashable normal form equal across (and only across)
    isomorphic queries; ``renaming`` maps every existential variable to
    its capture-free canonical name; ``automorphisms`` is the order of the
    automorphism group (existential renamings fixing the query), and
    ``generators`` generate that group: each is a permutation of the
    indices of ``query.existential_vars()``, variable ``i`` going to
    variable ``generator[i]``.
    """

    key: tuple
    renaming: tuple[tuple[Var, Var], ...]
    automorphisms: int
    generators: tuple[tuple[int, ...], ...]

    def renaming_map(self) -> dict[Var, Var]:
        """The canonical renaming as a substitution dict."""
        return dict(self.renaming)


def fresh_existential_labels(query: CQ, count: int) -> list[str]:
    """``count`` canonical existential names that avoid capture.

    Names are drawn from ``e0, e1, …`` skipping every *head*-variable
    name — the variables that survive a renaming unchanged, and the
    only ones a fresh existential name could be captured by (all
    existentials are substituted simultaneously).  Skipping exactly the
    head names keeps the scheme idempotent: a canonically-renamed query
    has the same head, hence the same fresh-name sequence.
    """
    return [var.name for var in _fresh_vars(
        frozenset(var.name for var in query.head), count)]


@lru_cache(maxsize=1024)
def _fresh_vars(forbidden: frozenset, count: int) -> tuple[Var, ...]:
    """The fresh names of :func:`fresh_existential_labels` as shared
    variables (every canonical renaming reuses them)."""
    names: list[Var] = []
    index = 0
    while len(names) < count:
        name = f"e{index}"
        if name not in forbidden:
            names.append(Var(name))
        index += 1
    return tuple(names)


#: Leading tags of the term encodings used *inside refinement*: an
#: existential encodes as ``(_EVAR, color, link)``, a head variable as
#: ``(_HEAD, first head position, link)``, a constant as ``(_CONST,
#: type name, repr, link)`` — disjoint tags keep mixed comparisons
#: int-vs-int at every tuple position.
_EVAR, _HEAD, _CONST = 0, 1, 2


class _Structure:
    """Integer-indexed incidence view of one coded query.

    Existential variables are the code's labels ``0..n-1`` (sorted-name
    order); every per-variable table below is a list indexed by them,
    so the refinement loop touches no ``Var`` hashing at all.  The rows
    are read as they are: refinement signatures and serializations sort
    what they collect, so the row order never shows in the result.

    On a complete code the inequalities of existentials are not listed:
    every existential is unequal to every other one and to every rigid
    term, so its inequality signature is "the colors of all the others
    and every rigid term", which orders two variables exactly as their
    own colors already do.  The refinement skips it, and the
    serialization appends all label pairs and every label with every
    rigid term.
    """

    __slots__ = ("n", "rows", "occurrences", "atom_templates", "fixed",
                 "ineq_colors", "ineq_fixed", "inequalities", "pairs",
                 "complete")

    def __init__(self, code: QueryCode):
        head_positions: dict[Var, int] = {}
        for position, var in enumerate(code.head):
            head_positions.setdefault(var, position)
        self.n = n = len(code.evars)
        self.rows = code.rows
        self.pairs = code.pairs
        self.complete = code.complete
        # Refinement and serialization codes of rigid label ~j; the
        # serialization codes are stored reversed, so that label ~j
        # indexes them from the end.
        fixed_refine = []
        fixed_serial = []
        for term in code.rigid:
            if is_var(term):
                fixed_refine.append((_HEAD, head_positions[term]))
                fixed_serial.append((0, head_positions[term]))
            else:
                constant = (type(term).__name__, repr(term))
                fixed_refine.append((_CONST,) + constant)
                fixed_serial.append((2,) + constant)
        self.fixed = fixed_serial[::-1]

        occurrences: list[list] = [[] for _ in range(n)]
        atom_templates = []
        places: dict[tuple, tuple] = {}
        for atom_index, (relation, labels) in enumerate(code.rows):
            # An occurrence's place is ((relation, arity), position);
            # ``labels.index`` is a label's first position in the atom,
            # the link that records the atom's repetition pattern.
            signature = (relation, len(labels))
            place = places.get(signature)
            if place is None:
                place = places[signature] = tuple(
                    (signature, position) for position in range(len(labels)))
            atom_templates.append([
                (label, labels.index(label)) if label >= 0
                else (None, fixed_refine[~label] + (labels.index(label),))
                for label in labels])
            for position, label in enumerate(labels):
                if label >= 0:
                    occurrences[label].append((place[position], atom_index))
        self.occurrences = occurrences
        self.atom_templates = atom_templates

        ineq_colors: list[list[int]] = [[] for _ in range(n)]
        ineq_fixed: list[list[tuple]] = [[] for _ in range(n)]
        for pair in code.pairs:
            for mine, other in (pair, pair[::-1]):
                if mine < 0:
                    continue
                if other >= 0:
                    ineq_colors[mine].append(other)
                else:
                    ineq_fixed[mine].append(fixed_refine[~other])
        self.ineq_colors = ineq_colors
        self.ineq_fixed = [tuple(sorted(fs)) for fs in ineq_fixed]
        # Refinement signs inequalities only when some variable has a
        # listed one: a signature part equal for every variable orders
        # nothing.
        self.inequalities = any(ineq_colors) or any(ineq_fixed)

    def serialize(self, labeling: list[int]) -> tuple:
        """The hashable normal form under a complete integer labeling:
        existential variables encode as ``(1, label)``, head variables
        as ``(0, first head position)``, constants as ``(2, type name,
        repr)``."""
        marks = [(1, label) for label in labeling] + self.fixed
        atoms = tuple(sorted([
            (relation, tuple([marks[label] for label in labels]))
            for relation, labels in self.rows
        ]))
        if self.complete and not self.pairs and not self.fixed:
            return (atoms, _all_pairs(self.n))
        pairs = [tuple(sorted((marks[x], marks[y]))) for x, y in self.pairs]
        if self.complete:
            pairs += _all_pairs(self.n)
            pairs += [tuple(sorted(((1, x), mark))) for x in range(self.n)
                      for mark in self.fixed]
        return (atoms, tuple(sorted(pairs)))


@lru_cache(maxsize=64)
def _all_pairs(n: int) -> tuple:
    """The serialized inequalities of a complete code on ``n``
    existentials among themselves: every pair of labels, whatever the
    labeling."""
    return tuple(((1, x), (1, y)) for x in range(n) for y in range(x + 1, n))


def _refine(struct: _Structure, colors: list[int]) -> list[int]:
    """Iterated color refinement to a fixpoint.

    New colors are ranks of sorted signatures, so the color *order* is
    itself renaming-invariant — the property the IR tree relies on.
    """
    n = struct.n
    templates = struct.atom_templates
    occurrences = struct.occurrences
    ineq_colors, ineq_fixed = struct.ineq_colors, struct.ineq_fixed
    while True:
        atom_codes = [
            tuple([(_EVAR, colors[label], code) if label is not None
                   else code for label, code in template])
            for template in templates
        ]
        # An occurrence signs as ((relation, arity), position) and the
        # atom's code: the order of (relation, arity, position, code).
        signatures = [
            (colors[i],
             tuple(sorted([(place, atom_codes[atom_index])
                           for place, atom_index in occurrences[i]])))
            for i in range(n)
        ]
        if struct.inequalities:
            signatures = [
                signature + (tuple(sorted([colors[j]
                                           for j in ineq_colors[i]])),
                             ineq_fixed[i])
                for i, signature in enumerate(signatures)
            ]
        ranks = {signature: rank for rank, signature
                 in enumerate(sorted(set(signatures)))}
        refined = [ranks[signature] for signature in signatures]
        if refined == colors:
            return colors
        colors = refined
        if len(ranks) == n:
            return colors


def _individualize(colors: list[int], var_index: int) -> list[int]:
    """Split one variable into its own cell, preceding its cellmates."""
    marks = [(color, 1) for color in colors]
    marks[var_index] = (colors[var_index], 0)
    ranks = {mark: rank for rank, mark in enumerate(sorted(set(marks)))}
    return [ranks[mark] for mark in marks]


def _cells(colors: list[int]) -> list[list[int]]:
    """The ordered partition: cells in color order, members in index
    (= sorted variable name) order."""
    cells: dict[int, list[int]] = {}
    for var_index, color in enumerate(colors):
        cells.setdefault(color, []).append(var_index)
    return [cells[color] for color in sorted(cells)]


def _orbit_union(n: int, generators) -> list[int]:
    """Orbit representative per index under the generated group."""
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != x:
            parent[x], x = root, parent[x]
        return root

    for generator in generators:
        for x in range(n):
            root_a, root_b = find(x), find(generator[x])
            if root_a != root_b:
                parent[root_a] = root_b
    return [find(x) for x in range(n)]


class _CanonicalSearch:
    """One individualization-refinement search over a query structure.

    Tracks the first leaf (automorphism anchor), the best leaf
    (canonical choice, minimal ``(trace, serialization)``), discovered
    automorphism generators, and the first-path branch levels that the
    orbit-stabilizer group-order computation reads afterwards.
    """

    def __init__(self, struct: _Structure):
        self.struct = struct
        self.first_trace: tuple | None = None
        self.first_ser = None
        self.first_inverse: list[int] | None = None
        self.best_trace: tuple | None = None
        self.best_ser = None
        self.best_labeling: list[int] | None = None
        self.best_inverse: list[int] | None = None
        self.generators: list[tuple[int, ...]] = []
        self.first_levels: list[tuple[tuple, int]] = []

    # -- trace comparisons (end-of-trace sorts before any element) -----

    def _prefix_equal(self, trace: tuple, reference: tuple) -> bool:
        if len(trace) > len(reference):
            return False
        return reference[:len(trace)] == trace

    def _prefix_compare(self, trace: tuple, reference: tuple) -> int:
        for ours, theirs in zip(trace, reference):
            if ours != theirs:
                return -1 if ours < theirs else 1
        if len(trace) > len(reference):
            return 1  # the reference path reached its leaf first
        return 0

    def _leaf_compare(self, trace: tuple, serialization) -> int:
        for ours, theirs in zip(trace, self.best_trace):
            if ours != theirs:
                return -1 if ours < theirs else 1
        if len(trace) != len(self.best_trace):
            return -1 if len(trace) < len(self.best_trace) else 1
        if serialization != self.best_ser:
            return -1 if serialization < self.best_ser else 1
        return 0

    # -- the search -----------------------------------------------------

    def run(self) -> None:
        colors = _refine(self.struct, [0] * self.struct.n)
        self._node(colors, 0, (), (), None)

    def _record(self, inverse: list[int], labeling: list[int]) -> None:
        """Derive the automorphism carrying one equal-serialization
        labeling onto another and store it as a generator."""
        generator = tuple(inverse[label] for label in labeling)
        if any(generator[x] != x for x in range(len(generator))):
            self.generators.append(generator)

    def _invert(self, labeling: list[int]) -> list[int]:
        inverse = [0] * len(labeling)
        for var_index, label in enumerate(labeling):
            inverse[label] = var_index
        return inverse

    def _leaf(self, labeling: list[int], trace: tuple, div_depth):
        serialization = self.struct.serialize(labeling)
        if self.first_ser is None:
            self.first_trace = trace
            self.first_ser = serialization
            self.first_inverse = self._invert(labeling)
            self.best_trace = trace
            self.best_ser = serialization
            self.best_labeling = list(labeling)
            self.best_inverse = self.first_inverse
            return None
        if serialization == self.first_ser:
            self._record(self.first_inverse, labeling)
            return div_depth  # subtree ≅ an explored one: backjump
        comparison = self._leaf_compare(trace, serialization)
        if comparison < 0:
            self.best_trace = trace
            self.best_ser = serialization
            self.best_labeling = list(labeling)
            self.best_inverse = self._invert(labeling)
        elif comparison == 0:
            self._record(self.best_inverse, labeling)
        return None

    def _node(self, colors: list[int], depth: int, prefix: tuple,
              trace: tuple, div_depth):
        counts: dict[int, int] = {}
        for color in colors:
            counts[color] = counts.get(color, 0) + 1
        invariant = tuple(sorted(counts.items()))
        trace = trace + (invariant,)
        if self.first_ser is not None:
            equals_first = self._prefix_equal(trace, self.first_trace)
            if (not equals_first
                    and self._prefix_compare(trace, self.best_trace) > 0):
                return None  # holds neither the canonical nor a first-equal leaf
        target = next((cell for cell in _cells(colors) if len(cell) > 1),
                      None)
        if target is None:
            return self._leaf(colors, trace, div_depth)
        if div_depth is None:
            self.first_levels.append((prefix, target[0]))
        explored: list[int] = []
        orbit_map: list[int] | None = None
        seen_generators = -1
        for index, candidate in enumerate(target):
            if explored:
                if len(self.generators) != seen_generators:
                    applicable = [
                        generator for generator in self.generators
                        if all(generator[p] == p for p in prefix)
                    ]
                    orbit_map = (_orbit_union(self.struct.n, applicable)
                                 if applicable else None)
                    seen_generators = len(self.generators)
                if orbit_map is not None and any(
                        orbit_map[candidate] == orbit_map[done]
                        for done in explored):
                    continue
            child_div = div_depth
            if child_div is None and not (index == 0
                                          and self.first_ser is None):
                child_div = depth
            child_colors = _refine(self.struct,
                                   _individualize(colors, candidate))
            signal = self._node(child_colors, depth + 1,
                                prefix + (candidate,), trace, child_div)
            explored.append(candidate)
            if signal is not None:
                if signal < depth:
                    return signal
                # signal == depth: this candidate's subtree was the
                # automorphic image of an explored one; keep looping.
        return None

    def group_order(self) -> int:
        """``|Aut|`` by orbit-stabilizer along the first path."""
        order = 1
        for prefix, chosen in self.first_levels:
            fixing = [generator for generator in self.generators
                      if all(generator[p] == p for p in prefix)]
            if not fixing:
                continue
            orbit_map = _orbit_union(self.struct.n, fixing)
            orbit = orbit_map[chosen]
            order *= orbit_map.count(orbit)
        return order


def compute_canonical_form(query: CQ | QueryCode) -> CanonicalForm:
    """Canonical key, capture-free renaming, ``|Aut|`` and its
    generators in one pass.

    ``query`` is a query or its :class:`~repro.queries.ccq.QueryCode`
    (a query is coded first); both give the same record.
    :class:`repro.api.ContainmentEngine` memoizes it in its observable,
    snapshot-persisted ``canonical`` layer.
    """
    code = query if isinstance(query, QueryCode) else QueryCode.of(query)
    struct = _Structure(code)
    search = _CanonicalSearch(struct)
    search.run()
    labeling = search.best_labeling or []
    key = (code.kind.__name__, len(code.head), search.best_ser)
    fresh = _fresh_vars(frozenset(var.name for var in code.head), struct.n)
    renaming = tuple(zip(code.evars, [fresh[label] for label in labeling]))
    return CanonicalForm(
        key=key,
        renaming=renaming,
        automorphisms=search.group_order(),
        generators=tuple(search.generators),
    )


#: The exported name of the computation.  It memoizes nothing: a
#: caller that needs a memo asks an engine (``context.canonical_form``).
canonical_form = compute_canonical_form
