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
    its capture-free canonical name; ``labeling`` maps it to its
    canonical integer label; ``automorphisms`` is the order of the
    automorphism group (existential renamings fixing the query), and
    ``generators`` generate that group: each is a permutation of the
    indices of ``query.existential_vars()``, variable ``i`` going to
    variable ``generator[i]``.
    """

    key: tuple
    renaming: tuple[tuple[Var, Var], ...]
    labeling: tuple[tuple[Var, int], ...]
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
    forbidden = {var.name for var in query.head}
    labels: list[str] = []
    index = 0
    while len(labels) < count:
        name = f"e{index}"
        if name not in forbidden:
            labels.append(name)
        index += 1
    return labels


#: Leading tags of the term encodings used *inside refinement*: an
#: existential encodes as ``(_EVAR, color, link)``, a head variable as
#: ``(_HEAD, first head position, link)``, a constant as ``(_CONST,
#: type name, repr, link)`` — disjoint tags keep mixed comparisons
#: int-vs-int at every tuple position.
_EVAR, _HEAD, _CONST = 0, 1, 2


class _Structure:
    """Integer-indexed incidence view of one query.

    Existential variables become indices ``0..n-1`` (in sorted-name
    order); every per-variable table below is a list indexed by them,
    so the refinement loop touches no ``Var`` hashing at all.
    """

    __slots__ = ("query", "evars", "n", "atom_signatures", "occurrences",
                 "atom_templates", "serial_templates", "ineq_colors",
                 "ineq_fixed", "ineq_serial", "head_positions")

    def __init__(self, query: CQ):
        self.query = query
        head_positions: dict[Var, int] = {}
        for position, var in enumerate(query.head):
            head_positions.setdefault(var, position)
        self.head_positions = head_positions
        head = set(query.head)
        body_vars = {v for atom in query.atoms for v in atom.variables()}
        self.evars = tuple(sorted(body_vars - head))
        self.n = len(self.evars)
        index = {var: i for i, var in enumerate(self.evars)}

        def fixed_refine_code(term) -> tuple:
            if is_var(term):
                return (_HEAD, head_positions[term])
            return (_CONST, type(term).__name__, repr(term))

        def fixed_serial_code(term) -> tuple:
            if is_var(term):
                return (0, head_positions[term])
            return (2, type(term).__name__, repr(term))

        occurrences: list[list] = [[] for _ in self.evars]
        atom_templates = []
        serial_templates = []
        atom_signatures = []
        for atom_index, atom in enumerate(query.atoms):
            atom_signatures.append((atom.relation, len(atom.terms)))
            first_seen: dict = {}
            refine_entries = []
            serial_entries = []
            for position, term in enumerate(atom.terms):
                link = first_seen.setdefault(term, position)
                var_index = index.get(term) if is_var(term) else None
                if var_index is None:
                    refine_entries.append(
                        (None, fixed_refine_code(term) + (link,)))
                    serial_entries.append((None, fixed_serial_code(term)))
                else:
                    occurrences[var_index].append((atom_index, position))
                    refine_entries.append((var_index, link))
                    serial_entries.append((var_index, None))
            atom_templates.append(tuple(refine_entries))
            serial_templates.append((atom.relation, tuple(serial_entries)))
        self.atom_signatures = tuple(atom_signatures)
        self.occurrences = [tuple(occ) for occ in occurrences]
        self.atom_templates = tuple(atom_templates)
        self.serial_templates = tuple(serial_templates)

        pairs = getattr(query, "inequalities", frozenset())
        ineq_colors: list[list[int]] = [[] for _ in self.evars]
        ineq_fixed: list[list[tuple]] = [[] for _ in self.evars]
        ineq_serial = []
        for pair in pairs:
            x, y = tuple(pair)
            xi, yi = index.get(x), index.get(y)
            for mine, other, other_index in ((xi, y, yi), (yi, x, xi)):
                if mine is None:
                    continue
                if other_index is not None:
                    ineq_colors[mine].append(other_index)
                else:
                    ineq_fixed[mine].append(fixed_refine_code(other))
            ineq_serial.append((
                (xi, None) if xi is not None else (None, fixed_serial_code(x)),
                (yi, None) if yi is not None else (None, fixed_serial_code(y)),
            ))
        self.ineq_colors = [tuple(ns) for ns in ineq_colors]
        self.ineq_fixed = [tuple(sorted(fs)) for fs in ineq_fixed]
        self.ineq_serial = tuple(ineq_serial)

    def serialize(self, labeling: list[int]) -> tuple:
        """The hashable normal form under a complete integer labeling:
        existential variables encode as ``(1, label)``, head variables
        as ``(0, first head position)``, constants as ``(2, type name,
        repr)``."""
        atoms = tuple(sorted(
            (relation, tuple(
                (1, labeling[var_index]) if var_index is not None else fixed
                for var_index, fixed in entries))
            for relation, entries in self.serial_templates
        ))

        def encode(entry):
            var_index, fixed = entry
            return (1, labeling[var_index]) if var_index is not None \
                else fixed

        inequalities = tuple(sorted(
            tuple(sorted((encode(x), encode(y))))
            for x, y in self.ineq_serial
        ))
        return (atoms, inequalities)


def _refine(struct: _Structure, colors: list[int]) -> list[int]:
    """Iterated color refinement to a fixpoint.

    New colors are ranks of sorted signatures, so the color *order* is
    itself renaming-invariant — the property the IR tree relies on.
    """
    n = struct.n
    while True:
        atom_codes = [
            tuple((_EVAR, colors[entry[0]], entry[1])
                  if entry[0] is not None else entry[1]
                  for entry in template)
            for template in struct.atom_templates
        ]
        signatures = []
        for i in range(n):
            occurrence_sig = sorted(
                (struct.atom_signatures[atom_index], position,
                 atom_codes[atom_index])
                for atom_index, position in struct.occurrences[i]
            )
            ineq_sig = sorted(colors[j] for j in struct.ineq_colors[i])
            signatures.append((colors[i], tuple(occurrence_sig),
                               tuple(ineq_sig), struct.ineq_fixed[i]))
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


def compute_canonical_form(query: CQ) -> CanonicalForm:
    """Canonical key, capture-free renaming, ``|Aut|`` and its
    generators in one pass.

    This is the uncached computation; callers wanting process-wide
    memoization use :func:`canonical_form`, and
    :class:`repro.api.ContainmentEngine` routes it through its own
    observable, snapshot-persisted LRU layer instead.
    """
    struct = _Structure(query)
    search = _CanonicalSearch(struct)
    search.run()
    labeling = search.best_labeling or []
    key = (type(query).__name__, query.arity, search.best_ser)
    labels = fresh_existential_labels(query, struct.n)
    renaming = tuple(
        (var, Var(labels[labeling[i]]))
        for i, var in enumerate(struct.evars))
    named_labeling = tuple(
        (var, labeling[i]) for i, var in enumerate(struct.evars))
    return CanonicalForm(
        key=key,
        renaming=renaming,
        labeling=named_labeling,
        automorphisms=search.group_order(),
        generators=tuple(search.generators),
    )


@lru_cache(maxsize=8192)
def canonical_form(query: CQ) -> CanonicalForm:
    """Process-wide memo of :func:`compute_canonical_form`.

    Queries are immutable, so the form is a pure function of the query.
    This default memo backs the plain module functions and
    :class:`repro.core.DecisionContext`; engines carry their own LRU so
    the layer shows up in ``cache_stats()`` and snapshots.
    """
    return compute_canonical_form(query)
