"""Homomorphism search between conjunctive queries (Sec. 3.3–4.4).

A homomorphism (containment mapping) from ``Q2 = ∃v2 φ2(u2, v2)`` to
``Q1 = ∃v1 φ1(u1, v1)`` maps the variables of ``Q2`` to terms of ``Q1``
such that the head is preserved positionally and every atom of ``φ2``
lands in ``φ1``.  The paper classifies semirings by four refinements,
all acting on the *multiset* image ``h(φ2)`` (each occurrence of a
``Q2``-atom contributes one image occurrence):

* ``PLAIN``      — ``Q2 → Q1``:  every image atom occurs in ``φ1``.
* ``INJECTIVE``  — ``Q2 →֒ Q1``: ``h(φ2) ⊆ φ1`` as multisets.
* ``SURJECTIVE`` — ``Q2 ։ Q1``:  ``φ1 ⊆ h(φ2)`` as multisets.
* ``BIJECTIVE`` — ``Q2 →֒→ Q1``: ``h(φ2) = φ1`` as multisets.

Between CCQs, homomorphisms must additionally *preserve inequalities*:
for each constrained pair ``x ≠ y`` of the source, every valuation of
the target must be guaranteed to separate ``h(x)`` and ``h(y)`` — which
holds exactly when the images are two distinct constants or a pair the
target constrains (two existentials, an existential and a head variable
or constant, or two rigid terms).

Deciding existence is NP-complete for each kind (Cor. 3.4, 4.4, 4.9,
4.15), so the search is engineered rather than naive.  It is an
indexed, plan-driven backtracking join:

* the target is indexed by ``(relation, arity)`` — once per query
  object, cached on the immutable CQ — and each source atom gets a
  static candidate list filtered by its constants and the head
  bindings; an atom with zero candidates refutes immediately;
* source atoms are matched *most-constrained-first*: a greedy plan
  repeatedly picks the atom with the fewest compatible candidates,
  breaking ties toward atoms whose variables are already bound, so
  early clashes prune maximal subtrees;
* bindings are forward-checked against the candidate lists and stored
  in one mutable mapping with trail-based undo (no dict copies on the
  search path);
* inequality preservation is checked *incrementally* as each pair of
  constrained variables becomes fully bound, instead of post-hoc on
  complete mappings;
* ``SURJECTIVE``/``BIJECTIVE`` branches additionally maintain the
  still-uncovered target multiset and are cut as soon as the remaining
  source atoms — counted per ``(relation, arity)`` profile — can no
  longer cover it.

The enumeration contract matches the original generate-and-test
searcher (kept as a test oracle in ``tests/reference_search.py``): the same
*set* of deduplicated variable mappings is produced, though not
necessarily in the same order.

:func:`hom_kernels` reads the same search at a coarser grain: the
distinct *kernels* of the mappings, i.e. which existential variables of
the source a homomorphism identifies and which it maps onto a head
variable or constant.  In a CCQ every pair of distinct existentials is
constrained, and so is every existential with every rigid term, so the
occurrence ``m/π`` of a complete description ``⟨m⟩`` maps into a CCQ
``c`` iff some homomorphism ``m → c`` has kernel ``π`` — the UCQ
conditions count ``⟨Q2⟩`` occurrences this way without ever building
``⟨Q2⟩``.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Iterator

from ..queries.atoms import Atom, Var, is_var
from ..queries.ccq import QueryCode
from ..queries.cq import CQ

__all__ = [
    "HomKind",
    "homomorphisms",
    "hom_kernels",
    "find_homomorphism",
    "has_homomorphism",
]

_UNBOUND = object()


class HomKind(Enum):
    """The four homomorphism refinements of the paper."""

    PLAIN = "plain"
    INJECTIVE = "injective"
    SURJECTIVE = "surjective"
    BIJECTIVE = "bijective"


def _relation_profile(atoms) -> dict[tuple[str, int], int]:
    """Occurrence counts per ``(relation, arity)`` signature."""
    profile: dict[tuple[str, int], int] = {}
    for atom in atoms:
        key = (atom.relation, len(atom.terms))
        profile[key] = profile.get(key, 0) + 1
    return profile


def _target_info(target: CQ):
    """Per-target matching structures, computed once per CQ object.

    Returns ``(target_counts, index, target_profile)`` where ``index``
    maps ``(relation, arity)`` to the distinct atoms of that signature.
    Cached on the (immutable) query.
    """
    cache = target._hom_cache
    info = cache.get("target")
    if info is None:
        target_counts: dict[Atom, int] = {}
        index: dict[tuple[str, int], tuple[Atom, ...]] = {}
        buckets: dict[tuple[str, int], list[Atom]] = {}
        profile: dict[tuple[str, int], int] = {}
        for atom in target.atoms:
            key = (atom.relation, len(atom.terms))
            profile[key] = profile.get(key, 0) + 1
            count = target_counts.get(atom)
            if count is None:
                target_counts[atom] = 1
                buckets.setdefault(key, []).append(atom)
            else:
                target_counts[atom] = count + 1
        for key, bucket in buckets.items():
            index[key] = tuple(bucket)
        info = (target_counts, index, profile)
        cache["target"] = info
    return info


def _rigid_labels(target: CQ) -> dict:
    """The target's rigid terms (head variables and constants) by
    identity, each with its :class:`~repro.queries.ccq.QueryCode` label
    ``~j``: empty when the target has none.  Cached."""
    cache = target._hom_cache
    labels = cache.get("rigid")
    if labels is None:
        code = QueryCode.of(target)
        labels = {(type(term), term): ~j
                  for j, term in enumerate(code.rigid)}
        cache["rigid"] = labels
    return labels


def _source_info(source: CQ):
    """Per-source matching structures, computed once per CQ object.

    Returns ``(atom_vars, neighbors, source_profile)``: the distinct
    variables of each body atom (in body order), the inequality
    adjacency of the source variables, and the ``(relation, arity)``
    occurrence profile.  Cached.
    """
    cache = source._hom_cache
    info = cache.get("source")
    if info is None:
        atom_vars = []
        grounded = []
        for atom in source.atoms:
            distinct: dict[Var, None] = {}
            constants = False
            for term in atom.terms:
                if is_var(term):
                    distinct[term] = None
                else:
                    constants = True
            atom_vars.append(tuple(distinct))
            grounded.append(constants)
        neighbors: dict[Var, tuple[Any, ...]] = {}
        for pair in getattr(source, "inequalities", frozenset()):
            x, y = tuple(pair)
            for var, partner in ((x, y), (y, x)):
                if is_var(var):
                    neighbors[var] = neighbors.get(var, ()) + (partner,)
        info = (tuple(atom_vars), tuple(grounded), neighbors,
                _relation_profile(source.atoms))
        cache["source"] = info
    return info


def _static_candidates(atom: Atom, bucket: tuple[Atom, ...],
                       mapping: dict) -> tuple[Atom, ...]:
    """The distinct target atoms ``atom`` could map onto given only its
    constants and the (head) bindings of ``mapping``."""
    result = []
    for candidate in bucket:
        for term, image in zip(atom.terms, candidate.terms):
            if is_var(term):
                bound = mapping.get(term, _UNBOUND)
                if bound is not _UNBOUND and bound != image:
                    break
            elif term != image:
                break
        else:
            result.append(candidate)
    return tuple(result)


def _plan_order(counts: list[int], atom_vars: list[tuple[Var, ...]],
                bound: set) -> tuple[int, ...]:
    """Greedy most-constrained-first ordering of the source atoms.

    Repeatedly picks the unplanned atom minimizing (candidate count,
    unbound-variable count, original position); planning an atom binds
    its variables for subsequent picks.
    """
    total = len(counts)
    if total <= 1:
        return tuple(range(total))
    if total == 2:
        first, second = counts
        if second < first:
            return (1, 0)
        if second == first:
            unbound = [sum(1 for v in atom_vars[i] if v not in bound)
                       for i in (0, 1)]
            if unbound[1] < unbound[0]:
                return (1, 0)
        return (0, 1)
    bound = set(bound)
    remaining = list(range(total))
    order: list[int] = []
    while remaining:
        best = -1
        best_key = None
        for i in remaining:
            unbound = 0
            for var in atom_vars[i]:
                if var not in bound:
                    unbound += 1
            key = (counts[i], unbound, i)
            if best_key is None or key < best_key:
                best_key = key
                best = i
        remaining.remove(best)
        order.append(best)
        bound.update(atom_vars[best])
    return tuple(order)


def homomorphisms(source: CQ, target: CQ,
                  kind: HomKind = HomKind.PLAIN) -> Iterator[dict]:
    """Enumerate the homomorphisms of the given kind from ``source`` to
    ``target`` (deduplicated on the variable mapping).

    Queries must have equal arity; the head is matched positionally
    (``h(u2) = u1``).
    """
    seen: set[frozenset] = set()
    for mapping in _search(source, target, kind):
        key = frozenset(mapping.items())
        if key not in seen:
            seen.add(key)
            yield dict(mapping)


def hom_kernels(member: CQ, target: CQ, kind: HomKind = HomKind.PLAIN,
                limit: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The distinct kernels of the ``kind`` homomorphisms
    ``member → target``, in enumeration order, at most ``limit`` of
    them (all when ``limit`` is None).

    A kernel is the partition of ``member.existential_vars()`` that a
    homomorphism induces, with its bindings, coded as one label per
    variable: a variable mapped to a rigid term of the target (a head
    variable or a constant) gets that term's
    :class:`~repro.queries.ccq.QueryCode` label ``~j`` in the target's
    code, and the others block numbers by first appearance:
    ``(0, 1, 0)`` identifies the first and third variable and keeps the
    second apart, and ``(0, -1)`` maps the second onto the target's
    first rigid term.
    """
    if limit is not None and limit < 1:
        return ()
    variables = member.existential_vars()
    rigid = _rigid_labels(target)
    kernels: dict[tuple[int, ...], None] = {}
    for mapping in _search(member, target, kind):
        labels: dict = {}
        kernel = tuple(_block_label(mapping[var], labels, rigid)
                       for var in variables)
        if kernel not in kernels:
            kernels[kernel] = None
            if len(kernels) == limit:
                break
    return tuple(kernels)


def _block_label(image, labels: dict, rigid: dict) -> int:
    """A variable's kernel label: its image's ``~j`` when that is a
    rigid term of the target, else its block's number (numbered by
    first appearance in ``labels``)."""
    label = rigid.get((type(image), image))
    return labels.setdefault(image, len(labels)) if label is None else label


def _search(source: CQ, target: CQ, kind: HomKind) -> Iterator[dict]:
    """The backtracking search behind :func:`homomorphisms`.

    Yields its one live mapping dict at every solution: the caller must
    read it before advancing the generator, and never keep or mutate it.
    """
    if source.arity != target.arity:
        return
    mapping: dict[Var, Any] = {}
    for var, image in zip(source.head, target.head):
        current = mapping.setdefault(var, image)
        if current != image:
            return
    source_atoms = source.atoms
    n_source, n_target = len(source_atoms), len(target.atoms)
    covering = kind is HomKind.SURJECTIVE or kind is HomKind.BIJECTIVE
    capped = kind is HomKind.INJECTIVE or kind is HomKind.BIJECTIVE
    if kind is HomKind.BIJECTIVE and n_source != n_target:
        return
    if kind is HomKind.SURJECTIVE and n_source < n_target:
        return

    target_counts, index, target_profile = _target_info(target)
    atom_vars, grounded, neighbors, source_profile = _source_info(source)

    # -- relation-profile feasibility for the covering kinds ------------
    if covering:
        if kind is HomKind.BIJECTIVE:
            if source_profile != target_profile:
                return
        else:
            for signature, need in target_profile.items():
                if need > source_profile.get(signature, 0):
                    return

    # -- inequality preservation machinery ------------------------------
    if neighbors:
        target_pairs = getattr(target, "inequalities", frozenset())

        def pair_separated(image_x, image_y) -> bool:
            # Separated on every valuation of the target: two distinct
            # constants, or a pair the target constrains (existentials,
            # an existential and a rigid term, or two rigid terms).
            if image_x == image_y:
                return False
            if not is_var(image_x) and not is_var(image_y):
                return True
            return frozenset((image_x, image_y)) in target_pairs

        # Pairs of a head variable with a head variable or a constant
        # are fully bound before the search.
        if mapping:
            for x, partners in neighbors.items():
                image_x = mapping.get(x, _UNBOUND)
                if image_x is _UNBOUND:
                    continue
                for y in partners:
                    image_y = mapping.get(y, _UNBOUND) if is_var(y) else y
                    if (image_y is not _UNBOUND
                            and not pair_separated(image_x, image_y)):
                        return
    else:
        pair_separated = None  # type: ignore[assignment]

    # -- static candidate lists and the matching plan -------------------
    candidates: list[tuple[Atom, ...]] = []
    counts: list[int] = []
    unconstrained = not mapping
    for position, atom in enumerate(source_atoms):
        bucket = index.get((atom.relation, len(atom.terms)))
        if not bucket:
            return
        if unconstrained and not grounded[position]:
            options = bucket  # nothing to filter on yet
        else:
            options = _static_candidates(atom, bucket, mapping)
            if not options:
                return
        candidates.append(options)
        counts.append(len(options))
    order = _plan_order(counts, atom_vars, mapping)
    plan_atoms = tuple(source_atoms[i] for i in order)
    plan_candidates = tuple(candidates[i] for i in order)

    # -- covering bookkeeping (SURJECTIVE / BIJECTIVE only) -------------
    # suffix_profiles[p]: what plan positions >= p can still contribute,
    # per (relation, arity) signature; compared against the uncovered
    # target multiset to cut doomed branches early.
    suffix_profiles: list[dict[tuple[str, int], int]] = []
    uncovered: dict[Atom, int] = {}
    uncovered_profile: dict[tuple[str, int], int] = {}
    uncovered_total = 0
    if covering:
        profile: dict[tuple[str, int], int] = {}
        suffix_profiles.append(profile)
        for atom in reversed(plan_atoms):
            profile = dict(profile)
            key = (atom.relation, len(atom.terms))
            profile[key] = profile.get(key, 0) + 1
            suffix_profiles.append(profile)
        suffix_profiles.reverse()
        uncovered = dict(target_counts)
        uncovered_profile = dict(target_profile)
        uncovered_total = n_target
    capacity: dict[Atom, int] = dict(target_counts) if capped else {}

    # -- flat iterative backtracking over the plan ----------------------
    n = n_source
    cursors = [0] * n
    trails: list[list[Var]] = [[] for _ in range(n)]
    frame_choice: list[Atom | None] = [None] * n
    frame_covered = [False] * n
    mapping_get = mapping.get
    pos = 0
    while True:
        atom = plan_atoms[pos]
        options = plan_candidates[pos]
        total = len(options)
        cursor = cursors[pos]
        advanced = False
        while cursor < total:
            candidate = options[cursor]
            cursor += 1
            if capped and not capacity[candidate]:
                continue
            # forward-check the binding, trailing newly bound variables
            trail: list[Var] = []
            ok = True
            for term, image in zip(atom.terms, candidate.terms):
                if is_var(term):
                    current = mapping_get(term, _UNBOUND)
                    if current is _UNBOUND:
                        mapping[term] = image
                        trail.append(term)
                    elif current != image:
                        ok = False
                        break
                elif term != image:
                    ok = False
                    break
            if ok and neighbors and trail:
                # incremental inequality preservation on the new pairs
                for var in trail:
                    partners = neighbors.get(var)
                    if not partners:
                        continue
                    image_x = mapping[var]
                    for partner in partners:
                        image_y = (mapping_get(partner, _UNBOUND)
                                   if is_var(partner) else partner)
                        if (image_y is not _UNBOUND
                                and not pair_separated(image_x, image_y)):
                            ok = False
                            break
                    if not ok:
                        break
            if not ok:
                for var in trail:
                    del mapping[var]
                continue
            covered_here = False
            if covering:
                need = uncovered.get(candidate, 0)
                if need:
                    covered_here = True
                    uncovered[candidate] = need - 1
                    uncovered_profile[(candidate.relation,
                                       len(candidate.terms))] -= 1
                    uncovered_total -= 1
                # prune: can the remaining atoms still cover the rest?
                feasible = uncovered_total <= n - pos - 1
                if feasible and uncovered_total:
                    remaining = suffix_profiles[pos + 1]
                    for signature, need in uncovered_profile.items():
                        if need and need > remaining.get(signature, 0):
                            feasible = False
                            break
                if not feasible:
                    if covered_here:
                        uncovered[candidate] += 1
                        uncovered_profile[(candidate.relation,
                                           len(candidate.terms))] += 1
                        uncovered_total += 1
                    for var in trail:
                        del mapping[var]
                    continue
            if capped:
                capacity[candidate] -= 1
            cursors[pos] = cursor
            trails[pos] = trail
            frame_choice[pos] = candidate
            frame_covered[pos] = covered_here
            advanced = True
            break
        if advanced:
            pos += 1
            if pos < n:
                cursors[pos] = 0
                continue
            if not uncovered_total:  # always 0 for the non-covering kinds
                yield mapping
            pos -= 1
        else:
            cursors[pos] = 0
            pos -= 1
            if pos < 0:
                return
        # undo the frame at `pos` before retrying its next candidate
        candidate = frame_choice[pos]
        if capped:
            capacity[candidate] += 1
        if frame_covered[pos]:
            uncovered[candidate] += 1
            uncovered_profile[(candidate.relation,
                               len(candidate.terms))] += 1
            uncovered_total += 1
        for var in trails[pos]:
            del mapping[var]


def find_homomorphism(source: CQ, target: CQ,
                      kind: HomKind = HomKind.PLAIN) -> dict | None:
    """The first homomorphism of the given kind, or None."""
    for mapping in homomorphisms(source, target, kind):
        return mapping
    return None


def has_homomorphism(source: CQ, target: CQ,
                     kind: HomKind = HomKind.PLAIN) -> bool:
    """Existence check: ``Q2 → Q1`` / ``→֒`` / ``։`` / ``→֒→``."""
    return find_homomorphism(source, target, kind) is not None
