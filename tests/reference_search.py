"""The pre-plan reference homomorphism searcher: a test and benchmark oracle.

This is the original generate-and-test backtracker that
:mod:`repro.homomorphisms.search` replaced with an indexed, plan-driven
matcher: it tries every distinct target atom as a candidate for every
source atom in body order, and checks inequality preservation only
after a full mapping is built.  It is deliberately kept verbatim, but
for its inequality rule, which follows the package's (two distinct
constants, or a pair the target constrains, whatever its terms), so

* ``benchmarks/bench_hom_search.py`` can measure the speedup of the
  indexed search against the exact pre-rewrite baseline, and
* the property tests can assert old/new answer equivalence on random
  query pairs (the two implementations must enumerate the same mapping
  *sets*; enumeration order is not part of the contract).

It lives under ``tests/``, outside the installed package.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.homomorphisms.search import HomKind
from repro.queries.atoms import Atom, Var, is_var
from repro.queries.cq import CQ

__all__ = [
    "reference_homomorphisms",
    "reference_find_homomorphism",
    "reference_has_homomorphism",
]


def _target_inequality_ok(source: CQ, target: CQ, mapping: dict) -> bool:
    """Check inequality preservation for the fully built ``mapping``."""
    source_pairs = getattr(source, "inequalities", frozenset())
    if not source_pairs:
        return True
    target_pairs = getattr(target, "inequalities", frozenset())
    for pair in source_pairs:
        x, y = tuple(pair)
        image_x = mapping.get(x, x)
        image_y = mapping.get(y, y)
        if image_x == image_y:
            return False
        if not is_var(image_x) and not is_var(image_y):
            continue  # two distinct constants are always separated
        if frozenset((image_x, image_y)) in target_pairs:
            continue  # the target keeps the images apart
        return False
    return True


def _compatible(atom: Atom, candidate: Atom, mapping: dict) -> dict | None:
    """Try to extend ``mapping`` so that ``atom`` maps onto ``candidate``."""
    if atom.relation != candidate.relation or atom.arity != candidate.arity:
        return None
    extension: dict | None = None
    for term, image in zip(atom.terms, candidate.terms):
        if is_var(term):
            current = mapping.get(term)
            if extension is not None and term in extension:
                current = extension[term]
            if current is None:
                if extension is None:
                    extension = {}
                extension[term] = image
            elif current != image:
                return None
        elif term != image:
            return None
    if extension is None:
        return mapping
    merged = dict(mapping)
    merged.update(extension)
    return merged


def reference_homomorphisms(source: CQ, target: CQ,
                            kind: HomKind = HomKind.PLAIN) -> Iterator[dict]:
    """Enumerate homomorphisms with the pre-rewrite naive backtracker."""
    if source.arity != target.arity:
        return
    mapping: dict[Var, Any] = {}
    for var, image in zip(source.head, target.head):
        if mapping.setdefault(var, image) != image:
            return
    if kind is HomKind.BIJECTIVE and len(source.atoms) != len(target.atoms):
        return
    if kind is HomKind.SURJECTIVE and len(source.atoms) < len(target.atoms):
        return
    target_counts: dict[Atom, int] = {}
    for atom in target.atoms:
        target_counts[atom] = target_counts.get(atom, 0) + 1
    distinct_targets = tuple(target_counts)
    seen: set = set()
    for result in _search(source.atoms, 0, mapping, distinct_targets,
                          target_counts, {}, kind):
        key = frozenset(result.items())
        if key in seen:
            continue
        seen.add(key)
        if _target_inequality_ok(source, target, result):
            yield result


def _search(atoms: tuple[Atom, ...], index: int, mapping: dict,
            candidates: tuple[Atom, ...], target_counts: dict,
            image_counts: dict, kind: HomKind) -> Iterator[dict]:
    if index == len(atoms):
        if kind in (HomKind.SURJECTIVE, HomKind.BIJECTIVE):
            covered = all(
                image_counts.get(atom, 0) >= count
                for atom, count in target_counts.items()
            )
            if not covered:
                return
        yield dict(mapping)
        return
    atom = atoms[index]
    for candidate in candidates:
        extended = _compatible(atom, candidate, mapping)
        if extended is None:
            continue
        used = image_counts.get(candidate, 0) + 1
        if kind in (HomKind.INJECTIVE, HomKind.BIJECTIVE):
            if used > target_counts[candidate]:
                continue
        image_counts[candidate] = used
        yield from _search(atoms, index + 1, extended, candidates,
                           target_counts, image_counts, kind)
        if used == 1:
            del image_counts[candidate]
        else:
            image_counts[candidate] = used - 1


def reference_find_homomorphism(source: CQ, target: CQ,
                                kind: HomKind = HomKind.PLAIN) -> dict | None:
    """The first homomorphism found by the reference search, or None."""
    for mapping in reference_homomorphisms(source, target, kind):
        return mapping
    return None


def reference_has_homomorphism(source: CQ, target: CQ,
                               kind: HomKind = HomKind.PLAIN) -> bool:
    """Existence check via the reference search."""
    return reference_find_homomorphism(source, target, kind) is not None
