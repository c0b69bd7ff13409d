"""Brute-force semantic refutation of containment claims.

``Q1 ⊆K Q2`` quantifies over *all* K-instances, so no finite search can
confirm it — but a single witnessing instance refutes it, and the
paper's completeness proofs show that when containment fails for the
classified semirings, a witness lives on a *canonical instance* of the
complete description ``⟨Q1⟩`` under some valuation of its tags.  The
oracle therefore searches:

1. every canonical instance ``⟦Q⟧`` for ``Q ∈ ⟨Q1⟩`` (relative to the
   constants of both queries, in every head pattern), evaluating both
   queries once as ``N[X]`` polynomials and then sweeping valuations of
   the tag variables over a sampled element pool (exhaustively when the
   grid is small, randomly otherwise); and
2. random small instances, as a safety net beyond the canonical family.

The test suite uses the oracle in both directions: a procedure's
``True`` must never be refuted, and its ``False`` should be witnessed
(for the exactly-characterized classes the canonical search succeeds by
the paper's own arguments).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Any, Iterator

from ..data.canonical import canonical_instance
from ..data.instance import Instance
from ..queries.ccq import (complete_description, head_patterns,
                           rigid_constants)
from ..queries.evaluation import evaluate_all
from ..queries.ucq import UCQ, as_ucq

__all__ = ["Counterexample", "combined_schema", "find_counterexample",
           "refutes"]


def combined_schema(q1: UCQ, q2: UCQ) -> dict[str, int]:
    """The union schema of both queries, validated.

    Random witness search must populate every relation either side
    mentions — a relation appearing only in ``q2`` still shapes the
    right-hand answers, and leaving it empty silently weakens the
    search.  A relation used with two different arities across the
    queries can never be populated consistently, so that is an error
    rather than a silent overwrite.
    """
    schema = dict(q1.schema())
    for relation, arity in q2.schema().items():
        known = schema.setdefault(relation, arity)
        if known != arity:
            raise ValueError(
                f"relation {relation!r} used with arity {known} in Q1 "
                f"but {arity} in Q2")
    return schema


@dataclass(frozen=True)
class Counterexample:
    """A witnessing instance for ``Q1 ⊄K Q2``."""

    instance: Instance
    target: tuple
    lhs: Any
    rhs: Any
    source: str

    def __repr__(self) -> str:
        return (f"Counterexample(source={self.source}, target={self.target},"
                f" lhs={self.lhs!r} ⋠ rhs={self.rhs!r})")


def _valuation_grid(tags: tuple[str, ...], pool: list,
                    rng: random.Random, budget: int) -> Iterator[dict]:
    """Valuations of the tag variables over ``pool``: exhaustive when
    they fit in ``budget``, else random draws."""
    total = len(pool) ** len(tags)
    if total <= budget:
        for values in product(pool, repeat=len(tags)):
            yield dict(zip(tags, values))
        return
    for _ in range(budget):
        yield {tag: rng.choice(pool) for tag in tags}


def _generic_valuation(semiring, tags: tuple[str, ...]) -> dict | None:
    """The "abstractly tagged" valuation: each tag goes to its own fresh
    generator of the semiring (for the polynomial-like semirings that
    expose ``var``).  This is where the completeness proofs of the
    ``Nin``/``Nsur``/``C∞bi`` classes place their witnesses."""
    var = getattr(semiring, "var", None)
    if var is None:
        return None
    return {tag: var(tag) for tag in tags}


def _test_ccqs(q1: UCQ, q2: UCQ) -> Iterator:
    """The CCQs whose canonical instances the search tries: ``⟨P1⟩``
    for every head pattern ``(P1, P2)`` of the pair
    (:func:`repro.queries.ccq.head_patterns`), relative to the
    pattern's constants."""
    for _, p1, p2 in head_patterns(q1, q2):
        constants = rigid_constants((*p1, *p2))
        for member in p1:
            yield from complete_description(member, constants)


def _canonical_search(q1: UCQ, q2: UCQ, semiring, pool: list,
                      rng: random.Random, budget: int) -> Counterexample | None:
    from ..semirings.provenance import NX

    for ccq in _test_ccqs(q1, q2):
        tagged = canonical_instance(ccq)
        domain = tuple(ccq.variables()) + ccq.constants()
        # One evaluation per (instance, query): every answer of both
        # queries over ⟦ccq⟧ is computed in a single join sweep, and
        # the per-target loop below becomes dictionary lookups
        # (targets without an entry evaluate to the zero polynomial).
        left_answers = evaluate_all(q1, tagged.instance, NX)
        right_answers = evaluate_all(q2, tagged.instance, NX)
        zero_poly = NX.zero
        for target in product(domain, repeat=q1.arity):
            left_poly = left_answers.get(target, zero_poly)
            right_poly = right_answers.get(target, zero_poly)
            valuations = []
            generic = _generic_valuation(semiring, tagged.tag_names)
            if generic is not None:
                valuations.append(generic)
            for valuation in valuations + list(_valuation_grid(
                    tagged.tag_names, pool, rng, budget)):
                lhs = left_poly.eval_in(semiring, valuation)
                rhs = right_poly.eval_in(semiring, valuation)
                if not semiring.leq(lhs, rhs):
                    witness = tagged.instance.map_annotations(
                        semiring,
                        lambda poly: poly.eval_in(semiring, valuation))
                    return Counterexample(witness, target, lhs, rhs,
                                          source=f"canonical ⟦{ccq!r}⟧")
    return None


def _random_instances(schema: dict[str, int], semiring,
                      rng: random.Random, rounds: int,
                      domain_size: int) -> Iterator[Instance]:
    domain = tuple(range(domain_size))
    for _ in range(rounds):
        relations: dict[str, dict[tuple, Any]] = {}
        for relation, arity in schema.items():
            table: dict[tuple, Any] = {}
            for row in product(domain, repeat=arity):
                if rng.random() < 0.55:
                    table[row] = semiring.sample(rng)
            relations[relation] = table
        yield Instance(semiring, relations)


def _random_search(q1: UCQ, q2: UCQ, semiring, rng: random.Random,
                   rounds: int, domain_size: int) -> Counterexample | None:
    schema = combined_schema(q1, q2)
    arity = q1.arity
    for instance in _random_instances(schema, semiring, rng, rounds,
                                      domain_size):
        domain = tuple(range(domain_size))
        # As in the canonical search: evaluate each query once per
        # instance, then sweep targets as lookups.
        lhs_answers = evaluate_all(q1, instance)
        rhs_answers = evaluate_all(q2, instance)
        for target in product(domain, repeat=arity):
            lhs = lhs_answers.get(target, semiring.zero)
            rhs = rhs_answers.get(target, semiring.zero)
            if not semiring.leq(lhs, rhs):
                return Counterexample(instance, target, lhs, rhs,
                                      source="random")
    return None


def find_counterexample(q1, q2, semiring, rng: random.Random | None = None,
                        pool_size: int = 4, budget: int = 3000,
                        random_rounds: int = 40,
                        domain_size: int = 2) -> Counterexample | None:
    """Search for an instance and tuple witnessing ``Q1 ⊄K Q2``.

    Returns None when no witness was found (which never *confirms*
    containment — it merely fails to refute it).
    """
    rng = rng or random.Random(7)
    q1, q2 = as_ucq(q1), as_ucq(q2)
    if q1.is_empty():
        return None
    pool = semiring.sample_pool(rng, pool_size)
    witness = _canonical_search(q1, q2, semiring, pool, rng, budget)
    if witness is not None:
        return witness
    return _random_search(q1, q2, semiring, rng, random_rounds, domain_size)


def refutes(q1, q2, semiring, **kwargs) -> bool:
    """True iff the oracle finds a counterexample to ``Q1 ⊆K Q2``."""
    return find_counterexample(q1, q2, semiring, **kwargs) is not None
