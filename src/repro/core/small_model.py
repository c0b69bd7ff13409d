"""The small-model containment procedure (Thm. 4.17, Prop. 4.19).

For ⊕-idempotent semirings ``K``, CQ containment reduces to finitely
many comparisons of CQ-admissible polynomials:

    ``Q1 ⊆K Q2``  iff  ``Q1^⟦Q⟧(t) ≼K Q2^⟦Q⟧(t)``
    for every CCQ ``Q ∈ ⟨Q1⟩`` and every tuple ``t`` of variables of
    ``Q``

where ``⟦Q⟧`` is the canonical ``N[X]``-instance of the CCQ.  Whenever
the polynomial order ``≼K`` is decidable (tropical semirings: LP,
Prop. 4.19; finite or lattice semirings: exhaustive valuation) this
decides containment — covering exactly the semirings (``T+``, ``T−``,
Viterbi-style) that have *no* homomorphism characterization.

We also apply the procedure to UCQs: for ⊕-idempotent ``K``, a sum is
below a value iff each summand is (positivity + idempotence), so
``Q1 ⊆K Q2`` reduces to the same canonical-instance tests ranging over
the CCQs of ``⟨Q1⟩``.  This extension is validated against the
brute-force oracle in the test suite.

The polynomials depend on ``(Q1, Q2)`` alone; only the final order
check depends on ``K`` (the universality of provenance polynomials).
:func:`small_model_pairs` therefore computes the test set once per
query pair, as distinct canonical pairs, and a context may memoize it
across semirings (the engine's ``small_models`` layer).
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from ..data.canonical import canonical_instance
from ..polynomials.admissible import canonical_pair
from ..polynomials.polynomial import Polynomial
from ..queries.ccq import (CQWithInequalities, complete_description,
                           head_patterns, rigid_constants)
from ..queries.evaluation import evaluate
from ..queries.ucq import as_ucq
from .context import resolve_context

__all__ = ["small_model_contained", "small_model_pairs", "small_model_tests"]


def small_model_tests(q1, constants
                      ) -> Iterator[tuple[CQWithInequalities, tuple]]:
    """The canonical test points of Thm. 4.17: each CCQ of ``⟨Q1⟩``
    (relative to ``constants``, the pair's constants) paired with each
    head tuple over its variables and constants."""
    for member in as_ucq(q1):
        for ccq in complete_description(member, constants):
            domain = tuple(ccq.variables()) + ccq.constants()
            for target in product(domain, repeat=ccq.arity):
                yield ccq, target


def small_model_pairs(q1, q2) -> tuple[tuple[Polynomial, Polynomial], ...]:
    """The distinct polynomial comparisons of the small-model test set.

    Each test point ``(Q, t)`` of :func:`small_model_tests` contributes
    the pair ``(Q1^⟦Q⟧(t), Q2^⟦Q⟧(t))`` of ``N[X]`` polynomials, put in
    the canonical form of
    :func:`repro.polynomials.admissible.canonical_pair`; the result
    lists each canonical pair once, in the order of its first test.

    ``⟨Q1⟩`` is taken relative to the constants of both queries, so
    a test instance may identify an existential with a constant of
    ``Q2``, and once per head pattern
    (:func:`repro.queries.ccq.head_patterns`), so a test instance may
    identify two head variables, or a head variable with a constant.
    The pairs depend on the two queries only — the semiring enters
    through the order check alone — and every polynomial order is
    invariant under variable renaming, so ``P1 ≼K P2`` holds for every
    test iff it holds for every listed pair.  Each CCQ's canonical
    instance is built once for all of its targets.
    """
    from ..semirings.provenance import NX

    q1, q2 = as_ucq(q1), as_ucq(q2)
    pairs: dict = {}
    built = instance = None
    for _, p1, p2 in head_patterns(q1, q2):
        for ccq, target in small_model_tests(p1,
                                             rigid_constants((*p1, *p2))):
            if ccq is not built:  # the targets of one CCQ arrive together
                built, instance = ccq, canonical_instance(ccq).instance
            left = evaluate(p1, instance, target, NX)
            right = evaluate(p2, instance, target, NX)
            pairs.setdefault(canonical_pair(left, right)[:2], None)
    return tuple(pairs)


def small_model_contained(q1, q2, semiring, *, context=None) -> bool:
    """Decide ``Q1 ⊆K Q2`` via canonical-instance polynomial comparison.

    Requires ``semiring`` to be ⊕-idempotent and to implement
    ``poly_leq`` (Thm. 4.17 / Cor. 4.18).  The test set comes from
    ``context.small_model_pairs`` and every comparison is routed
    through ``context.poly_leq`` (``None``: a fresh engine), so an
    engine memoizes the pairs per query pair and the LP-backed order
    decisions per canonical pair.
    """
    if not semiring.properties.add_idempotent:
        raise ValueError(
            f"the small-model procedure needs an ⊕-idempotent semiring; "
            f"{semiring.name} is not (Thm. 4.17 applies to S¹ only)")
    context = resolve_context(context)
    return all(context.poly_leq(semiring, c1, c2)
               for c1, c2 in context.small_model_pairs(as_ucq(q1),
                                                       as_ucq(q2)))
