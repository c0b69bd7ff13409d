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
query pair, from the class rows of ``⟨Q1⟩``, as distinct canonical
pairs, and a context may memoize it across semirings (the engine's
``small_models`` layer).
"""

from __future__ import annotations

from itertools import product

from ..data.canonical import canonical_instance
from ..polynomials.admissible import canonical_pair
from ..polynomials.polynomial import Polynomial
from ..queries.ccq import head_patterns, rigid_constants
from ..queries.evaluation import evaluate_all
from ..queries.ucq import as_ucq
from .context import resolve_context

__all__ = ["small_model_contained", "small_model_pairs"]


def small_model_pairs(q1, q2, *, context=None
                      ) -> tuple[tuple[Polynomial, Polynomial], ...]:
    """The distinct polynomial comparisons of the small-model test set.

    Each test point of Thm. 4.17 — a CCQ ``Q`` of ``⟨Q1⟩`` and a head
    tuple ``t`` over its terms — gives the pair ``(Q1^⟦Q⟧(t),
    Q2^⟦Q⟧(t))`` of ``N[X]`` polynomials in the canonical form of
    :func:`repro.polynomials.admissible.canonical_pair`; the result
    lists each once, in first-test order.  ``⟨Q1⟩`` is read per head
    pattern (:func:`repro.queries.ccq.head_patterns`), relative to the
    constants of both queries, from ``context.complete_description``
    (``None``: a fresh engine).  Isomorphic CCQs give renamed
    polynomials and every polynomial order is invariant under
    renaming, so a class row's representative stands for its class:
    its canonical instance is built, and each side evaluated, once.
    """
    from ..semirings.provenance import NX

    context = resolve_context(context)
    q1, q2 = as_ucq(q1), as_ucq(q2)
    pairs: dict = {}
    for _, p1, p2 in head_patterns(q1, q2):
        for row in context.complete_description(
                p1, rigid_constants((*p1, *p2))):
            ccq = row.representative
            instance = canonical_instance(ccq).instance
            left, right = (evaluate_all(p, instance, NX) for p in (p1, p2))
            domain = tuple(ccq.variables()) + ccq.constants()
            for target in product(domain, repeat=ccq.arity):
                pair = canonical_pair(left.get(target, NX.zero),
                                      right.get(target, NX.zero))
                pairs.setdefault(pair[:2], None)
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
