"""The per-test small-model loop: a test oracle.

Before the small-model test set was computed once per query pair
(:func:`repro.core.small_model.small_model_pairs`), the procedure of
Thm. 4.17 walked every test point ``(Q, t)`` of ``⟨Q1⟩``, built the
canonical instance ``⟦Q⟧``, evaluated both queries on it and asked the
polynomial order of the raw pair — no canonical renaming, no
deduplication, no per-pair cache.  That loop is kept here, outside
the installed package, in the way ``tests/reference_quotient.py`` keeps
the variable-level quotient: the differential tests check the cached
path against it.  Its ``⟨Q⟩`` and head patterns are the variable-level
ones of ``tests/reference_quotient.py``.
"""

from __future__ import annotations

from itertools import product

from repro.data.canonical import canonical_instance
from repro.queries.evaluation import evaluate
from repro.queries.ucq import as_ucq
from repro.semirings.provenance import NX
from tests.reference_quotient import (pair_constants,
                                      reference_complete_description,
                                      reference_head_patterns)

__all__ = ["reference_small_model_contained"]


def reference_small_model_contained(q1, q2, semiring, *,
                                    context=None) -> bool:
    """``Q1 ⊆K Q2`` by comparing ``Q1^⟦Q⟧(t) ≼K Q2^⟦Q⟧(t)`` at every
    test point, stopping at the first failure: every CCQ ``Q`` of
    ``⟨P1⟩`` relative to the pair's constants, for every head pattern
    ``(P1, P2)``, and every tuple ``t`` over its terms.

    With ``context=None`` each comparison is the semiring's own
    ``poly_leq``; otherwise it goes through ``context.poly_leq``.
    """
    if not semiring.properties.add_idempotent:
        raise ValueError(f"{semiring.name} is not ⊕-idempotent")
    q1, q2 = as_ucq(q1), as_ucq(q2)
    constants = pair_constants(q1, q2)
    for _, p1, p2 in reference_head_patterns(q1, q2):
        for member in p1:
            for ccq in reference_complete_description(member, constants):
                tagged = canonical_instance(ccq)
                domain = tuple(ccq.variables()) + ccq.constants()
                for target in product(domain, repeat=p1.arity):
                    left = evaluate(p1, tagged.instance, target, NX)
                    right = evaluate(p2, tagged.instance, target, NX)
                    holds = (semiring.poly_leq(left, right)
                             if context is None
                             else context.poly_leq(semiring, left, right))
                    if not holds:
                        return False
    return True
