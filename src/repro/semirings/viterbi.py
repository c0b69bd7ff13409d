"""The Viterbi semiring ``V = ([0, 1], max, ·, 0, 1)``.

Annotations are confidence scores; query evaluation computes the
confidence of the best derivation.  ``V`` is isomorphic to the tropical
semiring over the reals via ``a ↦ −log a``, and behaves like ``T+`` in
the classification: 1-annihilating (``max(1, x) = 1``), hence in ``Sin``
and ⊕-idempotent, but not in ``Nin`` (the Ex. 4.6 counterexample
transfers: ``x1² + 2x1x2 + x2² =V x1² + x2²`` because
``x1x2 ≤ max(x1, x2)²``).

Elements are exact :class:`fractions.Fraction` values in ``[0, 1]`` so
that the algebra is associative on the nose (floats would violate the
axioms in the last ulp and trip the auditor).
"""

from __future__ import annotations

from fractions import Fraction

from .base import Semiring, SemiringProperties

_SAMPLES = (
    Fraction(0), Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 3),
    Fraction(2, 3), Fraction(1, 4), Fraction(3, 4), Fraction(1, 8),
)


class ViterbiSemiring(Semiring):
    """``V``: best-derivation confidence scores."""

    name = "V"
    poly_order = "min-plus"
    properties = SemiringProperties(
        one_annihilating=True,
        add_idempotent=True,
        offset=1,
        notes="Sin member isomorphic to real-valued T+ via −log; "
              "not in Nin (Ex. 4.6 transfers). The isomorphism makes "
              "the T+ polynomial-order LP decide ≼V, so the small-model "
              "procedure (Cor. 4.18) applies.",
    )

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return max(a, b)

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def leq(self, a: Fraction, b: Fraction) -> bool:
        """Natural order: the usual order on ``[0, 1]``."""
        return a <= b

    def sample(self, rng) -> Fraction:
        return rng.choice(_SAMPLES)

    def poly_leq(self, p1, p2) -> bool:
        """Decide ``P1 ≼V P2`` through the −log isomorphism.

        ``a ↦ −log a`` carries ``([0,1], max, ×)`` onto the real-valued
        min-plus semiring (``0 ↦ ∞``), reversing the order direction the
        same way ``T+``'s natural order reverses the numeric one — so
        ``P1 ≼V P2`` iff ``P1 ≼T+ P2`` read over real exponents, which
        is exactly what the min-plus decision answers: it decides its
        homogeneous linear systems over the rationals, which for integer
        systems is feasibility over the reals, and tropical addition
        absorbs coefficients on both sides of the isomorphism.
        """
        from ..polynomials.tropical_order import min_plus_poly_leq
        return min_plus_poly_leq(p1, p2)


#: Singleton Viterbi semiring.
VITERBI = ViterbiSemiring()
