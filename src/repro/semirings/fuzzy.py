"""The fuzzy semiring ``F = ([0, 1], max, min, 0, 1)``.

Annotations are membership degrees (fuzzy set theory).  ``F`` is a
distributive lattice — a totally ordered one — so it satisfies both
⊗-idempotence and 1-annihilation and lies in ``Chom``: fuzzy containment
of CQs and UCQs coincides with classical set-semantics containment.

Elements are exact :class:`fractions.Fraction` values in ``[0, 1]``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .base import Semiring, SemiringProperties

_SAMPLES = (
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
    Fraction(2, 3), Fraction(1, 4), Fraction(3, 4),
)


class FuzzySemiring(Semiring):
    """``F``: max/min over membership degrees."""

    name = "F"
    properties = SemiringProperties(
        mul_idempotent=True,
        one_annihilating=True,
        add_idempotent=True,
        mul_semi_idempotent=True,
        offset=1,
        notes="Totally ordered distributive lattice; Chom member.",
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
        return min(a, b)

    def leq(self, a: Fraction, b: Fraction) -> bool:
        return a <= b

    def sample(self, rng) -> Fraction:
        return rng.choice(_SAMPLES)

    def poly_leq(self, p1, p2) -> bool:
        """In a chain lattice it suffices to compare on valuations drawn
        from a set with more points than variables; we use a dense grid
        of fractions, which is exact for min/max polynomials because
        only the relative order of variable values matters."""
        variables = sorted(p1.variables() | p2.variables())
        grid = [Fraction(i, max(len(variables), 1) + 1)
                for i in range(len(variables) + 2)]
        return all(
            p1.eval_in(self, dict(zip(variables, values)))
            <= p2.eval_in(self, dict(zip(variables, values)))
            for values in product(grid, repeat=len(variables))
        )


#: Singleton fuzzy semiring.
FUZZY = FuzzySemiring()
