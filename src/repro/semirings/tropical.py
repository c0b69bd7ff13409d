"""The tropical semiring ``T+`` and the schedule algebra ``T−``.

``T+ = (N0 ∪ {∞}, min, +, ∞, 0)`` models shortest-cost / most-economical
derivations; it is 1-annihilating (``min(0, x) = 0``), so it lies in
``Sin`` — but *not* in ``Nin`` (Ex. 4.6), so injective homomorphisms are
sufficient but not necessary.  Its natural order is the *reversed*
numeric order (``∞`` is the bottom).

``T− = (N0 ∪ {−∞}, max, +, −∞, 0)`` (max-plus / schedule algebra) models
critical-path durations; it is ⊗-semi-idempotent, so surjective
homomorphisms are sufficient (``Ssur``), but it is not in ``Nsur``.  Its
natural order is the usual numeric order.

Neither semiring has a homomorphism characterization, which is precisely
why the paper develops the small-model procedure (Thm. 4.17): both are
⊕-idempotent and their polynomial orders are decidable (Prop. 4.19),
implemented in :mod:`repro.polynomials.tropical_order`.

Elements are non-negative ``int`` values or the appropriate infinity.
"""

from __future__ import annotations

import math

from .base import Semiring, SemiringProperties


class TropicalMinPlusSemiring(Semiring):
    """``T+``: min-plus over ``N0 ∪ {∞}`` (cost semantics)."""

    name = "T+"
    poly_order = "min-plus"
    properties = SemiringProperties(
        one_annihilating=True,
        add_idempotent=True,
        offset=1,
        notes="Sin \\ (Chom ∪ Nin): injective homs sufficient, not "
              "necessary (Ex. 4.6); containment decided by the "
              "small-model procedure (Thm. 4.17, Prop. 4.19).",
    )

    @property
    def zero(self) -> float:
        return math.inf

    @property
    def one(self) -> int:
        return 0

    def add(self, a, b):
        return min(a, b)

    def mul(self, a, b):
        return a + b

    def leq(self, a, b) -> bool:
        """Natural order of min-plus: ``a ≼ b`` iff ``b ≤ a`` numerically
        (``∞``, the additive identity, is the bottom)."""
        return b <= a

    def sample(self, rng):
        return rng.choice((math.inf, 0, 0, 1, 1, 2, 3, 5))

    def vectorized_ops(self):
        from ._vectorized import TropicalMinPlusOps
        return TropicalMinPlusOps()

    def poly_leq(self, p1, p2) -> bool:
        """The plain (uncached) exact decision; engines route this call
        through their certificate memo via ``poly_order``."""
        from ..polynomials.tropical_order import min_plus_poly_leq
        return min_plus_poly_leq(p1, p2)


class TropicalMaxPlusSemiring(Semiring):
    """``T−``: max-plus over ``N0 ∪ {−∞}`` (schedule algebra)."""

    name = "T-"
    poly_order = "max-plus"
    properties = SemiringProperties(
        add_idempotent=True,
        mul_semi_idempotent=True,
        offset=1,
        in_nhcov=True,
        in_n1hcov=True,
        notes="Ssur \\ Nsur: surjective homs sufficient, not necessary; "
              "homomorphic covering IS necessary (Nhcov: set all xi = 0 "
              "and y = 1). Decided by the small-model procedure.",
    )

    @property
    def zero(self) -> float:
        return -math.inf

    @property
    def one(self) -> int:
        return 0

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        return a + b

    def leq(self, a, b) -> bool:
        """Natural order of max-plus: the usual numeric order."""
        return a <= b

    def sample(self, rng):
        return rng.choice((-math.inf, 0, 0, 1, 1, 2, 3, 5))

    def vectorized_ops(self):
        from ._vectorized import TropicalMaxPlusOps
        return TropicalMaxPlusOps()

    def poly_leq(self, p1, p2) -> bool:
        """The plain (uncached) exact decision; engines route this call
        through their certificate memo via ``poly_order``."""
        from ..polynomials.tropical_order import max_plus_poly_leq
        return max_plus_poly_leq(p1, p2)


#: The tropical (min-plus) semiring.
TPLUS = TropicalMinPlusSemiring()

#: The schedule algebra (max-plus).
TMINUS = TropicalMaxPlusSemiring()
