"""The free ordered ⊗-semi-idempotent semiring ``Ssur[X]``.

``Ssur`` is defined by an *order* axiom (``a·b ≼ a·a·b``), so its
universal object is not a quotient of ``N[X]`` but ``N[X]`` equipped
with the *smallest positive order satisfying the axiom*: the order
generated by

* ``0 ≼ P`` and ⊕-monotonicity (positivity, Prop. 3.1), and
* ``a·b ≼ a·a·b`` for all elements.

Every generating step either adds monomials or raises an exponent of a
variable already present, so the generated order has a concrete normal
form: ``P ≼ Q`` iff the monomial occurrences of ``P`` can be assigned
injectively (respecting coefficients) to occurrences of ``Q`` with the
*same variable support* and *pointwise-greater-or-equal exponents* —
a bipartite matching problem, decided on distinct monomials with their
coefficients as demand and capacity
(:func:`repro.homomorphisms.matching.saturates`).

``Ssur[X]`` is the paper's "universal semiring of Ssur" (Sec. 5.3) and
our representative for the ``C∞sur`` row: UCQ containment over it is
decided by the Hall-matching condition ``⟨Q2⟩ ։∞ ⟨Q1⟩`` (Thm. 5.17) —
a membership validated against the brute-force oracle.  (``Trio[X]``,
in contrast, is *not* in ``N¹sur`` ⊇ ``N∞sur``, so at the UCQ level the
paper gives it bounds only; see `trio.py`.)
"""

from __future__ import annotations

from ..homomorphisms.matching import saturates
from ..polynomials.polynomial import Monomial, Polynomial
from .base import INFINITE_OFFSET, Semiring, SemiringProperties

__all__ = ["SsurFreeSemiring", "SSUR"]


def _dominates(target: Monomial, source: Monomial) -> bool:
    """Same support, exponent-wise ``≥`` — one semi-idempotence chain."""
    if target.variables() != source.variables():
        return False
    target_powers = dict(target.powers)
    return all(exp <= target_powers[var] for var, exp in source.powers)


class SsurFreeSemiring(Semiring):
    """``Ssur[X]``: provenance polynomials under the semi-idempotence
    order."""

    name = "Ssur[X]"
    properties = SemiringProperties(
        mul_semi_idempotent=True,
        offset=INFINITE_OFFSET,
        in_nhcov=True,
        in_nsur=True,
        in_n1sur=True,
        in_ninf_sur=True,
        notes="Free ordered Ssur semiring: the C∞sur representative "
              "(Thm. 5.17); its order is the matching-generated closure "
              "of a·b ≼ a·a·b. N∞sur ⊆ N1sur (compose the Hall matching "
              "with the quotient maps), so both flags hold.",
    )

    def __init__(self, variables: tuple[str, ...] = ()):
        #: Suggested sampling universe.
        self.variables = tuple(variables) or ("x", "y", "z")

    @property
    def zero(self) -> Polynomial:
        return Polynomial.zero()

    @property
    def one(self) -> Polynomial:
        return Polynomial.one()

    def add(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return a.add(b)

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return a.mul(b)

    def leq(self, a: Polynomial, b: Polynomial) -> bool:
        """Injective support-preserving exponent-raising assignment.

        Each distinct monomial of ``a`` demands its coefficient, each
        monomial of ``b`` supplies its coefficient; ``a ≼ b`` iff the
        capacitated matching meets every demand (Hall's condition on
        the coefficient-expanded occurrences).
        """
        left = list(a.items())
        right = list(b.items())

        def edges(i: int) -> list[int]:
            return [j for j, (target, _) in enumerate(right)
                    if _dominates(target, left[i][0])]

        return saturates([coeff for _, coeff in left],
                         [coeff for _, coeff in right], edges)

    def var(self, name: str) -> Polynomial:
        """The annotation consisting of a single variable."""
        return Polynomial.variable(name)

    def sample(self, rng) -> Polynomial:
        term_count = rng.choice((0, 1, 1, 2, 2))
        terms = []
        for _ in range(term_count):
            degree = rng.choice((1, 1, 2, 2, 3))
            word = tuple(rng.choice(self.variables) for _ in range(degree))
            coeff = rng.choice((1, 1, 2))
            terms.append((Monomial.from_variables(word), coeff))
        return Polynomial(terms)


#: Singleton free ordered Ssur semiring.
SSUR = SsurFreeSemiring()
