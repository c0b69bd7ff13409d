"""The absorptive polynomial semiring ``Sorp[X] = N[X] / (1 + x = 1)``.

Imposing the 1-annihilation axiom on provenance polynomials collapses
``c·m`` to ``m`` (since ``1 + 1 = 1``) and absorbs every monomial that is
divisible by another present monomial (``m + m·q = m``).  The normal form
is an *antichain of monomials under divisibility* — like ``PosBool[X]``
but retaining exponents, so ⊗-idempotence fails while 1-annihilation
holds.

``Sorp[X]`` is the free 1-annihilating semiring, making it the canonical
representative of ``Cin`` (Thm. 4.9): CQ containment over it is
equivalent to the existence of an injective homomorphism.  Membership in
``Nin`` (and in ``N¹in``, giving ``C1in`` at the UCQ level, Thm. 5.6) is
witnessed by the generator valuation ``x ↦ {x}``: then ``x1⋯xn ≼ P`` iff
some monomial of ``P`` divides ``x1⋯xn``, i.e. ``P`` contains a
square-free monomial over a subset of the variables — exactly the
``Nin`` conclusion.

Elements are ``frozenset`` of :class:`Monomial`, pairwise incomparable
under divisibility.
"""

from __future__ import annotations

from ..polynomials.polynomial import Monomial
from .base import Semiring, SemiringProperties


def _absorb(monomials) -> frozenset:
    """Keep only division-minimal monomials."""
    monomials = set(monomials)
    return frozenset(
        mono for mono in monomials
        if not any(other.strictly_divides(mono) for other in monomials)
    )


class AbsorptivePolynomialSemiring(Semiring):
    """``Sorp[X]``: antichains of monomials under divisibility."""

    name = "Sorp[X]"
    properties = SemiringProperties(
        one_annihilating=True,
        add_idempotent=True,
        offset=1,
        in_nin=True,
        in_n1in=True,
        notes="Free Sin-semiring: Cin representative (Thm. 4.9) and C1in "
              "at the UCQ level (Thm. 5.6). Not ⊗-(semi-)idempotent: "
              "x·y ⋠ x²·y since x²y does not divide xy.",
    )

    def __init__(self, variables: tuple[str, ...] = ()):
        #: Suggested sampling universe.
        self.variables = tuple(variables) or ("x", "y", "z")

    @property
    def zero(self) -> frozenset:
        return frozenset()

    @property
    def one(self) -> frozenset:
        return frozenset((Monomial.unit(),))

    def add(self, a: frozenset, b: frozenset) -> frozenset:
        return _absorb(a | b)

    def mul(self, a: frozenset, b: frozenset) -> frozenset:
        return _absorb(m1.mul(m2) for m1 in a for m2 in b)

    def leq(self, a: frozenset, b: frozenset) -> bool:
        """Natural order: every monomial of ``a`` is divisible by one of
        ``b`` (i.e. ``b`` absorbs ``a``)."""
        return all(any(mb.divides(ma) for mb in b) for ma in a)

    def normalize(self, a: frozenset) -> frozenset:
        return _absorb(a)

    def var(self, name: str) -> frozenset:
        """The annotation consisting of a single variable."""
        return frozenset((Monomial.variable(name),))

    def sample(self, rng) -> frozenset:
        count = rng.choice((0, 1, 1, 1, 2, 2))
        monomials = []
        for _ in range(count):
            degree = rng.choice((0, 1, 1, 2, 2, 3))
            word = tuple(rng.choice(self.variables) for _ in range(degree))
            monomials.append(Monomial.from_variables(word))
        return _absorb(monomials)

    def poly_leq(self, p1, p2) -> bool:
        """Decide ``P1 ≼Sorp P2`` at the generic valuation.

        1-annihilation is an equational axiom, so ``Sorp[X]`` is the
        *free* algebra of its variety and the order is natural
        (``a ≼ b`` iff ``a + b = b``).  Any valuation into any
        1-annihilating semiring factors through the generic one
        ``x ↦ {x}`` by freeness, and semiring morphisms preserve
        natural orders — hence checking the generic valuation decides
        the universal polynomial order exactly (this is the same
        argument that witnesses ``Sorp[X] ∈ Nin``).
        """
        valuation = {
            var: self.var(var) for var in p1.variables() | p2.variables()
        }
        return self.leq(p1.eval_in(self, valuation),
                        p2.eval_in(self, valuation))


#: Singleton absorptive polynomial semiring.
SORP = AbsorptivePolynomialSemiring()
