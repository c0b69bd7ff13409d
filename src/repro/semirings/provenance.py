"""Provenance polynomial semirings: ``N[X]``, ``B[X]`` and ``N_k[X]``.

``N[X]`` (Green–Karvounarakis–Tannen) is the most general annotation
domain: by Prop. 3.2 it is universal for all positive semirings, and by
Thm. 4.10 / Prop. 5.9 CQ and UCQ containment over it are characterized by
bijective homomorphisms and the isomorphism-counting condition
``⟨Q2⟩ →֒∞ ⟨Q1⟩`` respectively (class ``C∞bi``).

``B[X]`` replaces the natural-number coefficients with booleans; it is
universal for the ⊕-idempotent semirings ``S¹`` and sits in ``C1bi``
(Thm. 5.13 with ``k = 1``).

``N_k[X]`` caps coefficients at ``k`` with saturating coefficient
arithmetic, the polynomial analogue of :class:`~repro.semirings.natural.
SaturatingNaturalSemiring`.  It has smallest offset exactly ``k`` and is
our representative for the intermediate classes ``Ckbi`` of Thm. 5.13
(``→֒k``); this membership is a reconstruction validated against the
brute-force oracle (the paper defers the ``Nkbi`` axioms to its full
version).
"""

from __future__ import annotations

from ..polynomials.polynomial import Monomial, Polynomial
from .base import INFINITE_OFFSET, Semiring, SemiringProperties


class ProvenancePolynomialSemiring(Semiring):
    """``N[X]`` or its coefficient-capped quotient ``N_k[X]``.

    ``coefficient_cap=None`` gives ``N[X]``; ``coefficient_cap=k`` applies
    saturating coefficient arithmetic (so ``k = 1`` is ``B[X]``).
    Elements are :class:`~repro.polynomials.polynomial.Polynomial` values
    (already normalized for ``N[X]``; capping re-normalizes coefficients).

    The order is the natural order, which for these semirings amounts to
    coefficient-wise ``≤`` (after capping).
    """

    def __init__(self, variables: tuple[str, ...] = (),
                 coefficient_cap: int | None = None):
        if coefficient_cap is not None and coefficient_cap < 1:
            raise ValueError("coefficient cap must be at least 1")
        #: Suggested sampling variables (the domain itself is open-ended).
        self.variables = tuple(variables) or ("x", "y", "z")
        self.coefficient_cap = coefficient_cap
        if coefficient_cap is None:
            self.name = "N[X]"
            offset = INFINITE_OFFSET
        elif coefficient_cap == 1:
            self.name = "B[X]"
            offset = 1
        else:
            self.name = f"N_{coefficient_cap}[X]"
            offset = coefficient_cap
        self.properties = SemiringProperties(
            add_idempotent=(coefficient_cap == 1),
            offset=offset,
            in_nin=True,
            in_nsur=True,
            in_nhcov=True,
            in_n1bi=(coefficient_cap == 1),
            in_nk_bi=(coefficient_cap is not None and coefficient_cap >= 2),
            in_ninf_bi=(coefficient_cap is None),
            notes="Cbi = Nin ∩ Nsur (Thm. 4.10). N[X] ∈ C∞bi (Prop. 5.10), "
                  "B[X] ∈ C1bi, N_k[X] ∈ Ckbi (reconstruction).",
        )

    # ------------------------------------------------------------------

    def _cap(self, poly: Polynomial) -> Polynomial:
        if self.coefficient_cap is None:
            return poly
        cap = self.coefficient_cap
        return Polynomial(
            (mono, min(coeff, cap)) for mono, coeff in poly.items()
        )

    @property
    def zero(self) -> Polynomial:
        return Polynomial.zero()

    @property
    def one(self) -> Polynomial:
        return Polynomial.one()

    def add(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return self._cap(a.add(b))

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return self._cap(a.mul(b))

    def leq(self, a: Polynomial, b: Polynomial) -> bool:
        """Natural order: coefficient-wise ``≤`` (coefficients capped)."""
        return self._cap(a).natural_leq(self._cap(b))

    def normalize(self, a: Polynomial) -> Polynomial:
        return self._cap(a)

    def var(self, name: str) -> Polynomial:
        """The annotation consisting of the single variable ``name``."""
        return Polynomial.variable(name)

    def sample(self, rng) -> Polynomial:
        """A random small polynomial over the sampling variables."""
        term_count = rng.choice((0, 1, 1, 2, 2, 3))
        terms = []
        for _ in range(term_count):
            degree = rng.choice((0, 1, 1, 2))
            word = tuple(rng.choice(self.variables) for _ in range(degree))
            coeff = rng.choice((1, 1, 1, 2, 3))
            terms.append((Monomial.from_variables(word), coeff))
        return self._cap(Polynomial(terms))

    def poly_leq(self, p1, p2) -> bool:
        """Decide ``P1 ≼ P2`` at the generic valuation ``x ↦ x``.

        ``N[X]`` is the free commutative semiring over ``X`` and
        ``N_k[X]`` the free one of the variety with the (equational)
        offset axiom ``k·a = (k+1)·a``; in both cases any valuation into
        the semiring factors through the generic one by freeness, and
        morphisms preserve the natural (coefficient-wise) order — so the
        generic comparison decides the universal polynomial order.
        """
        valuation = {
            var: Polynomial.variable(var)
            for var in p1.variables() | p2.variables()
        }
        return self.leq(p1.eval_in(self, valuation),
                        p2.eval_in(self, valuation))


#: Provenance polynomials ``N[X]`` — the universal semiring.
NX = ProvenancePolynomialSemiring()

#: Boolean provenance polynomials ``B[X]`` — universal for ``S¹``.
BX = ProvenancePolynomialSemiring(coefficient_cap=1)

#: Coefficient-capped provenance polynomials with offset exactly 2.
N2X = ProvenancePolynomialSemiring(coefficient_cap=2)

#: Coefficient-capped provenance polynomials with offset exactly 3.
N3X = ProvenancePolynomialSemiring(coefficient_cap=3)
