"""Bag semantics ``N`` and the saturating (finite-offset) variants ``N_k``.

``N = (N0, +, ×, 0, 1)`` models SQL bag semantics (Sec. 4).  CQ
``N``-containment is a long-standing open problem and UCQ
``N``-containment is undecidable, so the dispatcher only reports the
paper's *bounds* for ``N``: homomorphic covering (and the UCQ condition
``⇉2``, Cor. 5.23) is necessary, a surjective homomorphism (and the UCQ
condition ``։∞``, Cor. 5.16) is sufficient.

``N_k`` is ``N`` with addition and multiplication saturating at ``k``
(elements ``{0, …, k}``).  Saturation is a semiring quotient of ``N`` and
produces the canonical examples of semirings with *offset exactly k*
(Sec. 5.2): ``k·x = ℓ·x`` for all ``ℓ ≥ k`` but ``(k−1)·1 ≠ k·1``.
Notably ``N_1 ≅ B`` and ``N_2`` is ⊗-idempotent, giving a member of
``S²hcov`` — the paper's ``C2hcov`` row (Thm. 5.24) is exercised with it.
"""

from __future__ import annotations

from itertools import product

from .base import INFINITE_OFFSET, Semiring, SemiringProperties


class NaturalSemiring(Semiring):
    """Bag semantics ``N``: ordinary arithmetic on the naturals."""

    name = "N"
    properties = SemiringProperties(
        mul_semi_idempotent=True,
        offset=INFINITE_OFFSET,
        in_nhcov=True,
        in_n1hcov=True,
        in_n2hcov=True,
        notes="Bag semantics. In Ssur ∩ Nhcov ∩ N2hcov; CQ containment "
              "open, UCQ containment undecidable (Ioannidis-Ramakrishnan).",
    )

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def leq(self, a: int, b: int) -> bool:
        return a <= b

    def sample(self, rng) -> int:
        return rng.choice((0, 0, 1, 1, 1, 2, 2, 3, 5, 7))

    def vectorized_ops(self):
        from ._vectorized import NaturalOps
        return NaturalOps()


class SaturatingNaturalSemiring(Semiring):
    """``N_k``: naturals truncated at ``k`` with saturating operations.

    ``a ⊕ b = min(a + b, k)`` and ``a ⊗ b = min(a · b, k)`` on elements
    ``{0, …, k}``.  The truncation map ``N → N_k`` is a surjective
    semiring morphism, hence ``N_k`` is a positive semiring under the
    usual total order.  Its smallest offset is exactly ``k``.
    """

    def __init__(self, cap: int):
        if cap < 1:
            raise ValueError("cap must be at least 1")
        self.cap = cap
        self.name = f"N_{cap}"
        mul_idempotent = all(
            min(x * x, cap) == x for x in range(cap + 1)
        )
        self.properties = SemiringProperties(
            mul_idempotent=mul_idempotent,
            one_annihilating=(cap == 1),
            add_idempotent=(cap == 1),
            mul_semi_idempotent=True,
            offset=cap,
            # Saturation defeats every covering-necessity axiom: values
            # are bounded by the cap, so x·y ≼ cap·x holds although the
            # right side drops y (e.g. r·s ≼N₂ r + r).  N_k therefore
            # lies in NO necessity class; only bounds are available, and
            # the ⊗-idempotent N_2 gets its sufficient condition from
            # S²hcov (Prop. 5.21).  See semirings/product.py for the
            # C2hcov representative Lin[X] × N₂.
            notes="Saturating bag semantics; smallest offset exactly k. "
                  "N_1 ≅ B; N_2 ∈ S²hcov (⊗-idempotent with offset 2).",
        )

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return min(a + b, self.cap)

    def mul(self, a: int, b: int) -> int:
        return min(a * b, self.cap)

    def leq(self, a: int, b: int) -> bool:
        return a <= b

    def normalize(self, a: int) -> int:
        return min(a, self.cap)

    def sample(self, rng) -> int:
        return rng.randint(0, self.cap)

    def vectorized_ops(self):
        from ._vectorized import SaturatingNaturalOps
        return SaturatingNaturalOps(self.cap)

    def poly_leq(self, p1, p2) -> bool:
        """Decide ``P1 ≼N_k P2`` by exhaustive valuation over ``{0,…,k}``.

        ``N_k`` is finite, so the universally quantified polynomial order
        is decidable by brute force; the search space is ``(k+1)^|X|``.
        """
        variables = sorted(p1.variables() | p2.variables())
        return all(
            self.leq(p1.eval_in(self, dict(zip(variables, values))),
                     p2.eval_in(self, dict(zip(variables, values))))
            for values in product(range(self.cap + 1),
                                  repeat=len(variables))
        )


#: Bag semantics singleton.
N = NaturalSemiring()

#: ``N_2``: the canonical offset-2, ⊗-idempotent semiring (S²hcov).
N2_SATURATING = SaturatingNaturalSemiring(2)

#: ``N_3``: offset-3 example (not ⊗-idempotent).
N3_SATURATING = SaturatingNaturalSemiring(3)
