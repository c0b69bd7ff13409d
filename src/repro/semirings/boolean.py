"""The set-semantics semiring ``B`` (Sec. 3.3).

``B = ({false, true}, ∨, ∧, false, true)`` models ordinary relational
databases: a tuple is annotated ``true`` iff it belongs to the relation.
The order is ``false ≼ true``.  ``B`` satisfies both ⊗-idempotence and
1-annihilation, so it belongs to ``Chom``: CQ containment over ``B`` is
exactly the classical Chandra–Merlin homomorphism criterion.
"""

from __future__ import annotations

from .base import Semiring, SemiringProperties


class BooleanSemiring(Semiring):
    """Set semantics ``B``: or/and over ``{False, True}``."""

    name = "B"
    properties = SemiringProperties(
        mul_idempotent=True,
        one_annihilating=True,
        add_idempotent=True,
        mul_semi_idempotent=True,
        offset=1,
        notes="Chom representative (Thm. 3.3); equals type A' systems of "
              "Ioannidis-Ramakrishnan.",
    )

    @property
    def zero(self) -> bool:
        return False

    @property
    def one(self) -> bool:
        return True

    def add(self, a: bool, b: bool) -> bool:
        return a or b

    def mul(self, a: bool, b: bool) -> bool:
        return a and b

    def leq(self, a: bool, b: bool) -> bool:
        return (not a) or b

    def sample(self, rng) -> bool:
        return rng.random() < 0.5

    def vectorized_ops(self):
        from ._vectorized import BooleanOps
        return BooleanOps()

    def poly_leq(self, p1, p2) -> bool:
        """``P1 ≼B P2`` by exhaustive boolean valuations.

        A monomial evaluates to the conjunction of its variables and a
        polynomial to the disjunction of its monomials, so ``P1 ≼B P2``
        iff every variable set satisfying some monomial of ``P1``
        satisfies some monomial of ``P2`` — checked monomial-wise: for
        each monomial of ``P1``, setting exactly its variables true must
        make ``P2`` true.
        """
        for mono, _ in p1.items():
            true_vars = mono.variables()
            satisfied = any(
                other.variables() <= true_vars for other, _ in p2.items()
            )
            if not satisfied:
                return False
        return True


#: Singleton instance of the boolean semiring.
B = BooleanSemiring()
