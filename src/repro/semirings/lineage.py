"""The lineage semiring ``Lin[X]`` (Cui–Widom–Wiener).

An annotation is either ``⊥`` ("no derivation") or the *set* of base
tuples that the output tuple depends on.  Formally
``Lin[X] = (P(X) ∪ {⊥}, +, ·, ⊥, ∅)`` where both ``+`` and ``·`` are set
union on proper sets, ``⊥`` is the additive identity and multiplicatively
absorbing.  ``Lin[X]`` is ⊗-idempotent but not 1-annihilating, and the
paper places it in ``Chcov`` (Sec. 4.1): CQ containment over ``Lin[X]``
is equivalent to homomorphic covering ``Q2 ⇉ Q1``, and at the UCQ level
``Lin[X] ∈ C1hcov`` (Thm. 5.24 with ``k = 1``).

Elements here are ``None`` (for ``⊥``) or ``frozenset`` of variable
names.
"""

from __future__ import annotations

from .base import Semiring, SemiringProperties

#: The bottom annotation ``⊥`` ("tuple absent / no lineage").
BOTTOM = None


class LineageSemiring(Semiring):
    """``Lin[X]``: sets of contributing tuple identifiers, plus ``⊥``."""

    name = "Lin[X]"
    properties = SemiringProperties(
        mul_idempotent=True,
        add_idempotent=True,
        mul_semi_idempotent=True,
        offset=1,
        in_nhcov=True,
        in_n1hcov=True,
        notes="Chcov representative (Thm. 4.3); C1hcov at the UCQ level "
              "(Thm. 5.24, complexity first shown for Lin[X] in Green'11).",
    )

    def __init__(self, variables: tuple[str, ...] = ()):
        #: Suggested sampling universe.
        self.variables = tuple(variables) or ("x", "y", "z")

    @property
    def zero(self):
        return BOTTOM

    @property
    def one(self) -> frozenset:
        return frozenset()

    def add(self, a, b):
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        return a | b

    def mul(self, a, b):
        if a is BOTTOM or b is BOTTOM:
            return BOTTOM
        return a | b

    def leq(self, a, b) -> bool:
        """Natural order: ``⊥`` below everything, sets ordered by ``⊆``."""
        if a is BOTTOM:
            return True
        if b is BOTTOM:
            return False
        return a <= b

    def var(self, name: str) -> frozenset:
        """The lineage of a single base tuple."""
        return frozenset((name,))

    def sample(self, rng):
        if rng.random() < 0.2:
            return BOTTOM
        size = rng.choice((0, 1, 1, 2))
        return frozenset(rng.sample(self.variables, min(size, len(self.variables))))

    def poly_leq(self, p1, p2) -> bool:
        """Decide ``P1 ≼Lin P2`` over the three-valued valuation family.

        A violation of ``Eval(P1) ⊆ Eval(P2)`` at an arbitrary valuation
        is witnessed by one tuple id ``t``; replacing the valuation by
        ``x ↦ ⊥`` (where it was ⊥), ``x ↦ {•}`` (where it contained
        ``t``) and ``x ↦ ∅ = 1`` (elsewhere) preserves the violation,
        because a monomial survives iff it avoids the ⊥-set, and ``•``
        appears in a surviving monomial's value iff the monomial uses a
        ``t``-containing variable.  So checking every valuation with
        values in ``{⊥, 1, {•}}`` is exact (3^|X| checks).
        """
        from itertools import product as _product

        variables = sorted(p1.variables() | p2.variables())
        marker = frozenset(("•",))
        for values in _product((BOTTOM, frozenset(), marker),
                               repeat=len(variables)):
            valuation = dict(zip(variables, values))
            if not self.leq(p1.eval_in(self, valuation),
                            p2.eval_in(self, valuation)):
                return False
        return True


#: Singleton lineage semiring.
LIN = LineageSemiring()
