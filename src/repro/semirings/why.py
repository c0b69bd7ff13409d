"""The why-provenance semiring ``Why[X]`` (Buneman–Khanna–Tan).

An annotation is a *set of witnesses*; each witness is the set of base
tuples used jointly in one derivation.  ``Why[X] = (P(P(X)), ∪, ⋓, ∅,
{∅})`` where ``a ⋓ b = {w1 ∪ w2 : w1 ∈ a, w2 ∈ b}``.

``Why[X]`` is ⊗-*semi*-idempotent (but not ⊗-idempotent: squaring can
create merged witnesses) and ⊕-idempotent.  The paper places it in
``Csur`` (Thm. 4.14): CQ containment is equivalent to the existence of a
surjective homomorphism, and at the UCQ level ``Why[X] ∈ C1sur``
(Cor. 5.18: the local condition ``Q2 ։1 Q1``).

Elements are ``frozenset`` of ``frozenset`` of variable names.
"""

from __future__ import annotations

from .base import Semiring, SemiringProperties

Witness = frozenset


class WhySemiring(Semiring):
    """``Why[X]``: witness sets with union / pairwise-union."""

    name = "Why[X]"
    properties = SemiringProperties(
        add_idempotent=True,
        mul_semi_idempotent=True,
        offset=1,
        in_nhcov=True,
        in_nsur=True,
        in_n1sur=True,
        in_n1hcov=True,
        notes="Csur representative (Thm. 4.14); C1sur at the UCQ level "
              "(Cor. 5.18). Nsur membership is witnessed by the valuation "
              "x ↦ {{x}}; ։∞ is NOT necessary (finite offset 1).",
    )

    def __init__(self, variables: tuple[str, ...] = ()):
        #: Suggested sampling universe.
        self.variables = tuple(variables) or ("x", "y", "z")

    @property
    def zero(self) -> frozenset:
        return frozenset()

    @property
    def one(self) -> frozenset:
        return frozenset((Witness(),))

    def add(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def mul(self, a: frozenset, b: frozenset) -> frozenset:
        return frozenset(w1 | w2 for w1 in a for w2 in b)

    def leq(self, a: frozenset, b: frozenset) -> bool:
        """Natural order: witness-set inclusion."""
        return a <= b

    def var(self, name: str) -> frozenset:
        """The annotation of a base tuple: one singleton witness."""
        return frozenset((Witness((name,)),))

    def sample(self, rng) -> frozenset:
        count = rng.choice((0, 1, 1, 1, 2, 2, 3))
        witnesses = []
        for _ in range(count):
            size = rng.choice((0, 1, 1, 2))
            witnesses.append(Witness(
                rng.sample(self.variables, min(size, len(self.variables)))
            ))
        return frozenset(witnesses)

    def poly_leq(self, p1, p2) -> bool:
        """Decide ``P1 ≼Why P2`` over the private-witness family.

        A violation at an arbitrary valuation is a witness
        ``w ∈ Eval(P1) \\ Eval(P2)`` built from at most ``d`` chosen
        witnesses per variable (``d`` = the largest exponent in ``P1``).
        Shrinking each ``ν(x)`` to exactly the chosen witnesses
        preserves the violation (``Eval(P2)`` only loses elements), and
        *separating* the witnesses into private singletons preserves it
        too: mapping the private tags back onto the original witnesses
        is a semiring morphism ``f`` with ``f ∘ Eval_sep = Eval_orig``,
        so if the separated ``P2`` produced the separated witness, its
        ``f``-image would witness ``w ∈ Eval(P2)`` — contradiction.
        Hence checking all valuations with
        ``ν(x) ⊆ {∅} ∪ {{x·1}, …, {x·d}}`` (plus the empty set = 0) is
        exact.
        """
        from itertools import product as _product

        variables = sorted(p1.variables() | p2.variables())
        depth = max(
            (exp for mono, _ in p1.items() for _, exp in mono.powers),
            default=1,
        )
        per_var_options: dict[str, list[frozenset]] = {}
        for var in variables:
            atoms = [Witness()] + [Witness((f"{var}·{i}",))
                                   for i in range(1, depth + 1)]
            options = []
            for mask in _product((False, True), repeat=len(atoms)):
                options.append(frozenset(
                    atom for atom, chosen in zip(atoms, mask) if chosen))
            per_var_options[var] = options
        for values in _product(*(per_var_options[var] for var in variables)):
            valuation = dict(zip(variables, values))
            if not self.leq(p1.eval_in(self, valuation),
                            p2.eval_in(self, valuation)):
                return False
        return True


#: Singleton why-provenance semiring.
WHY = WhySemiring()
