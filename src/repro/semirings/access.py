"""The access-control (clearance) semiring.

A total order of confidentiality levels::

    public < confidential < secret < top-secret < nobody

A joint use of two tuples requires the *stricter* clearance (``⊗`` is
max-restriction) while alternative derivations take the *laxer* one
(``⊕`` is min-restriction).  ``0`` is "nobody can see this" and ``1`` is
"public".  As a finite chain this is a distributive lattice, hence a
``Chom`` member.

Elements are small integers (indices into :data:`LEVELS`).
"""

from __future__ import annotations

from itertools import product

from .base import Semiring, SemiringProperties

#: Clearance levels from least to most restricted.
LEVELS = ("public", "confidential", "secret", "top-secret", "nobody")


class AccessControlSemiring(Semiring):
    """Security clearance levels with min/max combination."""

    name = "A"
    properties = SemiringProperties(
        mul_idempotent=True,
        one_annihilating=True,
        add_idempotent=True,
        mul_semi_idempotent=True,
        offset=1,
        notes="Finite chain lattice; Chom member (data security "
              "clearances).",
    )

    @property
    def zero(self) -> int:
        return len(LEVELS) - 1  # nobody

    @property
    def one(self) -> int:
        return 0  # public

    def add(self, a: int, b: int) -> int:
        """Alternative derivations: the laxer clearance wins."""
        return min(a, b)

    def mul(self, a: int, b: int) -> int:
        """Joint derivations: the stricter clearance wins."""
        return max(a, b)

    def leq(self, a: int, b: int) -> bool:
        """Natural order: more restricted ≼ less restricted."""
        return b <= a

    def sample(self, rng) -> int:
        return rng.randrange(len(LEVELS))

    def level(self, name: str) -> int:
        """Look up a level index by its name."""
        return LEVELS.index(name)

    def poly_leq(self, p1, p2) -> bool:
        """Exhaustive check over the finite chain."""
        variables = sorted(p1.variables() | p2.variables())
        return all(
            self.leq(p1.eval_in(self, dict(zip(variables, values))),
                     p2.eval_in(self, dict(zip(variables, values))))
            for values in product(range(len(LEVELS)), repeat=len(variables))
        )


#: Singleton access-control semiring.
ACCESS = AccessControlSemiring()
