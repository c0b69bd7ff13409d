"""Positive boolean expressions ``PosBool[X]`` (Imieliński–Lipski).

The free distributive lattice over ``X``: boolean formulas built from
variables with ``∨`` and ``∧`` only, modulo logical equivalence.  Used to
annotate incomplete databases (c-tables).  The canonical representation
is an irredundant DNF: an *antichain* of variable sets (no set contains
another).

As a distributive lattice, ``PosBool[X]`` satisfies both ⊗-idempotence
and 1-annihilation, so it lies in ``Chom`` (Sec. 3.3): containment is
decided by ordinary homomorphisms.

Elements are ``frozenset`` of ``frozenset`` of variable names, kept
antichain-minimal.
"""

from __future__ import annotations

from .base import Semiring, SemiringProperties


def _minimalize(clauses) -> frozenset:
    """Drop clauses that are supersets of other clauses (absorption)."""
    clauses = set(clauses)
    return frozenset(
        clause for clause in clauses
        if not any(other < clause for other in clauses)
    )


class PosBoolSemiring(Semiring):
    """``PosBool[X]``: irredundant-DNF positive boolean expressions."""

    name = "PosBool[X]"
    properties = SemiringProperties(
        mul_idempotent=True,
        one_annihilating=True,
        add_idempotent=True,
        mul_semi_idempotent=True,
        offset=1,
        notes="Free distributive lattice; Chom member (incomplete "
              "databases / c-tables).",
    )

    def __init__(self, variables: tuple[str, ...] = ()):
        #: Suggested sampling universe.
        self.variables = tuple(variables) or ("x", "y", "z")

    @property
    def zero(self) -> frozenset:
        return frozenset()

    @property
    def one(self) -> frozenset:
        return frozenset((frozenset(),))

    def add(self, a: frozenset, b: frozenset) -> frozenset:
        return _minimalize(a | b)

    def mul(self, a: frozenset, b: frozenset) -> frozenset:
        return _minimalize(c1 | c2 for c1 in a for c2 in b)

    def leq(self, a: frozenset, b: frozenset) -> bool:
        """Lattice implication order: every clause of ``a`` is entailed.

        ``a ≼ b`` iff ``a ∨ b ≡ b`` iff every clause of ``a`` is a
        superset of some clause of ``b``.
        """
        return all(any(cb <= ca for cb in b) for ca in a)

    def normalize(self, a: frozenset) -> frozenset:
        return _minimalize(a)

    def var(self, name: str) -> frozenset:
        """The expression consisting of a single variable."""
        return frozenset((frozenset((name,)),))

    def sample(self, rng) -> frozenset:
        count = rng.choice((0, 1, 1, 1, 2, 2))
        clauses = []
        for _ in range(count):
            size = rng.choice((0, 1, 1, 2))
            clauses.append(frozenset(
                rng.sample(self.variables, min(size, len(self.variables)))
            ))
        return _minimalize(clauses)

    def poly_leq(self, p1, p2) -> bool:
        """``P1 ≼ P2`` via the free construction: evaluate each variable
        to itself (the generators) and compare; freeness of the lattice
        makes the generator valuation the hardest case.
        """
        valuation = {
            var: self.var(var) for var in p1.variables() | p2.variables()
        }
        return self.leq(p1.eval_in(self, valuation),
                        p2.eval_in(self, valuation))


#: Singleton PosBool semiring.
POSBOOL = PosBoolSemiring()
