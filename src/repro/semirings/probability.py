"""The probabilistic event semiring ``P[Ω]`` (Fuhr–Rölleke, Zimányi).

Tuples in probabilistic event tables are annotated with *events* —
measurable subsets of a sample space ``Ω`` — combined with union for
alternative derivations and intersection for joint ones:
``P[Ω] = (P(Ω), ∪, ∩, ∅, Ω)``.

As a boolean algebra restricted to its positive operations this is a
distributive lattice, so ``P[Ω]`` lies in ``Chom`` (Sec. 3.3): query
containment over event tables coincides with set-semantics containment.

Elements are ``frozenset`` subsets of a finite sample space.
"""

from __future__ import annotations

from itertools import product

from .base import Semiring, SemiringProperties


class EventSemiring(Semiring):
    """``P[Ω]``: events over a finite sample space ``Ω``."""

    def __init__(self, sample_space=("w1", "w2", "w3")):
        #: The finite sample space ``Ω``.
        self.sample_space = frozenset(sample_space)
        if not self.sample_space:
            raise ValueError("sample space must be non-empty (else 0 = 1)")
        self.name = f"P[Ω({len(self.sample_space)})]"
        self.properties = SemiringProperties(
            mul_idempotent=True,
            one_annihilating=True,
            add_idempotent=True,
            mul_semi_idempotent=True,
            offset=1,
            notes="Distributive lattice of events; Chom member "
                  "(probabilistic event tables).",
        )

    @property
    def zero(self) -> frozenset:
        return frozenset()

    @property
    def one(self) -> frozenset:
        return self.sample_space

    def add(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def mul(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def leq(self, a: frozenset, b: frozenset) -> bool:
        return a <= b

    def sample(self, rng) -> frozenset:
        return frozenset(
            outcome for outcome in self.sample_space if rng.random() < 0.5
        )

    def poly_leq(self, p1, p2) -> bool:
        """Exact check: a lattice polynomial inequality holds over every
        distributive lattice iff it holds over ``{0, 1}`` valuations
        (Birkhoff), checked per outcome; equivalently we evaluate on all
        two-valued valuations using ``Ω`` and ``∅``."""
        variables = sorted(p1.variables() | p2.variables())
        choices = (self.zero, self.one)
        return all(
            self.leq(p1.eval_in(self, dict(zip(variables, values))),
                     p2.eval_in(self, dict(zip(variables, values))))
            for values in product(choices, repeat=len(variables))
        )


#: Event semiring over a three-outcome sample space.
EVENTS = EventSemiring()
