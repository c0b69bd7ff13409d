"""Commutative positive semirings — the annotation domains of the paper.

A (commutative) semiring is ``K = (K, ⊕, ⊗, 0, 1)`` where ``(K, ⊕, 0)`` and
``(K, ⊗, 1)`` are commutative monoids, ``⊗`` distributes over ``⊕`` and
``a ⊗ 0 = 0``.  The paper (Sec. 3.1) equips each semiring with a partial
order ``≼`` and shows (Prop. 3.1) that the induced query-containment
relation satisfies the natural requirements (C1)–(C4) exactly when the
semiring is *positive*:

* ``0 ≼ a`` for every ``a``, and
* ``a ≼ b`` implies ``a ⊕ c ≼ b ⊕ c``.

Every semiring in this package is positive.  Most are *naturally ordered*
(``a ≼ b`` iff ``a ⊕ c = b`` for some ``c``); the ``leq`` implementations
are direct decision procedures for that order.

Elements are plain hashable Python values (ints, frozensets, polynomial
objects, ...).  A :class:`Semiring` instance bundles the operations, the
order, a random sampler (used by the axiom auditor and by the brute-force
containment oracle) and a :class:`SemiringProperties` record declaring
where the semiring sits in the paper's classification.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..polynomials.tropical_order import MAX_PLUS, MIN_PLUS

#: Symbolic infinity used for offsets ("k = ∞" in the paper's notation).
INFINITE_OFFSET = math.inf


@dataclass(frozen=True)
class SemiringProperties:
    """Declared classification facts about a semiring.

    The *axiom* flags mirror the paper's sufficient-class axioms:

    * ``mul_idempotent``      — ⊗-idempotence ``x ⊗ x = x`` (class ``Shcov``).
    * ``one_annihilating``    — 1-annihilation ``1 ⊕ x = 1`` (class ``Sin``).
    * ``add_idempotent``      — ⊕-idempotence ``x ⊕ x = x`` (class ``S¹``).
    * ``mul_semi_idempotent`` — ``x ⊗ y ≼ x ⊗ x ⊗ y`` (class ``Ssur``).
    * ``offset``              — smallest ``k`` with ``k·x = ℓ·x`` for all
      ``ℓ ≥ k`` (Sec. 5.2); ``INFINITE_OFFSET`` when no such ``k`` exists.

    The *necessary-class* flags record membership in the classes the paper
    defines through conditions on (CQ-admissible) polynomials.  These cannot
    be decided by sampling alone, so they are declared from the paper's own
    claims or from the analysis documented next to each semiring, and are
    spot-audited by :mod:`repro.semirings.properties` and the test suite.

    * ``in_nhcov``   — homomorphic covering is necessary (``Nhcov``).
    * ``in_nin``     — injective homomorphism is necessary (``Nin``).
    * ``in_nsur``    — surjective homomorphism is necessary (``Nsur``).
    * ``in_n1in``    — UCQ-level injective condition necessary (``N¹in``).
    * ``in_n1sur``   — UCQ-level ``։1`` necessary (``N¹sur``).
    * ``in_ninf_sur``— UCQ-level ``։∞`` necessary (``N∞sur``).
    * ``in_n1hcov`` / ``in_n2hcov`` — UCQ-level ``⇉1`` / ``⇉2`` necessary
      (``Nkhcov``, Prop. 5.22; bag semantics lies in ``N²hcov``).
    * ``in_n1bi``    — UCQ-level ``→֒1`` necessary (``N¹bi``).
    * ``in_nk_bi``   — ``→֒k`` necessary at the semiring's own finite
      offset ``k ≥ 2`` (``Nkbi``; definition reconstructed, see DESIGN).
    * ``in_ninf_bi`` — ``⟨Q2⟩ →֒∞ ⟨Q1⟩`` necessary (``C∞bi`` axiom).

    Whether the polynomial order is decidable is not declared here: it
    is :attr:`Semiring.poly_order_decidable`, derived from the class.
    """

    mul_idempotent: bool = False
    one_annihilating: bool = False
    add_idempotent: bool = False
    mul_semi_idempotent: bool = False
    offset: float = INFINITE_OFFSET

    in_nhcov: bool = False
    in_nin: bool = False
    in_nsur: bool = False
    in_n1in: bool = False
    in_n1sur: bool = False
    in_ninf_sur: bool = False
    in_n1hcov: bool = False
    in_n2hcov: bool = False
    in_n1bi: bool = False
    in_nk_bi: bool = False
    in_ninf_bi: bool = False

    notes: str = ""

    def __post_init__(self) -> None:
        if self.one_annihilating and not self.add_idempotent:
            raise ValueError(
                "1-annihilation implies ⊕-idempotence (multiply 1+1=1 by x); "
                "declared flags are inconsistent"
            )
        if self.add_idempotent and self.offset != 1:
            raise ValueError("⊕-idempotent semirings have offset 1")
        if self.mul_idempotent and self.offset not in (1, 2):
            raise ValueError("Shcov ⊆ S² (Prop. 5.19): offset must be 1 or 2")


class VectorizedOps(ABC):
    """Columnar ⊕/⊗ kernels for one semiring (numpy-array semantics).

    The contract mirrors the scalar :class:`Semiring` operations exactly
    — a columnar evaluation (:mod:`repro.eval`) over encoded columns
    must produce, element by element, the same normalized values the
    scalar fold would.  Implementations therefore only exist where an
    exact dtype encoding is possible (integer counts, tropical costs as
    float64 with exact integer arithmetic below 2**53, booleans);
    everything else falls back to the generic object-array kernels in
    :mod:`repro.eval.kernels`, so *every* registered semiring is
    evaluable.  A kernel missing any of the five operations cannot be
    instantiated.

    ``encode``/``decode`` must be exact inverses on normalized elements:
    ``decode(encode(values)) == list(values)`` with identical Python
    types, which is what keeps columnar answers byte-identical to the
    tuple-at-a-time evaluator's.
    """

    #: numpy dtype of the annotation column (``None`` → object arrays).
    dtype: Any = None

    @abstractmethod
    def encode(self, values: Sequence[Any]):
        """Normalized semiring elements → annotation column array."""

    @abstractmethod
    def decode(self, array) -> list:
        """Annotation column array → list of normalized elements."""

    @abstractmethod
    def add(self, a, b):
        """Element-wise ``a ⊕ b`` over two encoded columns."""

    @abstractmethod
    def mul(self, a, b):
        """Element-wise ``a ⊗ b`` over two encoded columns."""

    @abstractmethod
    def segment_add(self, values, starts):
        """Per-group ``⊕``-fold of ``values``.

        ``values`` arrive grouped: each group's rows are contiguous, in
        their original order.  ``starts`` is the int64 array of each
        group's first row, ascending from 0 (empty only when ``values``
        is); the caller, ``repro.eval.engine._group``, reads it off a
        stable sort.  Returns an encoded column of ``len(starts)``
        aggregates.
        """


class Semiring(ABC):
    """A commutative positive semiring with a decidable partial order.

    Subclasses implement the four operations plus the order, provide a
    random element sampler, and declare a :class:`SemiringProperties`
    record.  All operations must accept and return *normalized* elements;
    :meth:`normalize` canonicalizes external input (e.g. drops explicit
    zero coefficients).
    """

    #: Short human-readable name, e.g. ``"B"`` or ``"N[X]"``.
    name: str = "K"

    #: Classification facts; see :class:`SemiringProperties`.
    properties: SemiringProperties = SemiringProperties()

    #: For semirings whose :meth:`poly_leq` reduces to one of the two
    #: tropical linear-form orders, the order's kind —
    #: :data:`repro.polynomials.tropical_order.MIN_PLUS` (``T+``,
    #: Viterbi) or :data:`~repro.polynomials.tropical_order.MAX_PLUS`
    #: (``T−``).  ``None`` everywhere else.  Engines use this to
    #: certificate-memoize the order decisions: semirings sharing a
    #: kind share one cache keyed by canonical polynomial pair, never
    #: by semiring instance, so the entries survive process boundaries.
    poly_order: str | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        """Reject an incoherent ``poly_order`` when the class is defined.

        The certificate memo keys on the kind and revalidates against
        :meth:`poly_leq`, so a declared kind must be one of the two
        tropical orders and must come with an implementation.
        """
        super().__init_subclass__(**kwargs)
        if cls.poly_order not in (None, MIN_PLUS, MAX_PLUS):
            raise TypeError(
                f"{cls.__name__}: poly_order must be None, {MIN_PLUS!r} "
                f"or {MAX_PLUS!r} (got {cls.poly_order!r})")
        if cls.poly_order is not None and cls.poly_leq is Semiring.poly_leq:
            raise TypeError(
                f"{cls.__name__}: declares poly_order={cls.poly_order!r} "
                f"but implements no poly_leq")

    # ------------------------------------------------------------------
    # The algebra
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def zero(self) -> Any:
        """The additive identity ``0`` (annotation of absent tuples)."""

    @property
    @abstractmethod
    def one(self) -> Any:
        """The multiplicative identity ``1``."""

    @abstractmethod
    def add(self, a: Any, b: Any) -> Any:
        """Return ``a ⊕ b``."""

    @abstractmethod
    def mul(self, a: Any, b: Any) -> Any:
        """Return ``a ⊗ b``."""

    @abstractmethod
    def leq(self, a: Any, b: Any) -> bool:
        """Decide the positive partial order ``a ≼ b``."""

    # ------------------------------------------------------------------
    # Sampling (for the axiom auditor and the brute-force oracle)
    # ------------------------------------------------------------------

    @abstractmethod
    def sample(self, rng) -> Any:
        """Return a random element (biased toward small ones).

        ``rng`` is a :class:`random.Random`.  The sampler should return
        ``zero`` and ``one`` with non-negligible probability, because many
        axiom violations live at the identities.
        """

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------

    def eq(self, a: Any, b: Any) -> bool:
        """Element equality.  Default: normalized ``==``."""
        return a == b

    def normalize(self, a: Any) -> Any:
        """Canonicalize an externally constructed element."""
        return a

    def is_zero(self, a: Any) -> bool:
        """True iff ``a`` equals the additive identity."""
        return self.eq(a, self.zero)

    def sum(self, items: Iterable[Any]) -> Any:
        """Fold ``⊕`` over ``items`` (empty sum is ``0``)."""
        acc = self.zero
        for item in items:
            acc = self.add(acc, item)
        return acc

    def prod(self, items: Iterable[Any]) -> Any:
        """Fold ``⊗`` over ``items`` (empty product is ``1``)."""
        acc = self.one
        for item in items:
            acc = self.mul(acc, item)
        return acc

    def from_int(self, n: int) -> Any:
        """The image of ``n ∈ N`` under the unique morphism ``N → K``.

        That is, ``n·1 = 1 ⊕ ... ⊕ 1`` (``n`` times); ``0`` maps to ``zero``.
        Computed by doubling, in ``O(log n)`` additions.
        """
        if n < 0:
            raise ValueError("semiring elements have no additive inverses")
        total, power = self.zero, self.one
        while n:
            if n & 1:
                total = self.add(total, power)
            power, n = self.add(power, power), n >> 1
        return total

    def scale(self, n: int, a: Any) -> Any:
        """Return ``n·a = a ⊕ ... ⊕ a`` (``n`` times)."""
        if n < 0:
            raise ValueError("negative multiplicity")
        return self.sum(a for _ in range(n))

    def power(self, a: Any, n: int) -> Any:
        """Return ``a ⊗ ... ⊗ a`` (``n`` times); ``a^0 = 1``."""
        if n < 0:
            raise ValueError("negative exponent")
        return self.prod(a for _ in range(n))

    def sample_pool(self, rng, size: int) -> list[Any]:
        """A pool of ``size`` sampled elements, always containing 0 and 1."""
        pool = [self.zero, self.one]
        while len(pool) < size:
            pool.append(self.sample(rng))
        return pool

    def vectorized_ops(self) -> "VectorizedOps | None":
        """Columnar kernels for this semiring, or ``None``.

        ``None`` (the default) means no exact dtype encoding exists and
        the columnar evaluator must use its generic object-array
        fallback, which calls the scalar operations element-wise.
        """
        return None

    # ------------------------------------------------------------------
    # Polynomial order (hook for the small-model procedure, Thm. 4.17)
    # ------------------------------------------------------------------

    @property
    def poly_order_decidable(self) -> bool:
        """True iff the class implements :meth:`poly_leq`, which enables
        the small-model procedure of Thm. 4.17 (e.g. the tropical
        semirings, Prop. 4.19)."""
        return type(self).poly_leq is not Semiring.poly_leq

    def poly_leq(self, p1, p2) -> bool:
        """Decide ``P1 ≼K P2``: for *all* valuations ``ν : X → K``,
        ``Evalν(P1) ≼ Evalν(P2)`` (polynomial notation of Sec. 3.2).

        Only semirings with :attr:`poly_order_decidable` implement this;
        the default raises.
        """
        raise NotImplementedError(
            f"{self.name} does not implement the polynomial order ≼K; "
            "the small-model procedure (Thm. 4.17) is unavailable for it"
        )

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Semiring {self.name}>"

    def __str__(self) -> str:
        return self.name


def check_positive_order_samples(semiring: Semiring,
                                 samples: Sequence[Any]) -> list[str]:
    """Audit the positivity axioms of ``semiring`` on ``samples``.

    Returns a list of human-readable violation descriptions (empty when no
    violation was found).  Used by tests; see
    :mod:`repro.semirings.properties` for the full auditor.
    """
    failures: list[str] = []
    for a in samples:
        if not semiring.leq(semiring.zero, a):
            failures.append(f"0 ≼ {a!r} fails")
        if not semiring.leq(a, a):
            failures.append(f"reflexivity fails at {a!r}")
    for a in samples:
        for b in samples:
            if (semiring.leq(a, b) and semiring.leq(b, a)
                    and not semiring.eq(a, b)):
                failures.append(f"antisymmetry fails at {a!r}, {b!r}")
            if semiring.leq(a, b):
                for c in samples:
                    if not semiring.leq(semiring.add(a, c),
                                        semiring.add(b, c)):
                        failures.append(
                            f"⊕-monotonicity fails at {a!r} ≼ {b!r}, +{c!r}")
    return failures
