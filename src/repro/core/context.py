"""The primitive-operation contract of the decision procedures.

The Table-1 dispatch in :mod:`repro.core.containment` is built from a
handful of expensive primitives: semiring classification, homomorphism
search (existence and kernels), homomorphic covering, the complete
description ``⟨Q⟩`` of a UCQ as a multiset of isomorphism classes, the
canonical form (isomorphism key, automorphism group size and
generators) of a CCQ, and the small-model test set of a query pair
with its polynomial order checks.  :class:`DecisionContext` names
all of them in one contract, so the core procedures call primitives
without knowing anything about caching policy.

:class:`repro.api.ContainmentEngine` is the one implementation: it
computes every primitive through its observable, snapshot-persisted
LRU layers.  Every Table-1 code path — the CQ dispatch, the UCQ local
conditions, the covering conditions ``⇉1``/``⇉2``, the counting
conditions ``→֒k``/``→֒∞``, the matching condition ``։∞``, and the
bag-semantics bounds search — takes a context, so the engine's layers
see the whole decision surface.  Internal functions require one; the
names the package exports accept ``context=None`` and resolve it once,
at their top, through :func:`resolve_context`, which builds a fresh
engine, so one library call shares one set of caches and nothing is
memoized across calls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..homomorphisms.canonical import CanonicalForm
    from ..homomorphisms.isomorphism import DescriptionClass
    from ..homomorphisms.search import HomKind
    from .classes import Classification

__all__ = ["DecisionContext", "resolve_context"]


def resolve_context(context: DecisionContext | None) -> DecisionContext:
    """``context`` itself, or a fresh
    :class:`~repro.api.ContainmentEngine` when it is ``None``.

    The one default of every exported decision function.  Imported
    lazily: the engine module imports the core dispatch.
    """
    if context is not None:
        return context
    from ..api.engine import ContainmentEngine
    return ContainmentEngine()


class DecisionContext(ABC):
    """Provides the decision-procedure primitives to the dispatch.

    Implementations must be semantically transparent: the same answers
    as the plain computations they wrap, whatever the caching policy.
    """

    @abstractmethod
    def classify(self, semiring) -> Classification:
        """The Table-1 classification of a semiring
        (:func:`repro.core.classes.classify`)."""

    @abstractmethod
    def find_homomorphism(self, source, target, kind: HomKind):
        """Search for a ``kind`` homomorphism ``source → target``.

        Returns a variable mapping or ``None``, exactly like
        :func:`repro.homomorphisms.find_homomorphism`.
        """

    def has_homomorphism(self, source, target, kind: HomKind) -> bool:
        """Existence check derived from :meth:`find_homomorphism`."""
        return self.find_homomorphism(source, target, kind) is not None

    @abstractmethod
    def hom_kernels(self, member, target, kind: HomKind,
                    limit: int | None) -> tuple[tuple[int, ...], ...]:
        """The distinct kernels of the ``kind`` homomorphisms
        ``member → target``, at most ``limit`` of them
        (:func:`repro.homomorphisms.search.hom_kernels`).

        The bag-semantics conditions count the occurrences of ``⟨Q2⟩``
        that map into a CCQ of ``⟨Q1⟩`` through this primitive, one
        call per ``Q2`` member, instead of expanding ``⟨Q2⟩``.
        """

    @abstractmethod
    def covered_atoms(self, source, target) -> frozenset:
        """The target atoms reached by some homomorphic image of
        ``source``."""

    def covers(self, source, target) -> bool:
        """Homomorphic covering ``source ⇉ target``, derived from
        :meth:`covered_atoms`."""
        return len(self.covered_atoms(source, target)) == len(
            set(target.atoms))

    @abstractmethod
    def complete_description(self, union, constants, reduced: bool = False
                             ) -> tuple[DescriptionClass, ...]:
        """The complete description ``⟨Q⟩`` of a UCQ (Sec. 5.2)
        relative to its members' head variables and ``constants`` (the
        pair's constants) as a multiset of
        isomorphism classes: ``(key, representative, multiplicity,
        automorphisms)`` rows
        (:func:`repro.homomorphisms.isomorphism.description_classes`).

        With ``reduced``, the table of its set-reduced CCQs (duplicate
        atoms dropped, rows merged by the reduced key;
        :func:`repro.homomorphisms.isomorphism.set_reduced_classes`),
        which ``⇉2`` reads."""

    @abstractmethod
    def canonical_form(self, query) -> CanonicalForm:
        """The canonical labeling record of a (C)CQ (Sec. 5.2), or of
        its :class:`~repro.queries.ccq.QueryCode`
        (:func:`repro.homomorphisms.canonical.compute_canonical_form`).

        One :class:`~repro.homomorphisms.canonical.CanonicalForm`
        bundles the isomorphism key, the automorphism group size and
        its generators — the
        primitives the class table of a complete description (and
        through it the ``→֒k`` cap and ``⇉2`` exemption) consumes.
        """

    @abstractmethod
    def eval_plan(self, query):
        """The columnar evaluation plan of a CQ
        (:func:`repro.eval.plan.build_plan`)."""

    @abstractmethod
    def small_model_pairs(self, q1, q2) -> tuple:
        """The distinct canonical polynomial pairs of the small-model
        test set of ``Q1 ⊆ Q2`` (Thm. 4.17), in first-test order
        (:func:`repro.core.small_model.small_model_pairs`).

        They depend on the two UCQs alone, never on the semiring, so one
        computation per query pair serves every ⊕-idempotent semiring's
        decision.
        """

    @abstractmethod
    def tagged_probes(self, q1, q2) -> tuple:
        """The bag refuter's probe instances of ``Q1 ⊆ Q2``, each with
        the fact counts on which ``Q1`` outnumbers ``Q2`` in ``N``
        (:func:`repro.core.containment.tagged_probes`).

        Like :meth:`small_model_pairs` they depend on the two UCQs
        alone, so one computation per pair of head-pattern unions
        serves every semiring the refuter checks them in.
        """

    @abstractmethod
    def poly_leq(self, semiring, p1, p2) -> bool:
        """Decide the polynomial order ``P1 ≼K P2`` (Prop. 4.19).

        The small-model procedure (Thm. 4.17) issues every one of its
        canonical-instance comparisons through this hook, so the
        tropical decisions, each a few exact simplex solves, can be
        memoized as revalidated certificates keyed by canonical pair.
        """
