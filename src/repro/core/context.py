"""Pluggable primitive-operation provider for the decision procedures.

The Table-1 dispatch in :mod:`repro.core.containment` is built from a
handful of expensive primitives: semiring classification, homomorphism
search (existence, enumeration and kernels), homomorphic covering, the
complete description ``⟨Q⟩`` of a UCQ as a multiset of isomorphism
classes, the canonical form (isomorphism key, canonical renaming,
automorphism group size and generators) of a CCQ, and the small-model
test set of a query pair with its polynomial order checks.
:class:`DecisionContext` routes
all of them through one object so callers (most notably
:class:`repro.api.ContainmentEngine`, which subclasses it) can
interpose caches without the core procedures knowing anything about
caching policy.

Every Table-1 code path — the CQ dispatch, the UCQ local conditions,
the covering conditions ``⇉1``/``⇉2``, the counting conditions
``→֒k``/``→֒∞``, the matching condition ``։∞``, and the bag-semantics
bounds search — accepts a context, so an engine's LRUs see the whole
decision surface rather than just the top-level searches.

The default context delegates to the plain functions, memoizing only
the complete description's class table: :func:`_bounded_verdict`
evaluates several conditions over the same ``⟨Q1⟩``/``⟨Q2⟩`` within a
single verdict, and rebuilding the table each time is pure waste even
without an engine.

Subclasses must be semantically transparent: same answers as the plain
functions, whatever the caching policy.
"""

from __future__ import annotations

from functools import lru_cache

from ..homomorphisms.canonical import CanonicalForm
from ..homomorphisms.canonical import canonical_form as _memoized_canonical_form
from ..homomorphisms.covering import covered_atoms
from ..homomorphisms.isomorphism import DescriptionClass, description_classes
from ..homomorphisms.search import (HomKind, find_homomorphism, hom_kernels,
                                   homomorphisms)
from .classes import Classification, classify
from .small_model import small_model_pairs

__all__ = ["DecisionContext", "DEFAULT_CONTEXT"]


@lru_cache(maxsize=1024)
def _cached_description(union) -> tuple[DescriptionClass, ...]:
    """Process-wide memo of ``⟨Q⟩``'s class table keyed by the
    (immutable) UCQ; canonical forms come from the process-wide memo."""
    return description_classes(union, context=None)


class DecisionContext:
    """Provides the decision-procedure primitives to the dispatch.

    Subclasses may memoize; implementations must be semantically
    transparent (same answers as the plain functions).
    """

    def classify(self, semiring) -> Classification:
        """Compute (or recall) the Table-1 classification of a semiring."""
        return classify(semiring)

    def find_homomorphism(self, source, target, kind: HomKind):
        """Search for a ``kind`` homomorphism ``source → target``.

        Returns a variable mapping or ``None``, exactly like
        :func:`repro.homomorphisms.find_homomorphism`.
        """
        return find_homomorphism(source, target, kind)

    def has_homomorphism(self, source, target, kind: HomKind) -> bool:
        """Existence check derived from :meth:`find_homomorphism`."""
        return self.find_homomorphism(source, target, kind) is not None

    def homomorphism_mappings(self, source, target,
                              kind: HomKind) -> tuple[dict, ...]:
        """All ``kind`` homomorphisms ``source → target`` as a tuple
        (the deduplicated enumeration of
        :func:`repro.homomorphisms.homomorphisms`)."""
        return tuple(homomorphisms(source, target, kind))

    def hom_kernels(self, member, target, kind: HomKind,
                    limit: int | None) -> tuple[tuple[int, ...], ...]:
        """The distinct kernels of the ``kind`` homomorphisms
        ``member → target``, at most ``limit`` of them
        (:func:`repro.homomorphisms.search.hom_kernels`).

        The bag-semantics conditions count the occurrences of ``⟨Q2⟩``
        that map into a CCQ of ``⟨Q1⟩`` through this primitive, one
        call per ``Q2`` member, instead of expanding ``⟨Q2⟩``.
        """
        return hom_kernels(member, target, kind, limit)

    def covered_atoms(self, source, target) -> frozenset:
        """The target atoms reached by some homomorphic image
        (:func:`repro.homomorphisms.covered_atoms`)."""
        # The base context IS the computation — threading itself back
        # in would recurse forever.  # repro-lint: disable=RL001
        return covered_atoms(source, target)

    def covers(self, source, target) -> bool:
        """Homomorphic covering ``source ⇉ target``, derived from
        :meth:`covered_atoms`."""
        return len(self.covered_atoms(source, target)) == len(
            set(target.atoms))

    def complete_description(self, union) -> tuple[DescriptionClass, ...]:
        """The complete description ``⟨Q⟩`` of a UCQ (Sec. 5.2) as a
        multiset of isomorphism classes: ``(key, representative,
        multiplicity, automorphisms)`` rows
        (:func:`repro.homomorphisms.isomorphism.description_classes`),
        memoized — queries are immutable, so the table is a pure
        function of the union."""
        return _cached_description(union)

    def canonical_form(self, query) -> CanonicalForm:
        """The canonical labeling record of a (C)CQ (Sec. 5.2), or of
        its :class:`~repro.queries.ccq.QueryCode`.

        One :class:`~repro.homomorphisms.canonical.CanonicalForm`
        bundles the isomorphism key, the capture-free canonical
        renaming, the automorphism group size and its generators — the
        primitives the class table of a complete description (and
        through it the ``→֒k`` cap and ``⇉2`` exemption) consumes.  The default
        delegates to the process-wide memo of
        :func:`repro.homomorphisms.canonical.canonical_form`; engines
        override it with an observable, snapshot-persisted LRU.
        """
        return _memoized_canonical_form(query)

    def eval_plan(self, query):
        """The columnar evaluation plan of a CQ (:mod:`repro.eval`).

        Plans are pure functions of the (immutable) query, so the
        default delegates to the process-wide memo of
        :func:`repro.eval.plan.cached_plan`; engines override this with
        their snapshot-persisted ``eval_plans`` LRU so warm-started
        workers skip planning altogether.  Imported lazily — the core
        dispatch must stay importable without the eval subsystem's
        numpy dependency.
        """
        from ..eval.plan import cached_plan
        return cached_plan(query)

    def small_model_pairs(self, q1, q2) -> tuple:
        """The distinct canonical polynomial pairs of the small-model
        test set of ``Q1 ⊆ Q2`` (Thm. 4.17), in first-test order
        (:func:`repro.core.small_model.small_model_pairs`).

        They depend on the two UCQs alone, never on the semiring, so an
        engine computes them once per query pair and every
        ⊕-idempotent semiring's decision reuses them.  The default
        computes them afresh on every call.
        """
        return small_model_pairs(q1, q2)

    def poly_leq(self, semiring, p1, p2) -> bool:
        """Decide the polynomial order ``P1 ≼K P2`` (Prop. 4.19).

        The small-model procedure (Thm. 4.17) issues every one of its
        canonical-instance comparisons through this hook, so an engine
        can memoize the tropical decisions, each a few exact simplex
        solves, as revalidated certificates keyed by canonical pair.
        The default delegates to
        :meth:`repro.semirings.base.Semiring.poly_leq` unchanged.
        """
        return semiring.poly_leq(p1, p2)


#: Shared stateless default used when no context is supplied.
DEFAULT_CONTEXT = DecisionContext()
