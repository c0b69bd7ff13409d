"""The cached, batchable containment engine.

:class:`ContainmentEngine` is the facade the CLI, the examples and the
benchmarks go through.  One engine owns:

* a per-engine mutable :class:`~repro.semirings.registry.SemiringRegistry`
  (a copy of the defaults, so ``register_semiring`` stays local);
* memoization layers for every expensive primitive of the Table-1
  dispatch — classification per semiring, parsed-query interning per
  source text, structural LRUs over homomorphism-search results
  (first mapping, keyed by ``(source, target, HomKind)``), homomorphism
  kernels (keyed by ``(member, target, HomKind, limit)``), covered-atom
  sets, complete descriptions ``⟨Q⟩`` (as isomorphism-class tables,
  keyed by the UCQ and the pair's constants, and the set-reduced
  tables ``⇉2`` reads, keyed with a trailing ``True``), and
  canonical labeling records (isomorphism key + automorphism group
  size and generators per CCQ, keyed by the query),
  small-model test sets (the distinct canonical polynomial pairs of
  Thm. 4.17's tests, keyed by ``(Q1, Q2)`` and shared by every
  ⊕-idempotent semiring; trusted when restored, like the other
  structural layers), and a certificate memo for the LP-backed
  tropical polynomial orders (keyed by ``(order kind, canonical
  admissible pair)``; a restored certificate is revalidated on its
  first recall) — plus a
  verdict-level LRU, so repeated checks are near-free;
* the document types of :mod:`repro.api.documents` for JSON-clean
  input/output, including the streaming batch entry points.

The engine is itself a :class:`~repro.core.context.DecisionContext`
threaded through the whole decision surface (CQ dispatch, UCQ local/
covering/counting/matching conditions, and the bag-semantics bounds
search), so even a single cold verdict reuses work across its own
sub-conditions.

Registering (or replacing) a semiring bumps the registry's version;
the engine detects the bump and drops its semiring-dependent caches
(classification, verdicts).  The structural caches — homomorphisms,
kernels, covered atoms, descriptions, canonical forms, small-model test
sets, polynomial-order certificates — only mention queries and
polynomials and survive.

Every cache layer is declared exactly once, in
:data:`repro.api.layers.CACHE_LAYERS`, with its store size and counter
names; this module *derives* the stores, the :class:`EngineStats`
fields, ``cache_info``/``cache_stats``/``clear_caches`` and the
snapshot export/import payload from that registry, and every layer
fills through the one memo path :meth:`ContainmentEngine._memo` — except
``poly_orders`` (the first recall of a restored entry is revalidated)
and ``verdicts`` (recalls are re-stamped), which keep their own
lookups.
``docs/ARCHITECTURE.md`` documents every layer (key shape, eviction,
snapshot behavior) and the invariants a new layer must keep.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterable, Iterator, Mapping

from ..core.classes import Classification, classify
from ..core.containment import decide_containment, k_equivalent
from ..core.context import DecisionContext
from ..core.small_model import small_model_pairs
from ..homomorphisms.canonical import CanonicalForm, compute_canonical_form
from ..homomorphisms.isomorphism import (DescriptionClass,
                                         description_classes,
                                         set_reduced_classes)
from ..homomorphisms.search import (HomKind, find_homomorphism, hom_kernels,
                                   homomorphisms)
from ..polynomials.admissible import canonical_pair
from ..polynomials.tropical_order import certificate_valid, decide_poly_leq
# Unused here: ``perfbench/tracing.py`` patches this name on this
# module and fails if it is missing.
from ..queries.ccq import complete_description_ucq  # noqa: F401
from ..queries.cq import CQ
from ..queries.parser import parse_cq
from ..semirings.base import Semiring
from ..semirings.registry import DEFAULT_REGISTRY, SemiringRegistry
from .documents import ContainmentRequest, VerdictDocument, _coerce_query
from .layers import CACHE_LAYERS

__all__ = ["ContainmentEngine", "EngineStats", "stats_report"]

#: The cache-miss sentinel.  Every ``_LRU`` lookup in this module goes
#: through ``get(key, _MISSING)`` and compares with ``is`` — never a
#: truthiness or ``None`` test — because ``None`` is a perfectly valid
#: cached *value* (a failed homomorphism search caches ``None``, and
#: that negative answer is exactly what makes repeats cheap).  Any new
#: cache layer must follow the same contract: reserve ``_MISSING`` for
#: "absent", store whatever the primitive returned, ``None`` included.
_MISSING = object()


#: Every :class:`EngineStats` counter, in ``as_dict`` order: the
#: engine-wide ``decisions``/``verdict_hits``, each computing layer's
#: ``calls``/``hits`` (plus ``rejected`` for a revalidating layer), and
#: ``evaluations`` — derived from the one cache-layer registry.
_COUNTERS: tuple[str, ...] = (
    "decisions", "verdict_hits",
    *(counter for layer in CACHE_LAYERS if layer.calls is not None
      for counter in (layer.calls, layer.hits, layer.rejected)
      if counter is not None),
    "evaluations")


class EngineStats:
    """Observable cache counters of one engine.

    ``*_calls`` count actual computations, ``*_hits`` count cache
    recalls; ``decisions`` counts every :meth:`ContainmentEngine.decide`
    and ``evaluations`` every :meth:`ContainmentEngine.evaluate`.  The
    fields are :data:`_COUNTERS`, all starting at zero.
    """

    def __init__(self):
        vars(self).update(dict.fromkeys(_COUNTERS, 0))

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for logs and reports)."""
        return dict(vars(self))


def stats_report(info: Mapping[str, int], *,
                 service: Mapping | None = None) -> dict:
    """A per-layer hit-ratio report from flat ``cache_info()`` counters.

    Works on a single engine's counters or on the summed counters of a
    worker pool (:meth:`repro.service.pool.WorkerPool.aggregate_stats`).
    Every layer reports ``hits``/``calls``/``entries`` plus a
    ``hit_ratio`` that is ``None`` — never a ``ZeroDivisionError`` —
    for layers that saw no traffic; the ``poly_orders`` layer
    additionally reports how many recalled certificates failed
    revalidation (``rejected``) and were recomputed.

    ``service`` optionally attaches serving-layer counters (a
    :meth:`repro.service.metrics.ServiceMetrics.as_dict` snapshot) to
    the report, so one document describes both the decision caches and
    the supervision/admission behaviour around them.
    """
    def layer(hits: int, calls: int, entries: int) -> dict:
        total = hits + calls
        return {"hits": hits, "calls": calls, "entries": entries,
                "hit_ratio": (hits / total) if total else None}

    layers = {}
    for spec in CACHE_LAYERS:
        if spec.calls is None:
            continue  # the verdict layer: derived from decisions below
        layers[spec.name] = layer(info.get(spec.hits, 0),
                                  info.get(spec.calls, 0),
                                  info.get(spec.entries, 0))
        if spec.rejected is not None:
            layers[spec.name]["rejected"] = info.get(spec.rejected, 0)
    decisions = info.get("decisions", 0)
    verdict_hits = info.get("verdict_hits", 0)
    layers["verdicts"] = layer(verdict_hits, decisions - verdict_hits,
                               info.get("verdict_entries", 0))
    report = {"decisions": decisions, "layers": layers}
    if service is not None:
        report["service"] = dict(service)
    return report


class _LRU:
    """A minimal ordered-dict LRU map (None is a storable value)."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        """Recall ``key``, refreshing its recency."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Store ``key``, evicting the least recently used entry."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def pop(self, key) -> None:
        """Drop one entry if present (used to evict invalidated values)."""
        self._data.pop(key, None)

    def clear(self) -> None:
        """Drop every entry."""
        self._data.clear()

    def items(self):
        """Snapshot view of the entries, least recently used first."""
        return list(self._data.items())

    def __contains__(self, key) -> bool:
        """Presence test that leaves the recency order alone."""
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    # ``_memo`` stores through the subscript form shared with the
    # unbounded dict store of the classification layer.
    __setitem__ = put


class _Unchecked:
    """An imported value of a revalidating layer (the certificate memo)
    that no recall has checked yet.

    :meth:`ContainmentEngine.poly_leq` replaces it with the bare value
    once the value passes its check, and evicts it otherwise; eviction
    and :meth:`ContainmentEngine.clear_caches` drop it like any entry,
    and :meth:`ContainmentEngine.export_caches` unwraps it.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


#: ``layer name → CacheLayer``, for :meth:`ContainmentEngine._memo`.
_LAYER_BY_NAME = {layer.name: layer for layer in CACHE_LAYERS}


class ContainmentEngine(DecisionContext):
    """Cached facade over the Table-1 containment decision procedures.

    ``registry`` defaults to a private copy of the built-in semirings;
    pass an explicit :class:`SemiringRegistry` to share one.  The cache
    stores are built from :data:`~repro.api.layers.CACHE_LAYERS`, which
    bounds every LRU layer (parse interning, homomorphism results,
    covered atoms, complete descriptions, whole verdicts, …), keeping
    long-running batch/service workloads at bounded memory; only the
    classification cache is unbounded (one small entry per semiring).

    The engine is the one :class:`DecisionContext`: every primitive of
    the context contract recalls this engine's stores, so the covering/
    UCQ/small-model/bounds code paths share work with the top-level
    dispatch (and with each other) instead of recomputing searches.  A
    library call given no context decides on a fresh engine
    (:func:`repro.core.context.resolve_context`).
    """

    def __init__(self, registry: SemiringRegistry | None = None):
        self.registry = (registry if registry is not None
                         else DEFAULT_REGISTRY.copy())
        self.stats = EngineStats()
        for layer in CACHE_LAYERS:
            setattr(self, layer.attr,
                    {} if layer.size is None else _LRU(layer.size))
        self._registry_version = self.registry.version

    @property
    def context(self) -> DecisionContext:
        """This engine, as the caching :class:`DecisionContext`.

        Thread it (``context=engine.context``) into direct calls of the
        decision and optimization primitives — ``explain``,
        ``minimize_cq``, ``check_rewrite`` and friends — so their inner
        containment checks share this engine's caches instead of
        recomputing from cold.
        """
        return self

    # -- registry -------------------------------------------------------

    def semiring(self, semiring: str | Semiring) -> Semiring:
        """Resolve a semiring name/alias (or pass an instance through)."""
        if isinstance(semiring, Semiring):
            return semiring
        return self.registry.get(semiring)

    def register_semiring(self, semiring: Semiring, *,
                          aliases: Iterable[str] = (),
                          replace: bool = False) -> Semiring:
        """Register a semiring on this engine's registry.

        Invalidates the semiring-dependent caches (classification and
        verdicts); the structural caches (homomorphisms, covered atoms,
        descriptions, canonical forms) survive.
        """
        self.registry.register(semiring, aliases=aliases, replace=replace)
        self._sync()
        return semiring

    def _sync(self) -> None:
        """Drop semiring-dependent caches if the registry mutated.

        Their keys hold semiring *instances*, and a replaced
        registration would otherwise keep answering for the old one.
        """
        if self.registry.version != self._registry_version:
            for layer in CACHE_LAYERS:
                if layer.keyed_by_semiring:
                    getattr(self, layer.attr).clear()
            self._registry_version = self.registry.version

    # -- memoized primitives -------------------------------------------

    def _memo(self, layer: str, compute, *args):
        """Recall ``args`` from ``layer``'s store, or ``compute(*args)``.

        The one memo path of the engine: it owns the store lookup, the
        ``_MISSING`` contract (``None`` is a cacheable value), the store
        write and the layer's ``hits``/``calls`` counters.  The key *is*
        the argument list — ``args[0]`` alone for one argument, else the
        ``args`` tuple — so it covers every input ``compute`` receives.
        ``compute`` runs only on a miss, after the call is counted; pass
        the function itself, never a closure over further inputs.
        """
        spec = _LAYER_BY_NAME[layer]
        store = getattr(self, spec.attr)
        counters = vars(self.stats)
        key = args[0] if len(args) == 1 else args
        value = store.get(key, _MISSING)
        if value is _MISSING:
            counters[spec.calls] += 1
            value = compute(*args)
            store[key] = value
        else:
            counters[spec.hits] += 1
        return value

    def classification(self, semiring: str | Semiring) -> Classification:
        """The Table-1 classification, computed once per semiring."""
        self._sync()
        semiring = self.semiring(semiring)
        return self._memo("classifications", classify, semiring)

    def classify(self, semiring) -> Classification:
        """The context's classification hook: :meth:`classification`."""
        return self.classification(semiring)

    def parse(self, text: str) -> CQ:
        """Parse CQ source text, interning by the exact source string."""
        return self._memo("parsed", parse_cq, text)

    def find_homomorphism(self, source, target, kind: HomKind):
        """LRU-cached homomorphism search (``None`` results included)."""
        return self._memo("homs", find_homomorphism, source, target, kind)

    # Unused by the decision paths: ``perfbench/tracing.py`` wraps this
    # name on every engine and fails if it is missing.
    def homomorphism_mappings(self, source, target,
                              kind: HomKind) -> tuple[dict, ...]:
        """All ``kind`` homomorphisms ``source → target`` as a tuple
        (the deduplicated enumeration of
        :func:`repro.homomorphisms.homomorphisms`), uncached."""
        return tuple(homomorphisms(source, target, kind))

    def hom_kernels(self, member, target, kind: HomKind,
                    limit: int | None) -> tuple[tuple[int, ...], ...]:
        """LRU-cached homomorphism kernels (the ``⟨Q2⟩`` occurrence
        count of the bag-semantics conditions), keyed by
        ``(member, target, kind, limit)``."""
        return self._memo("kernels", hom_kernels, member, target, kind,
                          limit)

    def covered_atoms(self, source, target) -> frozenset:
        """LRU-cached homomorphic atom coverage (the ``⇉`` primitive).

        The search stops at the first mapping that completes the cover,
        so a succeeding cover never enumerates the rest of the
        (possibly exponentially many) homomorphisms.
        """
        return self._memo("covered", self._cover, source, target)

    @staticmethod
    def _cover(source, target) -> frozenset:
        """The ``covered`` computation (see :meth:`covered_atoms`)."""
        target_atoms = set(target.atoms)
        covered: set = set()
        for mapping in homomorphisms(source, target, HomKind.PLAIN):
            covered.update(target_atoms.intersection(
                atom.substitute(mapping) for atom in source.atoms))
            if len(covered) == len(target_atoms):
                break
        return frozenset(covered)

    def complete_description(self, union, constants, reduced: bool = False
                             ) -> tuple[DescriptionClass, ...]:
        """LRU-cached complete description ``⟨Q⟩`` of a UCQ relative to
        ``constants`` (the pair's constants), as
        its table of isomorphism classes
        (:func:`repro.homomorphisms.isomorphism.description_classes`),
        keyed by ``(union, constants)``: the table's canonical forms
        come from this engine's ``canonical`` layer (keyed by the
        quotients' codes), which changes where they are computed, never
        what they are.

        ``reduced`` asks for the set-reduced table
        (:func:`repro.homomorphisms.isomorphism.set_reduced_classes` of
        the one above), kept in the same layer under ``(union,
        constants, True)``, so a warm ``⇉2`` recalls it instead of
        re-reducing ``⟨Q⟩``.  It is computed only when asked for.
        """
        key = (union, tuple(constants)) + ((True,) if reduced else ())
        return self._memo("descriptions", self._description_classes, *key)

    def _description_classes(self, union, constants, reduced=False
                             ) -> tuple[DescriptionClass, ...]:
        """The ``descriptions`` computation (see
        :meth:`complete_description`)."""
        if reduced:
            return set_reduced_classes(
                self.complete_description(union, constants), context=self)
        return description_classes(union, constants, context=self)

    def canonical_form(self, query) -> CanonicalForm:
        """LRU-cached canonical labeling record of a (C)CQ, or of the
        :class:`~repro.queries.ccq.QueryCode` of a quotient in ``⟨Q⟩``.

        One refinement-based pass yields the isomorphism key, the
        automorphism group size and its generators
        (:func:`repro.homomorphisms.canonical.compute_canonical_form`)
        — the primitives behind the description class tables and the
        ``→֒k``/``⇉2`` group-size rules.  Keys mention only the (immutable)
        query or its code, so the layer survives registry changes and
        snapshots as-is.
        """
        return self._memo("canonical", compute_canonical_form, query)

    def small_model_pairs(self, q1, q2) -> tuple:
        """LRU-cached small-model test set of ``Q1 ⊆ Q2``: the distinct
        canonical polynomial pairs of
        :func:`repro.core.small_model.small_model_pairs`, keyed by the
        two UCQs.  The pairs never mention a semiring, so one entry
        serves every ⊕-idempotent semiring (``T+``, ``T−``, ``V``, …)
        deciding the pair, and the layer survives registry changes.
        Like ``descriptions`` and ``homs``, a restored entry is trusted:
        only the order decisions asked of its pairs are revalidated.
        """
        return self._memo("small_models", small_model_pairs, q1, q2)

    def poly_leq(self, semiring, p1, p2) -> bool:
        """Certificate-memoized polynomial-order decision (Prop. 4.19).

        Semirings that declare a tropical ``poly_order`` kind (``T+``,
        ``T−``, Viterbi) are decided through an LRU of
        :class:`~repro.polynomials.tropical_order.TropicalOrderCertificate`
        values keyed by ``(kind, canonical pair)`` — the canonical form
        of :func:`repro.polynomials.admissible.canonical_pair`, so
        renamings of one admissible pair (and semirings sharing a kind,
        like ``T+`` and ``V``) share one entry, and no semiring
        *instance* ever enters a key (the layer snapshots cleanly).
        The pair is first looked up exactly as given, and canonicalized
        only on a miss: stored keys are canonical, so the pairs of
        :meth:`small_model_pairs` hit without a second
        canonicalization.

        A certificate this engine computed is trusted when recalled.  A
        certificate that arrived through :meth:`import_caches` is
        **checked once, not trusted**: its first recall re-checks its
        witness arithmetic against the live pair (integer evaluation for
        a violating point, Farkas inequalities for dominance — never an
        LP), and later recalls of the same entry skip the check.  Valid
        recalls count as ``poly_hits``; an invalid (tampered/stale/
        mis-keyed, or malformed so that the check cannot run) recall
        counts as ``poly_rejected``, is evicted, and the decision is
        recomputed — so a warmed run's answers are byte-identical to a
        cold run's no matter what the snapshot contained.  Only a valid
        recall replaces the :class:`_Unchecked` wrapper
        :meth:`import_caches` put around the value; importing a key
        again wraps it again.
        This is why the layer keeps its own lookup instead of
        :meth:`_memo`.

        Semirings without a tropical kind (finite/lattice orders, which
        are already cheap exhaustive checks) pass through uncached.
        """
        kind = getattr(semiring, "poly_order", None)
        if kind is None:
            return semiring.poly_leq(p1, p2)
        c1, c2, key = p1, p2, (kind, p1, p2)
        certificate = self._poly_orders.get(key, _MISSING)
        if certificate is _MISSING:
            c1, c2, _ = canonical_pair(p1, p2)
            key = (kind, c1, c2)
            certificate = self._poly_orders.get(key, _MISSING)
        if type(certificate) is _Unchecked:
            if certificate_valid(certificate.value, kind, c1, c2):
                certificate = certificate.value
                self._poly_orders.put(key, certificate)
            else:
                self.stats.poly_rejected += 1
                self._poly_orders.pop(key)
                certificate = _MISSING
        if certificate is not _MISSING:
            self.stats.poly_hits += 1
            return certificate.holds
        self.stats.poly_calls += 1
        holds, certificate = decide_poly_leq(kind, c1, c2)
        self._poly_orders.put(key, certificate)
        return holds

    def eval_plan(self, query):
        """LRU-cached columnar evaluation plan of a CQ.

        Plans (:class:`repro.eval.plan.EvalPlan`) mention only query
        terms, so the layer is structural: it survives registry bumps
        and travels in snapshots as-is — a warm-started worker answers
        ``repro eval`` workloads without ever re-planning.
        """
        from ..eval.plan import build_plan
        return self._memo("eval_plans", build_plan, query)

    # -- deciding -------------------------------------------------------

    def decide(self, q1, q2, semiring: str | Semiring, *,
               equivalence: bool = False,
               request_id: str | None = None) -> VerdictDocument:
        """Decide ``Q1 ⊆K Q2`` (or ``≡K``) and return a document.

        ``q1``/``q2`` accept CQ/UCQ objects, Datalog source text, lists
        of member texts, or serialized query dicts.  Singleton unions
        are decided through the CQ-level procedures
        (:func:`repro.core.containment.decide_containment`).
        """
        self._sync()
        resolved = self.semiring(semiring)
        union1 = _coerce_query(q1, self.parse)
        union2 = _coerce_query(q2, self.parse)
        self.stats.decisions += 1
        # Keyed by the resolved *instance* (identity hash), not its name:
        # two distinct semirings sharing a name must not share verdicts.
        key = (resolved, union1, union2, equivalence)
        # Not ``_memo``: a recalled document is re-stamped with this
        # request's id and ``cached=True``, which a miss must not be.
        cached = self._verdicts.get(key, _MISSING)
        if cached is not _MISSING:
            self.stats.verdict_hits += 1
            return cached.with_request(request_id, cached=True)
        decide = k_equivalent if equivalence else decide_containment
        verdict = decide(union1, union2, resolved, context=self)
        document = VerdictDocument.from_verdict(
            verdict, semiring=resolved.name, q1=union1, q2=union2,
            request_id=request_id)
        # Sound despite request_id missing from the key: the hit path
        # above re-stamps every cached document via with_request(), so
        # a request id never leaks out of the aliased entry; the
        # verdict itself depends only on the keyed inputs.
        self._verdicts.put(key, document)
        return document

    def evaluate(self, query, instance, semiring: str | Semiring | None = None):
        """Columnar UCQ evaluation over a K-instance (:mod:`repro.eval`).

        ``query`` accepts CQ/UCQ objects, Datalog source text, lists of
        member texts, or serialized query dicts (the same coercions as
        :meth:`decide`); ``semiring`` defaults to the instance's own.
        Plans route through this engine's ``eval_plans`` layer, so
        repeated evaluations of one query hit the cache (visible in
        :meth:`cache_stats`).  Returns a
        :class:`repro.eval.engine.AnswerTable`.
        """
        self._sync()
        from ..eval.engine import evaluate as columnar_evaluate
        union = _coerce_query(query, self.parse)
        resolved = (self.semiring(semiring) if semiring is not None
                    else instance.semiring)
        self.stats.evaluations += 1
        return columnar_evaluate(union, instance, resolved,
                                 context=self)

    def decide_request(self, request: ContainmentRequest) -> VerdictDocument:
        """Decide one :class:`ContainmentRequest`."""
        return self.decide(request.q1, request.q2, request.semiring,
                           equivalence=request.equivalence,
                           request_id=request.id)

    def decide_stream(self, requests: Iterable) -> Iterator[VerdictDocument]:
        """Lazily decide an iterable of requests (dicts are accepted)."""
        for request in requests:
            if not isinstance(request, ContainmentRequest):
                request = ContainmentRequest.from_dict(request,
                                                       parse=self.parse)
            yield self.decide_request(request)

    def decide_many(self, requests: Iterable) -> list[VerdictDocument]:
        """Decide a batch of requests, preserving order."""
        return list(self.decide_stream(requests))

    # -- introspection --------------------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Current cache sizes plus the stat counters (flat integers —
        summable across workers; see :func:`stats_report` for ratios)."""
        info = self.stats.as_dict()
        for layer in CACHE_LAYERS:
            info[layer.entries] = len(getattr(self, layer.attr))
        return info

    def cache_stats(self) -> dict:
        """Per-layer cache report with zero-division-safe hit ratios.

        Every layer — the poly_leq certificate memo included — reports
        ``hits``/``calls``/``entries`` and a ``hit_ratio`` that is
        ``None`` for layers with no traffic; see :func:`stats_report`.
        """
        return stats_report(self.cache_info())

    def clear_caches(self) -> None:
        """Drop every cache layer (stats counters are kept)."""
        for layer in CACHE_LAYERS:
            getattr(self, layer.attr).clear()

    # -- snapshot hooks --------------------------------------------------

    def export_caches(self, *, include_verdicts: bool = True) -> dict:
        """Every cache layer as picklable ``layer → [(key, value), ...]``.

        Semiring *instances* never leave the engine: the classification
        and verdict layers are re-keyed by canonical registry name, and
        entries for semirings passed directly as unregistered instances
        are dropped (a name is the only identity that survives a
        process boundary).  The poly_leq layer needs no such re-keying
        — its keys are ``(order kind, canonical polynomial pair)`` and
        its values are self-certifying
        :class:`~repro.polynomials.tropical_order.TropicalOrderCertificate`
        records, each revalidated on its first recall after an import
        (see :meth:`poly_leq`), so even a maliciously edited
        certificate cannot change an answer (the other structural
        layers, ``small_models`` included, are trusted as exported).
        Entry lists keep LRU order
        (least recently used first), so importing into a same-sized
        engine reproduces the recency order.
        ``include_verdicts=False`` exports only the semiring-independent
        structural layers plus classifications — the right payload when
        restored runs must produce verdict documents byte-identical to
        cold runs (a restored verdict layer answers with
        ``cached: true``).
        """
        # Semiring instances hash by identity, as in the stores.
        names = {semiring: semiring.name for semiring in self.registry}
        state: dict[str, list] = {}
        for layer in CACHE_LAYERS:
            if layer.keyed_by_semiring:
                continue
            entries = getattr(self, layer.attr).items()
            if layer.rejected is not None:
                entries = [(key, value.value if type(value) is _Unchecked
                            else value) for key, value in entries]
            state[layer.name] = entries
        classifications = []
        for semiring, classification in self._classifications.items():
            name = names.get(semiring)
            if name is not None:
                classifications.append((name, classification))
        state["classifications"] = classifications
        verdicts = []
        if include_verdicts:
            for (semiring, q1, q2, equivalence), document \
                    in self._verdicts.items():
                name = names.get(semiring)
                if name is not None:
                    verdicts.append(((name, q1, q2, equivalence), document))
        state["verdicts"] = verdicts
        return state

    def import_caches(self, state: Mapping[str, Any]) -> dict[str, int]:
        """Install exported cache entries; returns per-layer counts.

        The inverse of :meth:`export_caches` — names resolve through
        *this* engine's registry, and entries whose semiring name is
        unknown here are skipped (never an error: a snapshot is an
        optimization, not a contract).  Existing entries are
        overwritten; stats counters are untouched.  Every imported
        ``poly_orders`` certificate, one overwriting an entry already
        checked included, is stored wrapped as unchecked until its
        first recall revalidates it (:meth:`poly_leq`).  Soundness assumes
        the name resolves to a semiring equivalent to the one that
        produced the entry — snapshots are meant to be restored into
        engines with the same registry contents.
        """
        counts = {}
        restored = 0
        for name, classification in state.get("classifications", ()):
            semiring = self.registry.find(name)
            if semiring is not None:
                self._classifications[semiring] = classification
                restored += 1
        counts["classifications"] = restored
        for layer in CACHE_LAYERS:
            if layer.keyed_by_semiring:
                continue
            lru = getattr(self, layer.attr)
            restored = 0
            for key, value in state.get(layer.name, ()):
                lru.put(key, value if layer.rejected is None
                        else _Unchecked(value))
                restored += 1
            counts[layer.name] = restored
        restored = 0
        for (name, q1, q2, equivalence), document \
                in state.get("verdicts", ()):
            semiring = self.registry.find(name)
            if semiring is not None:
                self._verdicts.put((semiring, q1, q2, equivalence), document)
                restored += 1
        counts["verdicts"] = restored
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ContainmentEngine semirings={len(self.registry)} "
                f"decisions={self.stats.decisions}>")
