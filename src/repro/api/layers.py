"""The engine cache-layer registry — one declaration, many consumers.

Every cache layer of :class:`repro.api.engine.ContainmentEngine` is
declared here exactly once, with its store size and counter names:

* the engine builds its stores from :data:`CACHE_LAYERS`, derives the
  :class:`~repro.api.engine.EngineStats` counter fields from it, and
  derives ``cache_info``, ``cache_stats``, ``clear_caches`` and the
  export/import payload from it;
* :mod:`repro.service.snapshot` imports :data:`SNAPSHOT_LAYERS` as its
  envelope schema (and :func:`~repro.service.snapshot.merge_states`,
  which the :class:`~repro.service.pool.WorkerPool` cache merge goes
  through, iterates the same tuple);
* the test suite checks that names and attributes are unique, that
  every ``_LRU`` store of a fresh engine is a registered layer, that
  one workload fills every layer, and that a snapshot carries exactly
  :data:`SNAPSHOT_LAYERS` and restores every entry.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheLayer", "CACHE_LAYERS", "SNAPSHOT_LAYERS"]


@dataclass(frozen=True)
class CacheLayer:
    """One engine cache layer and every name the runtime derives from it.

    ``name``
        The layer's export/snapshot key (``export_caches`` payload,
        snapshot envelope, ``cache_stats`` report) and the name the
        engine's ``_memo`` is called with.
    ``attr``
        The :class:`~repro.api.engine.ContainmentEngine` attribute
        holding the store.
    ``hits`` / ``calls``
        The :class:`~repro.api.engine.EngineStats` counter fields for
        recalls and actual computations.  ``calls`` is ``None`` only
        for the verdict layer, whose computation count is derived
        (``decisions - verdict_hits``) in ``stats_report``.
    ``entries``
        The ``cache_info()`` key reporting the store's current size.
    ``size``
        The LRU bound of the store, or ``None`` for an unbounded
        insertion-ordered dict (the classification map: one small
        entry per semiring).
    ``rejected``
        For layers that revalidate restored values (the certificate
        pattern): the counter of recalls that failed revalidation and
        were recomputed.  The engine wraps each entry of such a layer
        that :meth:`~repro.api.engine.ContainmentEngine.import_caches`
        installs as unchecked, until its first recall checks it.
    ``keyed_by_semiring``
        True for layers whose keys mention semiring *instances*: they
        are dropped when the registry changes and re-keyed by
        canonical registry name on export (the classification and
        verdict layers); the structural layers survive registry
        changes and export their entries verbatim.
    """

    name: str
    attr: str
    hits: str
    calls: str | None
    entries: str
    size: int | None = None
    rejected: str | None = None
    keyed_by_semiring: bool = False


#: Every cache layer of the engine, in snapshot-envelope order
#: (classifications first so restored semiring lookups are warm before
#: the structural layers land; verdicts last because they are optional).
#: The structural layers are sized generously (tens of thousands of
#: entries, still only a few MB): a single bag-semantics bounds verdict
#: touches hundreds of CCQ pairs, and warm-start snapshots can only
#: persist what eviction has not already dropped.
CACHE_LAYERS: tuple[CacheLayer, ...] = (
    CacheLayer(name="classifications", attr="_classifications",
               hits="classify_hits", calls="classify_calls",
               entries="classification_entries", size=None,
               keyed_by_semiring=True),
    CacheLayer(name="parsed", attr="_parsed",
               hits="parse_hits", calls="parse_calls",
               entries="parsed_entries", size=16384),
    CacheLayer(name="homs", attr="_homs",
               hits="hom_hits", calls="hom_calls",
               entries="hom_entries", size=65536),
    CacheLayer(name="kernels", attr="_kernels",
               hits="kernel_hits", calls="kernel_calls",
               entries="kernel_entries", size=65536),
    CacheLayer(name="covered", attr="_covered",
               hits="cover_hits", calls="cover_calls",
               entries="cover_entries", size=65536),
    CacheLayer(name="descriptions", attr="_descriptions",
               hits="description_hits", calls="description_calls",
               entries="description_entries", size=8192),
    CacheLayer(name="canonical", attr="_canon",
               hits="canon_hits", calls="canon_calls",
               entries="canon_entries", size=65536),
    CacheLayer(name="small_models", attr="_small_models",
               hits="small_model_hits", calls="small_model_calls",
               entries="small_model_entries", size=16384),
    CacheLayer(name="poly_orders", attr="_poly_orders",
               hits="poly_hits", calls="poly_calls",
               entries="poly_entries", size=65536,
               rejected="poly_rejected"),
    CacheLayer(name="eval_plans", attr="_eval_plans",
               hits="eval_plan_hits", calls="eval_plan_calls",
               entries="eval_plan_entries", size=4096),
    CacheLayer(name="verdicts", attr="_verdicts",
               hits="verdict_hits", calls=None,
               entries="verdict_entries", size=16384,
               keyed_by_semiring=True),
)

#: The snapshot envelope's layer names, in import order — consumed by
#: :mod:`repro.service.snapshot` (and through it the pool cache merge).
SNAPSHOT_LAYERS: tuple[str, ...] = tuple(
    layer.name for layer in CACHE_LAYERS)
