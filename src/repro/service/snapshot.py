"""Persistent warm-start snapshots of an engine's cache layers.

Short-lived ``python -m repro batch`` invocations — and worker
processes of :class:`repro.service.pool.WorkerPool` — start with cold
caches, re-paying for parse interning, classification, homomorphism
searches and kernels, covered-atom sets, complete-description class
tables, canonical labeling records, small-model test sets, the bag
refuter's tagged probes and LP-backed tropical order certificates that
a previous run already computed.  A *snapshot*
persists those layers to disk so the next run starts warm.

Format
------
A snapshot file is a pickled envelope with four fields::

    {"magic": "repro.engine-snapshot", "version": 10,
     "semirings": [...canonical names...], "caches": {layer: [...]}}

``magic``
    The literal :data:`SNAPSHOT_MAGIC` string — rejects arbitrary
    pickles (and accidental non-snapshot files) before anything else
    is looked at.
``version``
    The envelope schema version, :data:`SNAPSHOT_VERSION`.  A reader
    accepts exactly its own version; any other version, older or
    newer, is refused wholesale.  A new cache layer alone need not
    bump the version: unknown layers are ignored on import and absent
    layers default to empty.  A bump marks a change in what the layers
    *mean*; ``CHANGES.md`` records what each version changed.
``semirings``
    The canonical names registered on the exporting engine —
    informational (debugging which registry produced a file); import
    resolves names against the *restoring* registry and skips unknowns.
``caches``
    Exactly the payload of
    :meth:`repro.api.ContainmentEngine.export_caches`: per-layer
    ``(key, value)`` lists whose keys never contain semiring
    *instances* (the semiring-keyed layers, classifications and
    verdicts, are re-keyed by canonical registry name).  A layer that
    declares a ``check`` in :data:`repro.api.layers.CACHE_LAYERS` —
    ``poly_orders``, keyed by ``(order kind, canonical polynomial
    pair)`` — has each restored entry checked on its first recall
    (importing a key again makes it unchecked again), so a doctored
    certificate can never change an answer, and an entry that passed
    is not checked again.  Every other layer is trusted as restored: a
    doctored ``homs``, ``descriptions``, ``probes`` or
    ``small_models`` entry (the canonical polynomial pairs a
    small-model decision checks) is used as it stands, and nothing
    checks it.

Validation is strict and failure is always *graceful*: every way a
file can disappoint — missing, truncated, corrupted, a different
pickle, an envelope from a future format version — raises
:class:`SnapshotError`, which warm-start callers catch to fall back to
a cold start.  A stale snapshot must never crash a batch run, and an
unreadable one must never be half-imported.

The verdict layer is included by default (right for long-lived
services, where "served from cache" is true across restarts) but can
be excluded with ``include_verdicts=False`` so a warmed run's verdict
documents stay byte-identical to a cold run's (``cached`` stays
``false``) — the CLI default.
"""

from __future__ import annotations

import io
import os
import pickle
import tempfile
from typing import Any, Mapping

from ..api.engine import ContainmentEngine
from ..api.layers import SNAPSHOT_LAYERS as _LAYERS

__all__ = ["SNAPSHOT_MAGIC", "SNAPSHOT_VERSION", "SnapshotError",
           "load_snapshot", "merge_states", "read_snapshot",
           "save_snapshot", "write_snapshot"]

SNAPSHOT_MAGIC = "repro.engine-snapshot"
SNAPSHOT_VERSION = 10

# The cache layers a snapshot may carry, in import order, come from the
# one cache-layer registry (repro.api.layers) — never re-list them here
# (the test suite checks a snapshot's layers against SNAPSHOT_LAYERS).


class SnapshotError(ValueError):
    """A snapshot file cannot be used (missing/corrupt/stale/foreign).

    Deliberately one exception type for every failure mode: warm-start
    callers only ever need "fall back to cold", and the message says
    why.
    """


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that only resolves classes snapshots legitimately use.

    A snapshot is an *input file*; a hand-crafted pickle must not be
    able to import arbitrary callables through the loader.  Three
    gates: dotted names are rejected outright (protocol 4's
    ``STACK_GLOBAL`` would otherwise traverse attributes — e.g. reach
    ``os.system`` through any repro module that imports ``os``), the
    module must live in the ``repro`` package, and the resolved object
    must be a class — never a function, a module-level import or a
    helper.  Outside ``repro`` only five container builtins resolve.
    Every pickled ``repro`` type restores through its class (a
    constructor ``__reduce__``, or ``__getstate__``/``__setstate__``),
    so this rule needs no list of restore functions.
    """

    _ALLOWED_BUILTINS = frozenset({"frozenset", "set", "tuple", "list",
                                   "dict"})

    def find_class(self, module: str, name: str):
        if "." in name:
            raise SnapshotError(
                f"snapshot references disallowed dotted name "
                f"{module}.{name}")
        if module == "builtins" and name in self._ALLOWED_BUILTINS:
            return super().find_class(module, name)
        if module == "repro" or module.startswith("repro."):
            obj = super().find_class(module, name)
            if isinstance(obj, type):
                return obj
        raise SnapshotError(
            f"snapshot references disallowed type {module}.{name}")


def _validate(envelope: Any, source: str) -> dict:
    """Check the envelope schema; return the cache-state payload."""
    if not isinstance(envelope, Mapping):
        raise SnapshotError(f"{source}: not a snapshot envelope")
    if envelope.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{source}: not a repro engine snapshot")
    version = envelope.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{source}: snapshot version {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION}); re-create "
            "the snapshot with this version")
    caches = envelope.get("caches")
    if not isinstance(caches, Mapping):
        raise SnapshotError(f"{source}: snapshot has no cache payload")
    state: dict = {}
    for layer in _LAYERS:
        entries = caches.get(layer, [])
        if not isinstance(entries, (list, tuple)):
            raise SnapshotError(
                f"{source}: layer {layer!r} is not an entry list")
        for entry in entries:
            if not isinstance(entry, tuple) or len(entry) != 2:
                raise SnapshotError(
                    f"{source}: layer {layer!r} has a malformed entry")
        state[layer] = list(entries)
    return state


def write_snapshot(state: Mapping[str, Any], path: str | os.PathLike, *,
                   semirings: tuple[str, ...] = ()) -> None:
    """Persist an exported cache state atomically.

    Writes to a temporary sibling and ``os.replace``s it into place, so
    a concurrent reader (another batch run warm-starting off the same
    path) never sees a torn file.
    """
    envelope = {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "semirings": tuple(semirings),
        "caches": dict(state),
    }
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".snapshot-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_snapshot(path: str | os.PathLike) -> dict:
    """Read and validate a snapshot file into a cache state.

    Raises :class:`SnapshotError` on every failure mode (missing file,
    truncated/corrupted pickle, foreign payload, unsupported version).
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise SnapshotError(f"{path}: cannot read snapshot "
                            f"({error})") from error
    try:
        envelope = _RestrictedUnpickler(io.BytesIO(data)).load()
    except SnapshotError:
        raise
    except Exception as error:  # truncated, corrupt, foreign pickle, …
        raise SnapshotError(f"{path}: corrupted snapshot "
                            f"({type(error).__name__}: {error})") from error
    return _validate(envelope, path)


def save_snapshot(engine: ContainmentEngine, path: str | os.PathLike, *,
                  include_verdicts: bool = True) -> dict[str, int]:
    """Export an engine's caches to ``path``; returns per-layer sizes."""
    state = engine.export_caches(include_verdicts=include_verdicts)
    write_snapshot(state, path, semirings=engine.registry.names())
    return {layer: len(entries) for layer, entries in state.items()}


def load_snapshot(engine: ContainmentEngine,
                  path: str | os.PathLike, *,
                  include_verdicts: bool = True) -> dict[str, int]:
    """Restore a snapshot file into an engine; returns restore counts.

    Entries for semirings unknown to this engine's registry are
    skipped; a bad file raises :class:`SnapshotError` *before* any
    entry is imported.  With ``include_verdicts=False`` the verdict
    layer is dropped even when the file carries one — how a respawned
    pool worker warm-starts its structural caches without inheriting
    ``cached: true`` flags its replacement run never earned.
    """
    state = read_snapshot(path)
    if not include_verdicts:
        state.pop("verdicts", None)
    return engine.import_caches(state)


def merge_states(states) -> dict:
    """Merge several exported cache states into one.

    Used to combine the per-worker caches of a pool into a single
    snapshot.  Entries are concatenated layer-wise; on key collisions
    the later state wins at import time (``import_caches`` overwrites),
    which is correct because every engine computes identical values for
    identical keys.
    """
    merged: dict = {layer: [] for layer in _LAYERS}
    for state in states:
        for layer in _LAYERS:
            merged[layer].extend(state.get(layer, ()))
    return merged
