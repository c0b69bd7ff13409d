"""JSON-serializable request and verdict documents.

The core procedures exchange rich in-process objects (:class:`~repro.queries.cq.CQ`,
:class:`~repro.core.verdict.Verdict` with homomorphism-mapping
certificates).  Services, JSONL batch pipelines and golden-file tests
need the same information as plain data.  This module defines the two
wire types:

* :class:`ContainmentRequest` — what to decide: two queries, a semiring
  name, containment vs equivalence, an optional correlation id.
* :class:`VerdictDocument` — the outcome, including the certificate and
  explanation text, normalized to JSON-able form.

Both round-trip losslessly: ``T.from_dict(x.to_dict()) == x``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping

from ..core.verdict import MemberMatching, Verdict
from ..queries.atoms import is_var
from ..queries.cq import CQ
from ..queries.parser import parse_cq
from ..queries.serialize import query_from_dict, query_to_dict, term_to_dict
from ..queries.ucq import UCQ, as_ucq

__all__ = ["ContainmentRequest", "VerdictDocument", "certificate_to_doc",
           "coerce_request_id"]

_ANSWERS = {True: "CONTAINED", False: "NOT CONTAINED", None: "UNDECIDED"}


def coerce_request_id(value) -> str | None:
    """Normalize a wire-level request id to ``str | None``.

    JSONL writers routinely emit numeric ids (``{"id": 7}``); those are
    coerced to strings so ``request_id`` stays a string on the wire.
    Anything else non-string raises instead of being echoed as raw
    JSON.
    """
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise TypeError(
        f"request id must be a string (or an integer, coerced to "
        f"one), got {type(value).__name__}")


def _coerce_query(spec, parse: Callable[[str], CQ]) -> UCQ:
    """Build a UCQ from a flexible query spec.

    Accepts a ``CQ``/``UCQ`` object, Datalog source text, an iterable of
    member source texts, or the dict format of
    :func:`repro.queries.serialize.query_from_dict`.  Text and member
    lists resolve through :func:`_interned_union`, so with an engine's
    interning ``parse`` a repeated spec returns the same ``UCQ``.
    """
    if isinstance(spec, (CQ, UCQ)):
        return as_ucq(spec)
    if isinstance(spec, str):
        return _interned_union((parse(spec),))
    if isinstance(spec, Mapping):
        return as_ucq(query_from_dict(dict(spec)))
    if isinstance(spec, Iterable):
        members = []
        for member in spec:
            if isinstance(member, CQ):
                members.append(member)
            elif isinstance(member, str):
                members.append(parse(member))
            elif isinstance(member, Mapping):
                query = query_from_dict(dict(member))
                if not isinstance(query, CQ):
                    raise ValueError("union members must be CQs")
                members.append(query)
            else:
                raise TypeError(f"cannot read query member {member!r}")
        return _interned_union(tuple(members))
    raise TypeError(f"cannot read query spec {spec!r}")


#: How many unions one query's ``_hom_cache`` keeps (see
#: :func:`_interned_union`); the oldest goes first once it is full.
#: One pass of the perfbench ``table1_mix`` stream (seed 7919) has at
#: most 4 distinct unions per first member and ``bag_bounds`` 1, so 8
#: keeps every union of both with room to spare.
_UNIONS_PER_QUERY = 8

#: The empty union, which has no member to keep it.
_EMPTY_UNION = UCQ(())


def _interned_union(members: tuple[CQ, ...]) -> UCQ:
    """``UCQ(members)``, built once per member tuple.

    The union is kept in the first member's ``_hom_cache``, keyed by
    the member tuple, so an engine's ``parse``, which interns each
    source text as one ``CQ`` object, turns a repeated text or member
    list into the same ``UCQ``: validation and member sorting run once
    per distinct spec.  A tuple that fails validation raises and is
    never stored.  The memo lives and dies with the interned queries,
    so nothing is kept per process: once an engine's ``parsed`` layer
    evicts a query, or ``clear_caches`` drops it, a repeated text parses
    to a fresh query and the old memo is no longer reached.  It is also
    bounded per query.
    """
    if not members:
        return _EMPTY_UNION
    cache = members[0]._hom_cache
    unions = cache.get("unions")
    if unions is None:
        unions = cache["unions"] = {}
    union = unions.get(members)
    if union is None:
        union = UCQ(members)
        if len(unions) >= _UNIONS_PER_QUERY:
            unions.pop(next(iter(unions)), None)
        unions[members] = union
    return union


def _query_doc(union: UCQ) -> dict[str, Any]:
    """``query_to_dict(union)``, with each member's document computed
    once per ``CQ`` object (kept in its ``_hom_cache``).

    Only the top-level ``{"kind": "ucq", "members": [...]}`` wrapper is
    new on every call: the member documents are shared between every
    document that echoes the query, so they are read-only.
    """
    members = []
    for member in union:
        doc = member._hom_cache.get("doc")
        if doc is None:
            doc = member._hom_cache["doc"] = query_to_dict(member)
        members.append(doc)
    return {"kind": "ucq", "members": members}


def certificate_to_doc(certificate) -> dict | None:
    """Normalize a verdict certificate to plain JSON-able data.

    Homomorphism mappings become ``{"kind": "homomorphism", "mapping":
    {var: term-doc}}``; a :class:`~repro.core.verdict.MemberMatching`
    becomes ``{"kind": "bijective-matching", "assignment": [{"q1": i,
    "q2": j, "mapping": {var: term-doc}}, ...]}``; condition names
    become ``{"kind": "condition", "text": ...}``; anything else is kept
    as its ``repr``.
    """
    if certificate is None:
        return None
    if isinstance(certificate, Mapping):
        return {"kind": "homomorphism", "mapping": _mapping_doc(certificate)}
    if isinstance(certificate, MemberMatching):
        return {"kind": "bijective-matching",
                "assignment": [{"q1": i, "q2": j,
                                "mapping": _mapping_doc(mapping)}
                               for i, j, mapping in certificate.assignment]}
    if isinstance(certificate, str):
        return {"kind": "condition", "text": certificate}
    return {"kind": "opaque", "repr": repr(certificate)}


def _mapping_doc(mapping: Mapping) -> dict:
    """A variable mapping as ``{var name: term-doc}``, sorted by name."""
    doc = {var.name if is_var(var) else str(var): term_to_dict(image)
           for var, image in mapping.items()}
    return dict(sorted(doc.items()))


@dataclass(frozen=True)
class ContainmentRequest:
    """One containment (or equivalence) question, ready for an engine.

    ``q1``/``q2`` are stored as UCQs (singleton unions mean a CQ-level
    decision); ``semiring`` is a registry name or alias; ``id`` is an
    opaque correlation token echoed into the verdict document.
    """

    q1: UCQ
    q2: UCQ
    semiring: str
    equivalence: bool = False
    id: str | None = None

    @classmethod
    def make(cls, q1, q2, semiring: str, *, equivalence: bool = False,
             id: str | None = None,
             parse: Callable[[str], CQ] | None = None
             ) -> "ContainmentRequest":
        """Build a request from flexible query specs (see module docs).

        ``semiring`` must be a registry name or alias: requests are a
        wire type, and a :class:`~repro.semirings.base.Semiring`
        *instance* cannot travel with one — silently keeping only its
        name could resolve to a different semiring at decide time.
        Pass instances to :meth:`ContainmentEngine.decide` directly,
        or register them first.
        """
        if not isinstance(semiring, str):
            raise TypeError(
                f"ContainmentRequest takes a semiring name, got "
                f"{type(semiring).__name__}; pass the instance to "
                "engine.decide() or register it and use its name")
        id = coerce_request_id(id)
        parse = parse or parse_cq
        return cls(_coerce_query(q1, parse), _coerce_query(q2, parse),
                   semiring, equivalence=equivalence, id=id)

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able representation (defaults omitted).

        A new top-level dict and query wrappers on every call, but the
        query *member* documents are shared (memoized per ``CQ``): add
        top-level keys freely, and never write below ``q1``/``q2``.
        """
        data: dict[str, Any] = {
            "semiring": self.semiring,
            "q1": _query_doc(self.q1),
            "q2": _query_doc(self.q2),
        }
        if self.equivalence:
            data["equivalence"] = True
        if self.id is not None:
            data["id"] = self.id
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  parse: Callable[[str], CQ] | None = None
                  ) -> "ContainmentRequest":
        """Inverse of :meth:`to_dict`.

        Also accepts hand-written documents where ``q1``/``q2`` are
        Datalog source strings or lists of member strings.  ``parse``
        optionally reroutes text parsing (e.g. through an engine's
        interning cache).  ``equivalence`` must be a JSON boolean
        (absent means ``false``): a string such as ``"false"`` is
        refused, not read by its truthiness.
        """
        if "semiring" not in data or "q1" not in data or "q2" not in data:
            raise ValueError(
                "a containment request needs 'semiring', 'q1' and 'q2'")
        equivalence = data.get("equivalence", False)
        if not isinstance(equivalence, bool):
            raise TypeError(
                f"'equivalence' must be true or false, got "
                f"{type(equivalence).__name__}")
        return cls.make(data["q1"], data["q2"], data["semiring"],
                        equivalence=equivalence, id=data.get("id"),
                        parse=parse)


@dataclass(frozen=True)
class VerdictDocument:
    """A :class:`~repro.core.verdict.Verdict` in JSON-serializable form.

    Carries everything a remote caller or a golden file needs: the
    three-valued ``result``, the deciding ``method``, the semiring and
    both queries, the certificate (already normalized to plain data by
    :func:`certificate_to_doc`), the bounds flags for undecided
    verdicts, the explanation text, the echoed request id, and whether
    the engine served it from its verdict cache.
    """

    result: bool | None
    method: str
    semiring: str
    q1: UCQ
    q2: UCQ
    certificate: dict | None = None
    sufficient: bool | None = None
    necessary: bool | None = None
    explanation: str = ""
    request_id: str | None = None
    cached: bool = False

    @classmethod
    def from_verdict(cls, verdict: Verdict, *, semiring: str, q1, q2,
                     request_id: str | None = None,
                     cached: bool = False) -> "VerdictDocument":
        """Wrap a core verdict, normalizing its certificate."""
        return cls(
            result=verdict.result,
            method=verdict.method,
            semiring=semiring,
            q1=as_ucq(q1),
            q2=as_ucq(q2),
            certificate=certificate_to_doc(verdict.certificate),
            sufficient=verdict.sufficient,
            necessary=verdict.necessary,
            explanation=verdict.explanation,
            request_id=request_id,
            cached=cached,
        )

    @property
    def decided(self) -> bool:
        """True when the verdict carries a definite answer."""
        return self.result is not None

    @property
    def answer(self) -> str:
        """Human-readable label: CONTAINED / NOT CONTAINED / UNDECIDED."""
        return _ANSWERS[self.result]

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able representation (lossless).

        A new top-level dict and query wrappers on every call, but the
        query *member* documents are shared (memoized per ``CQ``), and
        so is ``certificate``: add top-level keys freely, and never
        write below them.
        """
        return {
            "result": self.result,
            "method": self.method,
            "semiring": self.semiring,
            "q1": _query_doc(self.q1),
            "q2": _query_doc(self.q2),
            "certificate": self.certificate,
            "sufficient": self.sufficient,
            "necessary": self.necessary,
            "explanation": self.explanation,
            "request_id": self.request_id,
            "cached": self.cached,
            "answer": self.answer,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VerdictDocument":
        """Inverse of :meth:`to_dict` (the derived ``answer`` is ignored)."""
        return cls(
            result=data["result"],
            method=data["method"],
            semiring=data["semiring"],
            q1=as_ucq(query_from_dict(data["q1"])),
            q2=as_ucq(query_from_dict(data["q2"])),
            certificate=data.get("certificate"),
            sufficient=data.get("sufficient"),
            necessary=data.get("necessary"),
            explanation=data.get("explanation", ""),
            request_id=data.get("request_id"),
            cached=bool(data.get("cached", False)),
        )

    def with_request(self, request_id: str | None,
                     cached: bool) -> "VerdictDocument":
        """Copy with per-request metadata (used on verdict-cache hits)."""
        return replace(self, request_id=request_id, cached=cached)
