"""Spans around the program's layer boundaries, recorded from outside.

The traced run wraps, from the benchmark's own files:

* the engine instance's public memo methods (``CachingDecisionContext``
  routes every primitive through them) and ``decide``/``evaluate``;
* the computations the engine calls on a cache miss, as imported in
  ``repro.api.engine`` (classification, parsing, the homomorphism
  searcher, canonical forms, complete descriptions, the tropical LP and
  certificate revalidation);
* the Table-1 condition functions as imported in
  ``repro.core.containment``;
* ``run_plan`` as imported in ``repro.eval.engine``, plus
  ``Instance.from_csv`` and ``ColumnarInstance.from_instance``.

Spans (id, name, start, end, parent id, request id) stay in memory and
are written out at the end.  Self time is a span's duration minus the
part its child spans cover; spans nest strictly (one thread), so it is
accumulated as spans close.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

#: Engine memo methods and the span names of their calls.
ENGINE_METHODS = (
    ("classification", "api.classifications"),
    ("parse", "api.parsed"),
    ("find_homomorphism", "api.homs"),
    ("homomorphism_mappings", "api.hom_enums"),
    ("covered_atoms", "api.covered"),
    ("complete_description", "api.descriptions"),
    ("canonical_form", "api.canonical"),
    ("poly_leq", "api.poly_orders"),
    ("eval_plan", "api.eval_plans"),
)

#: Condition functions wrapped as imported in ``repro.core.containment``.
CONDITIONS = ("local_condition", "covering_union", "covering_2",
              "sur_infty", "bi_count_k", "small_model_contained")


class Tracer:
    """Collects spans and per-name aggregates (calls, total, self)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.request_id = None
        self._stack: list[list] = []  # [span id, name, child-covered s]
        self._next_id = 0
        self._undo: list[tuple] = []

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments;
        ``after(result, args, kwargs)`` may update :attr:`counts`.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, label, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.calls[label] += 1
                tracer.total_s[label] += duration
                tracer.self_s[label] += duration - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                tracer.spans.append((span_id, label, start, end, parent,
                                     tracer.request_id))
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def counting_generator(self, fn):
        """Wrap a generator function: count items per enclosing span."""
        tracer = self

        def wrapper(*args, **kwargs):
            owner = tracer._stack[-1][1] if tracer._stack else "<root>"
            for item in fn(*args, **kwargs):
                tracer.counts[f"{owner}.mappings"] += 1
                yield item
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`undo`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        """Restore everything :meth:`install_modules` replaced."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def trace_engine(self, engine) -> None:
        """Wrap one engine instance's memo methods and entry points."""
        for method, label in ENGINE_METHODS:
            setattr(engine, method, self.span(label, getattr(engine, method)))
        engine.decide = self._decide_wrapper(engine.decide)

        def answers(result, args, kwargs):
            self.counts["evaluate.answers"] += len(result.rows)
        engine.evaluate = self.span("eval.evaluate", engine.evaluate, answers)

    def _decide_wrapper(self, decide):
        inner = self.span("api.decide", decide)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.request_id = kwargs.get("request_id")
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.request_id = None
        return wrapper

    def install_modules(self) -> None:
        """Wrap the layer functions as the engine and dispatcher import
        them, and the instance loaders."""
        from repro.api import engine as api_engine
        from repro.core import containment
        from repro.data.instance import Instance
        from repro.eval import engine as eval_engine
        from repro.eval.columns import ColumnarInstance

        def hom_label(args, kwargs):
            kind = args[2] if len(args) > 2 else kwargs["kind"]
            return f"homomorphisms.find_homomorphism.{kind.value}"

        def hom_found(result, args, kwargs):
            kind = args[2] if len(args) > 2 else kwargs["kind"]
            self.counts[f"find_homomorphism.{kind.value}.found"] += (
                result is not None)

        def members(result, args, kwargs):
            self.counts["complete_description.members"] += len(result)

        def rows(result, args, kwargs):
            if result is not None:
                self.counts["run_plan.rows"] += result.row_count

        patches = [
            (api_engine, "classify", self.span("core.classification",
                                               api_engine.classify)),
            (api_engine, "parse_cq", self.span("queries.parse",
                                               api_engine.parse_cq)),
            (api_engine, "find_homomorphism",
             self.span(hom_label, api_engine.find_homomorphism, hom_found)),
            (api_engine, "homomorphisms",
             self.counting_generator(api_engine.homomorphisms)),
            (api_engine, "compute_canonical_form",
             self.span("homomorphisms.canonical_form",
                       api_engine.compute_canonical_form)),
            (api_engine, "complete_description_ucq",
             self.span("queries.complete_description",
                       api_engine.complete_description_ucq, members)),
            (api_engine, "decide_poly_leq",
             self.span("polynomials.poly_leq", api_engine.decide_poly_leq)),
            (api_engine, "certificate_valid",
             self.span("polynomials.certificate_valid",
                       api_engine.certificate_valid)),
            (eval_engine, "run_plan",
             self.span("eval.run_plan", eval_engine.run_plan, rows)),
        ]
        patches += [(containment, name,
                     self.span(f"core.condition.{name}",
                               getattr(containment, name)))
                    for name in CONDITIONS]
        for owner, attr, replacement in patches:
            self.patch(owner, attr, replacement)
        self.patch(Instance, "from_csv", classmethod(self.span(
            "eval.load", Instance.from_csv.__func__)))
        self.patch(ColumnarInstance, "from_instance", classmethod(self.span(
            "eval.transpose", ColumnarInstance.from_instance.__func__)))

    def write(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent, "request": request})
                    + "\n")
        return len(self.spans)
