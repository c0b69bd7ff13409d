"""The columnar evaluation engine vs the tuple-at-a-time reference.

The eval subsystem's reason to exist is throughput: K-annotated answer
relations over million-tuple instances, which the naive
valuation-enumerating :func:`repro.queries.evaluation.evaluate_all`
cannot touch.  This benchmark pins the subsystem's three claims on a
1M-tuple join workload (``Q(x) :- R(x, y), S(y)`` over ``T+``, the
paper's cost-annotation reading):

* **≥ 50× over tuple-at-a-time** — the columnar engine's throughput
  (facts/second) beats the reference evaluator by at least 50× on the
  same query shape.  The reference is measured on a subsampled
  instance (it is the toy; running it on the full million would take
  minutes) and compared by throughput, which favours the *reference* —
  small instances pay none of the columnar path's fixed setup costs.
* **byte-identical** — on the subsample both paths return exactly the
  same answer map, annotation types included; so do four more queries
  there (``EXTRA_QUERIES``), which reach the counting join's densify
  step, the decode of a head constant the instance never interned, the
  arity-0 rows of a Boolean query and the cross-member merge of a
  two-member UCQ, each read through the ``AnswerTable.rows`` view.
* **warm plan-cache hits** — repeated evaluations of the workload
  query hit the engine's ``eval_plans`` layer, visible in
  ``cache_stats()``.

``REPRO_BENCH_SMOKE=1`` (the CI default) keeps the equality and
plan-cache assertions but skips the machine-speed-sensitive timing
thresholds, and shrinks the instance so the smoke run stays fast.
"""

from __future__ import annotations

import os
import random
import time

from repro.api import ContainmentEngine
from repro.data.instance import Instance
from repro.queries.atoms import Atom, Var
from repro.queries.cq import CQ
from repro.queries.evaluation import evaluate_all
from repro.queries.parser import parse_cq, parse_ucq
from repro.queries.ucq import as_ucq
from repro.semirings import TPLUS

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Full-scale facts for the columnar side (1M) and the reference's
#: subsample; smoke runs shrink both but keep the comparison meaningful.
FULL_FACTS = 100_000 if SMOKE else 1_000_000
REFERENCE_FACTS = 2_000 if SMOKE else 10_000

QUERY_TEXT = "Q(x) :- R(x, y), S(y)"

X, Y = Var("x"), Var("y")
#: Byte-identity extras on the subsample: a two-column join key with an
#: inequality (its packed key space is the domain squared, sparse enough
#: that the counting join densifies it first) and a head constant the
#: instance never interned (built past ``CQ``'s variable-head check, as
#: quotient members are), a Boolean query (``()`` heads) and a two-member
#: UCQ whose members' rows merge.
EXTRA_QUERIES = (
    parse_cq("Q(x, y) :- R(x, y), R(y, x), x != y"),
    CQ._from_canonical((X, "unseen"), (Atom("R", (X, Y)), Atom("S", (Y,)))),
    parse_cq("Q() :- R(x, y), S(y)"),
    parse_ucq(["Q(x) :- R(x, y), S(y)", "Q(x) :- R(y, x), S(y)"]),
)


def edge_instance(fact_count: int, seed: int = 7) -> Instance:
    """A cost-annotated graph: ~90% ``R`` edges, ~10% ``S`` vertices."""
    rng = random.Random(seed)
    domain = max(fact_count // 10, 10)
    r_facts = fact_count - fact_count // 10
    edges: dict[tuple, int] = {}
    while len(edges) < r_facts:
        row = (rng.randrange(domain), rng.randrange(domain))
        cost = rng.randrange(1, 100)
        edges[row] = min(edges.get(row, cost), cost)
    vertices = {(v,): rng.randrange(1, 10)
                for v in rng.sample(range(domain), fact_count // 10)}
    return Instance(TPLUS, {"R": edges, "S": vertices})


def test_columnar_throughput_and_plan_cache():
    query = as_ucq(parse_cq(QUERY_TEXT))
    engine = ContainmentEngine()

    # -- full-scale columnar run ---------------------------------------
    instance = edge_instance(FULL_FACTS)
    facts = instance.fact_count()
    start = time.perf_counter()
    table = engine.evaluate(query, instance)
    columnar_seconds = time.perf_counter() - start
    columnar_rate = facts / columnar_seconds
    print(f"\n  columnar : {facts:>9,} facts -> {len(table):>7,} answers "
          f"in {columnar_seconds * 1e3:8.1f} ms "
          f"({columnar_rate / 1e6:6.2f} M facts/s)")

    # -- reference run on the subsample it can handle ------------------
    small = edge_instance(REFERENCE_FACTS, seed=8)
    small_facts = small.fact_count()
    start = time.perf_counter()
    reference_answers = evaluate_all(query, small)
    reference_seconds = time.perf_counter() - start
    reference_rate = small_facts / reference_seconds
    print(f"  reference: {small_facts:>9,} facts -> "
          f"{len(reference_answers):>7,} answers "
          f"in {reference_seconds * 1e3:8.1f} ms "
          f"({reference_rate / 1e6:6.2f} M facts/s)")

    # -- byte-identity on the subsample --------------------------------
    columnar_small = engine.evaluate(query, small).to_dict()
    assert columnar_small == reference_answers, \
        "columnar answers must be byte-identical to the reference"
    for head, value in reference_answers.items():
        assert type(columnar_small[head]) is type(value), (head, value)
    print(f"  identical: {len(reference_answers):,} answers agree "
          f"(annotation types included)")
    for extra in EXTRA_QUERIES:
        reference_extra = evaluate_all(extra, small)
        table = ContainmentEngine().evaluate(extra, small)
        columnar_extra = table.to_dict()
        assert repr(table.rows) == repr(list(table.rows)), extra
        assert len(table.rows) == len(columnar_extra), extra
        assert reference_extra, extra
        assert columnar_extra == reference_extra, extra
        assert list(map(repr, sorted(columnar_extra.items()))) == \
            list(map(repr, sorted(reference_extra.items()))), extra
        print(f"  identical: {len(reference_extra):,} answers of {extra!r}")

    # -- plan-cache warm hits ------------------------------------------
    plan_layer = engine.cache_stats()["layers"]["eval_plans"]
    assert plan_layer["entries"] == 1, plan_layer
    assert plan_layer["calls"] == 1, \
        "one plan build must serve every evaluation of the query"
    assert plan_layer["hits"] >= 1, \
        "repeated evaluations must hit the eval_plans layer"
    assert engine.stats.evaluations == 2
    print(f"  plan cache: {plan_layer['hits']} hit(s) / "
          f"{plan_layer['calls']} build "
          f"({plan_layer['entries']} entry)")

    speedup = columnar_rate / reference_rate
    print(f"  speedup  : {speedup:8.1f}x columnar over tuple-at-a-time")
    if not SMOKE:
        assert speedup >= 50.0, (
            f"the columnar engine must be >= 50x faster than "
            f"tuple-at-a-time, got {speedup:.1f}x")


if __name__ == "__main__":
    test_columnar_throughput_and_plan_cache()
