"""The sharded multiprocess worker pool."""

from __future__ import annotations

import time

import pytest

from repro.api import ContainmentEngine, ContainmentRequest
from repro.service import DecisionError, WorkerPool, load_snapshot, shard_key

CQ_PAIRS = [
    ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)"),
    ("Q() :- R(u, v), R(u, v)", "Q() :- R(u, v), R(u, w)"),
    ("Q() :- R(u, v)", "Q() :- R(u, v), R(u, v)"),
    ("Q() :- R(u, v), S(u)", "Q() :- R(u, v)"),
    ("Q() :- R(u, u)", "Q() :- R(u, v)"),
    ("Q() :- E(x, y), E(y, z)", "Q() :- E(u, v), E(v, u)"),
    ("Q() :- R(x, y), R(y, z), R(x, z)", "Q() :- R(a, b), R(b, c)"),
]
UCQ_PAIRS = [
    (["Q() :- R(v), S(v)"], ["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"]),
    (["Q() :- R(v), S(v)"], ["Q() :- R(v)", "Q() :- S(v)"]),
    (["Q() :- R(u, u)", "Q() :- R(u, u)"], ["Q() :- R(u, u)"]),
]
SEMIRINGS = ["B", "N", "Lin[X]", "Why[X]", "T+", "N[X]", "Trio[X]"]


def mixed_workload(*, repeats: int = 1) -> list[dict]:
    """A mixed-semiring JSONL-style workload with duplicate requests."""
    requests: list[dict] = []
    for semiring in SEMIRINGS:
        for q1, q2 in CQ_PAIRS:
            requests.append({"semiring": semiring, "q1": q1, "q2": q2})
        for q1, q2 in UCQ_PAIRS:
            requests.append({"semiring": semiring, "q1": q1, "q2": q2})
    requests.append({"semiring": "B", "q1": CQ_PAIRS[0][0],
                     "q2": CQ_PAIRS[0][1], "equivalence": True})
    requests = requests * repeats
    for index, request in enumerate(requests):
        request = dict(request)
        request["id"] = f"r{index}"
        requests[index] = request
    return requests


def sequential_documents(requests) -> list[dict]:
    engine = ContainmentEngine()
    return [doc.to_dict() for doc in engine.decide_many(requests)]


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as shared:
        yield shared


def test_parallel_output_equals_sequential_byte_for_byte(pool):
    # The satellite workload: 200+ mixed-semiring requests, duplicates
    # included, decided sequentially and across workers.  Every verdict
    # document — certificate, explanation, request id, even the cached
    # flag — must match, because same-key sharding reproduces the
    # sequential engine's verdict-cache behavior.
    requests = mixed_workload(repeats=3)
    assert len(requests) >= 200
    expected = sequential_documents(requests)
    actual = [doc.to_dict() for doc in pool.decide_many(requests)]
    assert actual == expected


def test_duplicate_requests_share_one_worker_cache(pool):
    request = {"semiring": "B", "q1": "Q() :- R(a, b), S(a)",
               "q2": "Q() :- R(a, b)"}
    first, second = pool.decide_many([dict(request), dict(request)])
    assert first.cached is False
    assert second.cached is True


def test_in_band_errors_keep_positions_and_ids(pool):
    requests = [
        {"semiring": "B", "q1": "Q() :- R(u, v)", "q2": "Q() :- R(u, u)",
         "id": "ok-1"},
        {"semiring": "no-such-semiring", "q1": "Q() :- R(u)",
         "q2": "Q() :- R(u)", "id": "bad-semiring"},
        {"semiring": "B", "q1": "Q() :- broken(", "q2": "Q() :- R(u)",
         "id": "bad-query"},
        {"semiring": "B", "q1": "Q() :- R(u, v)", "q2": "Q() :- R(v, u)",
         "id": "ok-2"},
    ]
    outcomes = pool.decide_many(requests)
    assert outcomes[0].request_id == "ok-1"
    assert isinstance(outcomes[1], DecisionError)
    assert "no-such-semiring" in outcomes[1].error
    assert outcomes[1].id == "bad-semiring"
    assert isinstance(outcomes[2], DecisionError)
    assert outcomes[2].id == "bad-query"
    assert outcomes[3].request_id == "ok-2"


def test_decide_stream_preserves_order_lazily(pool):
    requests = mixed_workload()
    ids = [doc.request_id for doc in pool.decide_stream(iter(requests))]
    assert ids == [request["id"] for request in requests]


def test_sharding_is_deterministic_and_alias_stable(pool):
    request = ContainmentRequest.make("Q() :- R(u, v)", "Q() :- R(u, u)",
                                      "B")
    by_alias = ContainmentRequest.make("Q() :- R(u, v)", "Q() :- R(u, u)",
                                       "boolean")
    assert pool.shard_of(request) == pool.shard_of(request)
    # Aliases resolve to the canonical name before hashing, so "B" and
    # "boolean" land on the same worker (and thus one verdict cache).
    assert shard_key(request, ContainmentEngine().registry) \
        == shard_key(by_alias, ContainmentEngine().registry)
    assert pool.shard_of(request) == pool.shard_of(by_alias)


def test_per_worker_stats_cover_the_whole_workload():
    requests = mixed_workload()
    with WorkerPool(2) as fresh:
        fresh.decide_many(requests)
        stats = fresh.stats()
        assert len(stats) == 2
        assert sum(info["decisions"] for info in stats) == len(requests)
        aggregate = fresh.aggregate_stats()
        assert aggregate["decisions"] == len(requests)


def test_pool_snapshot_collects_worker_caches(tmp_path):
    path = tmp_path / "pool.snap"
    requests = mixed_workload()
    with WorkerPool(2, snapshot_path=path) as fresh:
        fresh.decide_many(requests)
        counts = fresh.save_snapshot()
    assert counts["verdicts"] > 0
    restored = ContainmentEngine()
    load_snapshot(restored, path)
    doc = restored.decide(requests[0]["q1"], requests[0]["q2"],
                          requests[0]["semiring"])
    assert doc.cached is True


def test_workers_warm_start_from_snapshot(tmp_path):
    path = tmp_path / "warm.snap"
    requests = mixed_workload()
    with WorkerPool(2, snapshot_path=path) as first:
        first.decide_many(requests)
        first.save_snapshot()
    with WorkerPool(2, snapshot_path=path) as second:
        docs = second.decide_many(requests)
        stats = second.stats()
    assert all(doc.cached for doc in docs)
    assert sum(info["hom_calls"] for info in stats) == 0
    assert sum(info["classify_calls"] for info in stats) == 0


def test_dead_worker_shard_reports_and_other_workers_survive():
    # max_respawns=0 is the retire-on-death policy: the shard stays dead.
    with WorkerPool(2, max_respawns=0) as fresh:
        victim = fresh._processes[0]
        victim.terminate()
        deadline = time.monotonic() + 5.0
        while 0 not in fresh._dead and time.monotonic() < deadline:
            time.sleep(0.05)
        assert 0 in fresh._dead, "collector must notice the dead worker"
        # Find requests routed to each shard.
        survivor_request = dead_request = None
        for index in range(64):
            request = ContainmentRequest.make(
                f"Q() :- R(u, v), S{index}(u)", "Q() :- R(u, v)", "B")
            if fresh.shard_of(request) == 0:
                dead_request = dead_request or request
            else:
                survivor_request = survivor_request or request
            if survivor_request and dead_request:
                break
        assert survivor_request is not None and dead_request is not None
        outcome = fresh.decide_one(survivor_request)
        assert outcome.result is True
        with pytest.raises(RuntimeError, match="died"):
            fresh.submit(dead_request)
        # The service entry points stay in-band instead of raising.
        failed = fresh.decide_one(dead_request)
        assert isinstance(failed, DecisionError)
        assert "died" in failed.error
        stream = fresh.decide_many([survivor_request, dead_request])
        assert stream[0].result is True
        assert isinstance(stream[1], DecisionError)


def test_rejects_zero_workers():
    with pytest.raises(ValueError):
        WorkerPool(0)
