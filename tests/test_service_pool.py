"""The sharded multiprocess worker pool and its supervision plumbing.

Chaos itself (SIGKILL mid-stream, warm-start respawn, redrive budgets,
stalled workers) lives in ``test_failure_injection.py``; this module
checks the pool's own plumbing: byte identity with sequential
evaluation, duplicate-cache semantics, snapshots, what the gateway
relies on (metrics, outcome futures, cancellation, pids), the backlogs
and steal policy, the respawn budget's boundary, and the arguments a
worker process is started with.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import multiprocessing.queues
import os
import signal
import sys
import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.api import ContainmentEngine, ContainmentRequest
from repro.api.batch import process_lines
from repro.service import DecisionError, WorkerPool, load_snapshot, shard_key
from repro.service import pool as pool_module

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
REQUEST = {"semiring": "B", "q1": "Q() :- R(u, v), R(u, w)",
           "q2": "Q() :- R(u, v), R(u, v)", "id": "cb"}


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


def test_decide_stream_answers_before_the_input_ends(pool):
    # The input stalls after one request, like a pipe that stays open:
    # its answer must come out while the feeder waits for the next.
    release = threading.Event()
    waited = []

    def stalling():
        yield dict(REQUEST, id="first")
        waited.append(release.wait(timeout=30))
        yield dict(REQUEST, id="second")

    stream = pool.decide_stream(stalling())
    assert next(stream).request_id == "first"
    assert waited == []
    release.set()
    assert [doc.request_id for doc in stream] == ["second"]
    assert waited == [True]


def test_decide_stream_reraises_an_input_error_in_position(pool):
    def failing():
        yield dict(REQUEST, id="before")
        raise OSError("input went away")

    stream = pool.decide_stream(failing())
    assert next(stream).request_id == "before"
    with pytest.raises(OSError, match="input went away"):
        next(stream)


def test_closing_a_stream_abandons_its_queued_requests():
    requests = [dict(REQUEST, id=f"s{index}",
                     q1=f"Q() :- R(u, v), S{index}(u)") for index in range(40)]
    with WorkerPool(1) as fresh:
        stream = fresh.decide_stream(iter(requests))
        assert next(stream).request_id == "s0"
        stream.close()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with fresh._cond:
                if not fresh._requests:
                    break
            time.sleep(0.05)
        with fresh._cond:
            assert fresh._requests == {}
        assert fresh.decide_one(dict(REQUEST, id="after")).result is True


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


def test_dead_worker_shard_reports_and_other_workers_survive(monkeypatch):
    # No respawn budget is the retire-on-death policy: the shard stays dead.
    monkeypatch.setattr(pool_module, "_MAX_RESPAWNS", 0)
    with WorkerPool(2) as fresh:
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


def _wait_until(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.05)
    return predicate()


def _respawned(pool, index: int, victim: int) -> bool:
    return pool.worker_pids()[index] not in (None, victim)


def test_respawn_budget_of_one_respawns_once_then_retires(monkeypatch):
    monkeypatch.setattr(pool_module, "_MAX_RESPAWNS", 1)
    with WorkerPool(2) as fresh:
        first = fresh.worker_pids()[0]
        os.kill(first, signal.SIGKILL)
        assert _wait_until(lambda: _respawned(fresh, 0, first)), \
            "the first death is within the budget: respawn"
        assert 0 not in fresh._dead
        second = fresh.worker_pids()[0]
        os.kill(second, signal.SIGKILL)
        assert _wait_until(lambda: 0 in fresh._dead), \
            "the second death exhausts the budget: retire"
        report = fresh.metrics.as_dict()
    assert report["respawns"] == 1
    assert report["worker_restarts"] == [1, 0]


def test_worker_processes_get_only_plain_arguments(monkeypatch, tmp_path):
    # A forked worker inherits whatever its arguments reference: a lock
    # or a socket there would be shared with the serving parent.
    context = multiprocessing.get_context(pool_module._START_METHOD)
    spawn = context.Process
    arguments = []

    def recording_process(*args, **kwargs):
        arguments.append(kwargs["args"])
        return spawn(*args, **kwargs)

    monkeypatch.setattr(context, "Process", recording_process)
    with WorkerPool(1, snapshot_path=tmp_path / "absent.snap") as fresh:
        victim = fresh.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        assert _wait_until(lambda: _respawned(fresh, 0, victim))
    kinds = (int, multiprocessing.queues.Queue,
             multiprocessing.connection.Connection, (str, type(None)), bool)
    assert len(arguments) == 2  # the first worker and its replacement
    for args in arguments:
        assert len(args) == len(kinds), args
        assert all(isinstance(value, kind)
                   for value, kind in zip(args, kinds)), args
    assert [args[4] for args in arguments] == [True, False]


def test_backlogs_hand_out_each_entry_once():
    backlogs = pool_module._Backlogs(2)
    for seq in range(4):
        backlogs.push(0, seq, f"r{seq}", fresh=seq != 1)
    backlogs.requeue(0, [(9, "r9")])
    # Shard 1 has no backlog of its own: it steals shard 0's newest
    # fresh entries, and never a pinned one.
    assert [backlogs.take(1) for _ in range(4)] \
        == [(3, "r3", True), (2, "r2", True), (0, "r0", True), None]
    assert backlogs.depths() == [2, 0]
    assert [backlogs.take(0) for _ in range(3)] \
        == [(9, "r9", False), (1, "r1", False), None]
    backlogs.push(1, 10, "r10", fresh=False)
    assert backlogs.drain(1) == [10]
    assert backlogs.depths() == [0, 0]


def test_abandoning_one_backlogged_request_keeps_the_rest_queued():
    with WorkerPool(1) as fresh:
        requests = [fresh.normalize(dict(REQUEST, id=f"k{index}",
                                         q1=f"Q() :- R(u, v), K{index}(u)"))
                    for index in range(7)]
        pid = fresh.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            futures = [fresh.submit(request) for request in requests]
            futures[5].cancel()
        finally:
            os.kill(pid, signal.SIGCONT)
        answered = [future.result(timeout=30).request_id
                    for future in futures[:5] + futures[6:]]
    assert answered == ["k0", "k1", "k2", "k3", "k4", "k6"]


def test_rejects_zero_workers():
    with pytest.raises(ValueError):
        WorkerPool(0)


def test_metrics_report_shape(pool):
    report = pool.metrics.as_dict()
    for counter in ("accepted", "shed", "expired", "respawns", "steals",
                    "redriven", "redrive_failures"):
        assert counter in report
    assert report["respawns"] == 0
    assert report["worker_restarts"] == [0, 0]
    assert len(report["queue_depths"]) == 2
    assert report["max_backlog"] >= 0


def test_done_callback_fires_off_thread(pool):
    done = threading.Event()
    outcomes = []
    future = pool.submit(pool.normalize(dict(REQUEST)))
    future.add_done_callback(lambda settled: (
        outcomes.append(settled.result()), done.set()))
    assert done.wait(timeout=30)
    assert outcomes[0].request_id == "cb"


def test_cancelling_discards_the_eventual_result(pool):
    future = pool.submit(pool.normalize(dict(REQUEST, id="gone")))
    assert future.cancel()
    with pytest.raises(CancelledError):
        future.result(timeout=0.5)
    # The verdict still arrives; the collector drops it and lives on.
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        with pool._cond:
            if not pool._requests:
                break
        time.sleep(0.05)
    with pool._cond:
        assert pool._requests == {}
    assert future.cancelled()
    assert pool.decide_one(dict(REQUEST)).request_id == "cb"


def test_worker_pids_reports_live_processes(pool):
    pids = pool.worker_pids()
    assert len(pids) == 2
    assert all(isinstance(pid, int) for pid in pids)
    assert pids == [process.pid for process in pool._processes]


def test_pooled_batch_equals_sequential_batch_byte_for_byte():
    # Every in-band error shape of the JSONL stream, plus duplicates,
    # through the pooled batch path and the sequential one.
    valid = [{"semiring": "B", "q1": "Q() :- R(u, v), R(u, w)",
              "q2": "Q() :- R(u, v), R(u, v)", "id": "a"},
             {"semiring": "N", "q1": "Q() :- R(u, v)",
              "q2": "Q() :- R(u, v), R(u, v)", "id": "b"},
             {"semiring": "Lin[X]", "q1": "Q() :- R(x, y), R(y, z)",
              "q2": "Q() :- R(a, b)"}]
    lines = [json.dumps(valid[0]), "", "# a comment line",
             '{"semiring": "B", "q1": ', "[1, 2, 3]",
             json.dumps({"semiring": "no-such-semiring",
                         "q1": "Q() :- R(u)", "q2": "Q() :- R(u)",
                         "id": "unknown"}),
             json.dumps({"semiring": "B", "q1": "Q() :- broken(",
                         "q2": "Q() :- R(u)", "id": "unparsable"}),
             json.dumps(valid[1]), json.dumps(valid[2]),
             json.dumps(valid[0]), "   ", json.dumps(valid[2]),
             json.dumps(valid[1])]

    def render(documents) -> list[str]:
        return [json.dumps(document, ensure_ascii=False)
                for document in documents]

    sequential = render(process_lines(ContainmentEngine(), lines))
    with WorkerPool(2) as fresh:
        pooled = render(process_lines(ContainmentEngine(), lines,
                                      pool=fresh))
    assert pooled == sequential
    assert sum('"error"' in line for line in sequential) == 4
    assert sum('"cached": true' in line for line in sequential) == 3

    # The feeder thread reads the lines (and records their numbers)
    # while the caller writes results: more workers than cores, a long
    # stream past the read-ahead window and a thread switch every few
    # bytecodes must still give the sequential bytes.
    long_lines = lines * 20
    sequential = render(process_lines(ContainmentEngine(), long_lines))
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WorkerPool(3) as fresh:
            runner = threading.Thread(target=lambda: outputs.append(render(
                process_lines(ContainmentEngine(), long_lines,
                              pool=fresh))))
            runner.start()
            runner.join(timeout=120)
            assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert outputs == [sequential]
