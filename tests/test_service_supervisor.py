"""The worker pool's supervision plumbing, with nobody dying.

Chaos itself (SIGKILL mid-stream, warm-start respawn, redrive budgets)
lives in ``test_failure_injection.py``; this module checks that the
parent-side dispatcher (backlogs, prefetch, stealing) keeps output
byte-identical and duplicate-cache semantics intact, and that the
supervision plumbing (metrics, result callbacks, abandonment, pid
reporting) behaves.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import ContainmentEngine
from repro.service import ServiceMetrics, WorkerPool

from test_service_pool import mixed_workload, sequential_documents

REQUEST = {"semiring": "B", "q1": "Q() :- R(u, v), R(u, w)",
           "q2": "Q() :- R(u, v), R(u, v)", "id": "cb"}


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as shared:
        yield shared


def test_supervised_output_equals_sequential_byte_for_byte(pool):
    requests = mixed_workload(repeats=2)
    expected = sequential_documents(requests)
    actual = [doc.to_dict() for doc in pool.decide_many(requests)]
    assert actual == expected


def test_duplicate_requests_still_share_one_cache(pool):
    request = {"semiring": "N", "q1": "Q() :- R(a, b), S(a)",
               "q2": "Q() :- R(a, b)"}
    first, second = pool.decide_many([dict(request), dict(request)])
    assert first.cached is False
    assert second.cached is True


def test_metrics_report_shape(pool):
    report = pool.metrics.as_dict()
    for counter in ("accepted", "shed", "expired", "respawns", "steals",
                    "redriven", "redrive_failures"):
        assert counter in report
    assert report["respawns"] == 0
    assert report["worker_restarts"] == [0, 0]
    assert len(report["queue_depths"]) == 2
    assert report["overflow_depth"] == 0
    assert report["max_backlog"] >= 0


def test_shared_metrics_instance_is_used_when_given():
    metrics = ServiceMetrics(workers=2)
    with WorkerPool(2, metrics=metrics) as fresh:
        assert fresh.metrics is metrics
        fresh.decide_one(dict(REQUEST))
    assert metrics.as_dict()["respawns"] == 0


def test_on_result_callback_fires_off_thread(pool):
    done = threading.Event()
    outcomes = []
    seq = pool.submit(pool.normalize(dict(REQUEST)))
    pool.on_result(seq, lambda outcome: (outcomes.append(outcome),
                                         done.set()))
    assert done.wait(timeout=30)
    assert outcomes[0].request_id == "cb"


def test_abandon_discards_the_eventual_result(pool):
    seq = pool.submit(pool.normalize(dict(REQUEST)))
    pool.abandon(seq)
    with pytest.raises(TimeoutError):
        pool.result(seq, timeout=0.5)


def test_worker_pids_reports_live_processes(pool):
    pids = pool.worker_pids()
    assert len(pids) == 2
    assert all(isinstance(pid, int) for pid in pids)
    assert pids == [process.pid for process in pool._processes]


def test_stats_surface_whole_workload():
    requests = mixed_workload()
    with WorkerPool(2) as fresh:
        fresh.decide_many(requests)
        stats = fresh.stats()
    assert sum(info["decisions"] for info in stats) == len(requests)


def test_warm_start_matches_base_pool_contract(tmp_path):
    path = tmp_path / "supervised-warm.snap"
    requests = mixed_workload()
    with WorkerPool(2, snapshot_path=path) as first:
        first.decide_many(requests)
        first.save_snapshot()
    with WorkerPool(2, snapshot_path=path) as second:
        docs = second.decide_many(requests)
    assert all(doc.cached for doc in docs)
    engine = ContainmentEngine()
    assert [doc.to_dict() for doc in engine.decide_many(requests)] \
        != [doc.to_dict() for doc in docs]  # cold run differs (cached flags)
