"""Failure injection: broken semirings and killed worker processes.

Two trust chains are defended here.  The first is the library's: the
dispatcher believes the declared `SemiringProperties`, so the auditor
has to be able to falsify wrong declarations.  The second is the
service's: `WorkerPool` promises byte-identical results even
when workers are SIGKILLed mid-stream, so these tests kill workers and
diff the survivors' output against a sequential engine.
"""

from __future__ import annotations

import os
import random
import signal
import struct
import threading
import time

import pytest

from repro.api import ContainmentEngine, ContainmentRequest
from repro.semirings import (Semiring, SemiringProperties,
                             audit_declared_axioms, audit_positivity,
                             audit_semiring_laws)
from repro.service import (DecisionError, WorkerPool, load_snapshot,
                           save_snapshot)
from repro.service import pool as pool_module


class BrokenDistributivity(Semiring):
    """max/plus hybrid that violates distributivity."""

    name = "broken-dist"
    properties = SemiringProperties(offset=1, add_idempotent=True)

    zero = property(lambda self: 0)
    one = property(lambda self: 1)

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        return a + b  # identity is 0, not 1 → law violations

    def leq(self, a, b):
        return a <= b

    def sample(self, rng):
        return rng.randint(0, 5)


class WrongOrder(Semiring):
    """Boolean algebra with a reversed (non-positive) order."""

    name = "wrong-order"
    properties = SemiringProperties(
        mul_idempotent=True, one_annihilating=True, add_idempotent=True,
        mul_semi_idempotent=True, offset=1)

    zero = property(lambda self: False)
    one = property(lambda self: True)

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

    def leq(self, a, b):
        return (not b) or a  # reversed: 0 is now the top

    def sample(self, rng):
        return rng.random() < 0.5


class OverclaimedIdempotence(Semiring):
    """Bag semantics declaring ⊗-idempotence it does not have."""

    name = "overclaimed"
    properties = SemiringProperties(
        mul_idempotent=True, mul_semi_idempotent=True, offset=2)

    zero = property(lambda self: 0)
    one = property(lambda self: 1)

    def add(self, a, b):
        return min(a + b, 2)

    def mul(self, a, b):
        return min(a * b, 3)  # inconsistent cap: 2·2 = 3 ≠ 2

    def leq(self, a, b):
        return a <= b

    def sample(self, rng):
        return rng.randint(0, 2)


class UnderclaimedAnnihilation(Semiring):
    """A lattice hiding its 1-annihilation (declared-False must be
    falsified by finding NO violation)."""

    name = "underclaimed"
    properties = SemiringProperties(
        mul_idempotent=True, one_annihilating=False, add_idempotent=True,
        mul_semi_idempotent=True, offset=1)

    zero = property(lambda self: 0)
    one = property(lambda self: 3)

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        return min(a, b)

    def leq(self, a, b):
        return a <= b

    def sample(self, rng):
        return rng.randint(0, 3)


class WrongOffset(Semiring):
    """Saturating at 3 but declaring offset 2."""

    name = "wrong-offset"
    properties = SemiringProperties(mul_semi_idempotent=True, offset=2)

    zero = property(lambda self: 0)
    one = property(lambda self: 1)

    def add(self, a, b):
        return min(a + b, 3)

    def mul(self, a, b):
        return min(a * b, 3)

    def leq(self, a, b):
        return a <= b

    def sample(self, rng):
        return rng.randint(0, 3)


def test_laws_audit_catches_broken_distributivity():
    report = audit_semiring_laws(BrokenDistributivity(), random.Random(1))
    assert not report.ok


def test_positivity_audit_catches_reversed_order():
    report = audit_positivity(WrongOrder(), random.Random(2))
    assert not report.ok


def test_axiom_audit_catches_overclaimed_idempotence():
    report = audit_declared_axioms(OverclaimedIdempotence(),
                                   random.Random(3))
    assert any("mul_idempotent" in failure for failure in report.failures)


def test_axiom_audit_catches_underclaimed_annihilation():
    report = audit_declared_axioms(UnderclaimedAnnihilation(),
                                   random.Random(4))
    assert any("one_annihilating" in failure for failure in report.failures)


def test_axiom_audit_catches_wrong_offset():
    report = audit_declared_axioms(WrongOffset(), random.Random(5))
    assert any("offset" in failure for failure in report.failures)


def test_properties_record_rejects_inconsistencies():
    with pytest.raises(ValueError):
        SemiringProperties(one_annihilating=True, add_idempotent=False)
    with pytest.raises(ValueError):
        SemiringProperties(add_idempotent=True, offset=2)
    with pytest.raises(ValueError):
        SemiringProperties(mul_idempotent=True, offset=3)


# ---------------------------------------------------------------------------
# Service chaos: SIGKILLed workers must not change a single output byte.
# ---------------------------------------------------------------------------

CHAOS_SEMIRINGS = ["B", "N", "Lin[X]", "Why[X]", "T+", "N[X]"]
CHAOS_PAIRS = [
    ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)"),
    ("Q() :- R(u, v)", "Q() :- R(u, v), R(u, v)"),
    ("Q() :- R(u, v), S(u)", "Q() :- R(u, v)"),
    ("Q() :- R(u, u)", "Q() :- R(u, v)"),
    ("Q() :- E(x, y), E(y, z)", "Q() :- E(u, v), E(v, u)"),
    ("Q() :- R(x, y), R(y, z), R(x, z)", "Q() :- R(a, b), R(b, c)"),
]


def chaos_workload(*, repeats: int = 2) -> list[dict]:
    """A mixed workload with duplicates, large enough to straddle a kill."""
    requests: list[dict] = []
    for semiring in CHAOS_SEMIRINGS:
        for q1, q2 in CHAOS_PAIRS:
            requests.append({"semiring": semiring, "q1": q1, "q2": q2})
    requests = requests * repeats
    for index, request in enumerate(requests):
        request = dict(request)
        request["id"] = f"c{index}"
        requests[index] = request
    return requests


def sequential_documents(requests) -> list[dict]:
    return [doc.to_dict()
            for doc in ContainmentEngine().decide_many(requests)]


def _wait_until(predicate, timeout: float = 20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def test_sigkill_mid_stream_keeps_output_byte_identical():
    requests = chaos_workload(repeats=2)
    assert len(requests) >= 70
    expected = sequential_documents(requests)
    with WorkerPool(4) as pool:
        futures = [pool.submit(pool.normalize(request))
                   for request in requests]
        outcomes = [future.result(timeout=60) for future in futures[:10]]
        victim = next(pid for pid in pool.worker_pids() if pid)
        os.kill(victim, signal.SIGKILL)
        outcomes += [future.result(timeout=60) for future in futures[10:]]
        assert [outcome.to_dict() for outcome in outcomes] == expected
        assert pool.metrics.get("respawns") >= 1
        assert sum(pool.metrics.as_dict()["worker_restarts"]) >= 1


def test_respawned_worker_warm_starts_from_snapshot(tmp_path):
    path = tmp_path / "supervised.snap"
    requests = chaos_workload(repeats=1)
    with WorkerPool(2, snapshot_path=path) as pool:
        first = pool.decide_many(requests)
        assert not any(isinstance(doc, DecisionError) for doc in first)
        pool.save_snapshot()
        victim = pool.worker_pids()[1]
        os.kill(victim, signal.SIGKILL)
        assert _wait_until(lambda: pool.metrics.get("respawns") >= 1), \
            "collector must respawn an idle-killed worker"
        assert _wait_until(
            lambda: pool.worker_pids()[1] not in (None, victim))
        second = pool.decide_many(requests)
        stats = pool.stats()
    # A sequential engine would serve the repeat pass entirely from its
    # verdict cache; the supervised pool must look exactly the same even
    # though one worker restarted with a verdict-stripped warm start.
    assert [doc.to_dict() for doc in second] \
        == sequential_documents(requests + requests)[len(requests):]
    assert all(doc.cached for doc in second)
    # The respawn imported the structural layers: re-decides on the new
    # process never re-ran a homomorphism search or classification.
    assert stats[1]["hom_calls"] == 0
    assert stats[1]["classify_calls"] == 0


def test_work_stealing_relieves_a_skewed_shard():
    with WorkerPool(2) as pool:
        skewed: list[ContainmentRequest] = []
        index = 0
        while len(skewed) < 24:
            request = ContainmentRequest.make(
                f"Q() :- R(u, v), T{index}(u)", "Q() :- R(u, v)", "B")
            if pool.shard_of(request) == 0:
                skewed.append(request)
            index += 1
        expected = sequential_documents(skewed)
        outcomes = pool.decide_many(skewed)
        assert [outcome.to_dict() for outcome in outcomes] == expected
        assert pool.metrics.get("steals") > 0, \
            "the idle worker must have stolen from the skewed backlog"


def test_exhausted_respawn_budget_retires_the_shard(monkeypatch):
    monkeypatch.setattr(pool_module, "_MAX_RESPAWNS", 0)
    with WorkerPool(2) as pool:
        victim_index = 0
        pool._processes[victim_index].kill()
        assert _wait_until(lambda: victim_index in pool._dead), \
            "a shard past its respawn budget must be retired, not respawned"
        assert pool.metrics.get("respawns") == 0
        dead_request = survivor_request = None
        for index in range(64):
            request = ContainmentRequest.make(
                f"Q() :- R(u, v), U{index}(u)", "Q() :- R(u, v)", "B")
            if pool.shard_of(request) == victim_index:
                dead_request = dead_request or request
            else:
                survivor_request = survivor_request or request
        failed = pool.decide_one(dead_request)
        assert isinstance(failed, DecisionError)
        assert "died" in failed.error
        assert pool.decide_one(survivor_request).result is True


def test_poisonous_request_fails_in_band_after_redrive_budget(monkeypatch):
    monkeypatch.setattr(pool_module, "_MAX_REDRIVES", 0)
    with WorkerPool(1) as pool:
        request = pool.normalize({"semiring": "B", "q1": "Q() :- R(u, v)",
                                  "q2": "Q() :- R(u, u)", "id": "poison"})
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            future = pool.submit(request)
            os.kill(pid, signal.SIGKILL)
            outcome = future.result(timeout=30)
        finally:
            try:  # harmless once the kill landed; frees the worker if not
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        assert isinstance(outcome, DecisionError)
        assert "giving up" in outcome.error
        assert outcome.id == "poison"
        assert pool.metrics.get("redrive_failures") == 1
        # The shard itself respawned and keeps serving fresh submissions.
        assert pool.decide_one(request).result is False


def _duplicate_behind_a_stalled_worker(pool) -> tuple[list, list[dict]]:
    """Queue ``S0``…``S3`` and a duplicate of ``S3`` on one stopped worker.

    With the worker SIGSTOPped, every request is submitted before any
    is decided, so ``S3`` and its duplicate wait side by side; the
    duplicate must still come back as the cache hit, not ``S3``.
    """
    requests = [ContainmentRequest.make(f"Q() :- R(u, v), S{index}(u)",
                                        "Q() :- R(u, v)", "B",
                                        id=f"s{index}")
                for index in range(4)]
    requests.append(requests[3])
    pid = pool.worker_pids()[0]
    os.kill(pid, signal.SIGSTOP)
    try:
        futures = [pool.submit(request) for request in requests]
    finally:
        os.kill(pid, signal.SIGCONT)
    return requests, [future.result(timeout=30).to_dict()
                      for future in futures]


def test_spilled_first_occurrence_is_not_overtaken_by_its_duplicate():
    with WorkerPool(1) as pool:
        requests, outcomes = _duplicate_behind_a_stalled_worker(pool)
    assert [outcome["cached"] for outcome in outcomes] \
        == [False, False, False, False, True]
    assert outcomes == sequential_documents(requests)


def test_spilled_first_occurrence_stays_warm_from_a_verdict_snapshot(
        tmp_path):
    path = tmp_path / "verdicts.snap"
    warm = ContainmentRequest.make("Q() :- R(u, v), S3(u)",
                                   "Q() :- R(u, v)", "B")
    engine = ContainmentEngine()
    engine.decide_request(warm)
    save_snapshot(engine, path, include_verdicts=True)
    with WorkerPool(1, snapshot_path=path,
                    include_verdict_snapshot=True) as pool:
        requests, outcomes = _duplicate_behind_a_stalled_worker(pool)
    sequential = ContainmentEngine()
    load_snapshot(sequential, path)
    expected = [doc.to_dict() for doc in sequential.decide_many(requests)]
    assert [outcome["cached"] for outcome in outcomes] \
        == [False, False, False, True, True]
    assert outcomes == expected


def _distinct_requests(count: int, prefix: str) -> list[ContainmentRequest]:
    return [ContainmentRequest.make(f"Q() :- R(u, v), {prefix}{index}(u)",
                                    "Q() :- R(u, v)", "B",
                                    id=f"{prefix}{index}")
            for index in range(count)]


def test_one_worker_decides_in_submit_order():
    """One worker is plain FIFO, even for work submitted mid-stream.

    Fifteen requests queue behind a stopped worker, and the first
    one's done callback submits a sixteenth.  Nothing may overtake
    anything: a backlog that parked its newest entries elsewhere would
    finish the sixteenth before them.
    """
    requests = _distinct_requests(16, "F")
    order: list[int] = []
    finished = threading.Event()
    with WorkerPool(1) as pool:

        def record(index):
            def callback(future):
                order.append(index)
                if index == 0:
                    pool.submit(requests[15]).add_done_callback(record(15))
                if len(order) == len(requests):
                    finished.set()
            return callback

        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            for index in range(15):
                pool.submit(requests[index]).add_done_callback(
                    record(index))
        finally:
            os.kill(pid, signal.SIGCONT)
        assert finished.wait(timeout=60)
    assert order == list(range(16))


def test_abandoned_backlog_requests_never_reach_a_worker():
    requests = _distinct_requests(7, "A")
    with WorkerPool(1) as pool:
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            futures = [pool.submit(request) for request in requests]
            for future in futures[4:]:
                future.cancel()
        finally:
            os.kill(pid, signal.SIGCONT)
        outcomes = [future.result(timeout=30) for future in futures[:4]]
        assert [outcome.request_id for outcome in outcomes] \
            == ["A0", "A1", "A2", "A3"]
        assert sum(info["decisions"] for info in pool.stats()) == 4
        assert not pool._requests, "dropped requests must not linger"


def test_worker_killed_mid_reply_wedges_nobody(monkeypatch):
    """A reply cut off by its writer's death costs one respawn, no hang.

    Shard 0's first worker takes a request, writes half a reply frame
    to its result pipe and dies, as if SIGKILLed mid-write.  The other
    worker's replies must keep flowing, and the re-driven request must
    come back byte-identical.
    """
    real_worker_main = pool_module._worker_main

    def dies_mid_reply(index, inbox, outbox, snapshot_path, load_verdicts):
        if index == 0 and load_verdicts:  # first generation only
            inbox.get()
            os.write(outbox.fileno(),
                     struct.pack("!i", 1 << 20) + b"half a reply")
            os._exit(1)
        real_worker_main(index, inbox, outbox, snapshot_path, load_verdicts)

    monkeypatch.setattr(pool_module, "_worker_main", dies_mid_reply)
    requests = chaos_workload(repeats=1)
    with WorkerPool(2) as pool:
        assert any(pool.shard_of(pool.normalize(request)) == 0
                   for request in requests)
        outcomes = pool.decide_many(requests)
        assert pool.metrics.get("respawns") == 1
    assert [outcome.to_dict() for outcome in outcomes] \
        == sequential_documents(requests)
