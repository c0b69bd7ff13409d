"""Throughput of the decision service: worker pool + warm-start snapshots.

Claims of the service subsystem, asserted on a ≥400-decision
mixed-semiring workload (the shape of rewrite-auditing sweeps: many
independent Table-1 decisions over a fixed semiring set):

* **parallel** — a 4-worker :class:`repro.service.WorkerPool` must beat
  a sequential ``decide_many`` by ≥ 2× wall clock *and* produce a
  byte-identical verdict stream (certificates, explanations, request
  ids and ``cached`` flags included — deterministic sharding keeps the
  verdict-cache behavior aligned with the sequential engine's);
* **warm start** — a repeated CLI-style batch run restoring a
  structural snapshot must be ≥ 3× faster than its cold twin, again
  with byte-identical output (the structural layers carry no verdict
  documents, so ``cached`` stays ``false``);
* **self-healing** — a 4-worker pool with one worker SIGKILLed
  mid-stream must still produce the byte-identical verdict stream,
  with the respawn visible in the service metrics; and the asyncio
  gateway must shed load in-band under a wedged worker and serve
  normally once it resumes.

Verdict equality always runs.  The wall-clock ratios are asserted only
on capable machines: set ``REPRO_BENCH_SMOKE=1`` (the CI default) to
shrink the workload and skip them, and the parallel ratio additionally
requires ≥ 4 CPU cores — a 4-worker pool cannot beat sequential on a
single-core box, and machine-speed-sensitive checks don't belong in
shared CI.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time

from repro.api import ContainmentEngine
from repro.queries import CQ, Atom, Var
from repro.service import (AsyncGateway, WorkerPool, load_snapshot,
                           save_snapshot)

from conftest import curated_cq_pairs, curated_ucq_pairs

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
PARALLEL_WORKERS = 4
# The semiring spread deliberately skips the tropical pair (T+/T-):
# their decisions are dominated by the polynomial order checks, whose
# certificate memo has its own dedicated cold/warm benchmark
# (bench_tropical_order.py) — mixing them in here would only dilute
# the structural-cache ratios this benchmark pins.
SEMIRINGS = ["B", "N", "Lin[X]", "Why[X]", "Trio[X]", "F", "N[X]",
             "Ssur[X]", "PosBool[X]"]


def _chain(length: int, relation: str) -> str:
    """A length-``length`` chain over a private relation name.

    Distinct relation names make structurally-identical requests
    distinct cache keys, so the sweeps below are many independent
    medium-cost decisions — the shape that actually distributes across
    workers (one huge request cannot).
    """
    return repr(CQ((), [Atom(relation, (Var(f"v{i}"), Var(f"v{i + 1}")))
                        for i in range(length)]))


def _clique(size: int, relation: str) -> str:
    """All directed edges among ``size`` variables.

    The best compute-per-cache-key shape for the ``N`` bounds search:
    few existential variables (a small Bell-number expansion, so few
    structural keys) but dense 12–20-atom bodies whose homomorphism
    searches carry the real cost a warm snapshot elides.
    """
    return repr(CQ((), [Atom(relation, (Var(f"v{i}"), Var(f"v{j}")))
                        for i in range(size) for j in range(size)
                        if i != j]))


def service_workload() -> list[dict]:
    """≥ 400 mixed requests (small smoke subset in CI).

    Three blocks: the curated CQ/UCQ pairs across the semiring spread
    (many light decisions), a bag-semantics chain sweep over distinct
    relation names (medium-cost bounds searches, each with a
    Bell-number description expansion — the hot spot a warm snapshot
    elides), plus one duplicate block so verdict-cache behavior (the
    ``cached`` flag) is exercised end to end.  Chain lengths stay ≤ 4:
    the ``N`` bounds search is super-exponential in the existential
    variables and length 5 alone takes seconds.
    """
    cq_pairs = [(str(q1), str(q2)) for q1, q2 in curated_cq_pairs()]
    pairs: list[tuple] = list(cq_pairs)
    pairs += [(q2, q1) for q1, q2 in cq_pairs]
    pairs += [([str(cq) for cq in u1], [str(cq) for cq in u2])
              for u1, u2 in curated_ucq_pairs()]
    semirings = SEMIRINGS[:3] if SMOKE else SEMIRINGS
    requests = [
        {"semiring": semiring, "q1": q1, "q2": q2}
        for semiring in semirings
        for q1, q2 in pairs
    ]
    requests += [
        {"semiring": semiring, "q1": q1, "q2": q2, "equivalence": True}
        for semiring in semirings
        for q1, q2 in cq_pairs
    ]
    if SMOKE:
        for index in range(6):
            relation = f"E{index}"
            requests.append({"semiring": "N", "q1": _chain(3, relation),
                             "q2": _chain(2, relation)})
    else:
        for index in range(32):
            relation = f"E{index}"
            requests.append({"semiring": "N",
                             "q1": _clique(4, relation),
                             "q2": _clique(3, relation)})
        for index in range(24):
            relation = f"K{index}"
            requests.append({"semiring": "N",
                             "q1": _clique(5, relation),
                             "q2": _clique(4, relation)})
    requests += requests[:len(requests) // 4]  # duplicates → cache hits
    for index, request in enumerate(requests):
        request = dict(request)
        request["id"] = f"req-{index}"
        requests[index] = request
    return requests


def sequential_pass(requests) -> tuple[list[dict], float]:
    engine = ContainmentEngine()
    start = time.perf_counter()
    documents = [doc.to_dict() for doc in engine.decide_many(requests)]
    return documents, time.perf_counter() - start


def test_parallel_pool_matches_sequential_verdicts():
    requests = service_workload()
    if not SMOKE:
        assert len(requests) >= 400, len(requests)
    sequential, sequential_seconds = sequential_pass(requests)
    with WorkerPool(PARALLEL_WORKERS) as pool:
        start = time.perf_counter()
        parallel = [doc.to_dict() for doc in pool.decide_many(requests)]
        parallel_seconds = time.perf_counter() - start
    assert parallel == sequential, \
        "parallel verdict stream must be byte-identical to sequential"
    speedup = sequential_seconds / max(parallel_seconds, 1e-9)
    print(f"\n  {len(requests)} decisions: sequential "
          f"{sequential_seconds * 1e3:8.1f} ms, {PARALLEL_WORKERS} workers "
          f"{parallel_seconds * 1e3:8.1f} ms ({speedup:.2f}x, "
          f"{os.cpu_count()} cores)")
    cores = os.cpu_count() or 1
    if not SMOKE and cores >= PARALLEL_WORKERS:
        assert speedup >= 2.0, (
            f"4-worker pool must be >= 2x sequential on a {cores}-core "
            f"machine, got {speedup:.2f}x")


def test_warm_start_snapshot_speeds_up_repeated_batch(tmp_path):
    requests = service_workload()
    snapshot = tmp_path / "warm.snap"

    cold_engine = ContainmentEngine()
    start = time.perf_counter()
    cold = [doc.to_dict() for doc in cold_engine.decide_many(requests)]
    cold_seconds = time.perf_counter() - start
    # The CLI contract: structural layers only, so the warmed run's
    # documents (cached flags included) equal the cold run's.
    save_snapshot(cold_engine, snapshot, include_verdicts=False)

    warm_engine = ContainmentEngine()
    load_snapshot(warm_engine, snapshot)
    start = time.perf_counter()
    warm = [doc.to_dict() for doc in warm_engine.decide_many(requests)]
    warm_seconds = time.perf_counter() - start

    assert warm == cold, \
        "warm-start verdict stream must be byte-identical to the cold run"
    assert warm_engine.stats.hom_calls == 0
    assert warm_engine.stats.hom_enum_calls == 0
    assert warm_engine.stats.classify_calls == 0
    assert warm_engine.stats.parse_calls == 0
    assert warm_engine.stats.description_calls == 0
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    print(f"\n  {len(requests)} decisions: cold "
          f"{cold_seconds * 1e3:8.1f} ms, warm-start "
          f"{warm_seconds * 1e3:8.1f} ms ({speedup:.2f}x)")
    if not SMOKE:
        assert speedup >= 3.0, (
            f"structural warm start must be >= 3x a cold run, "
            f"got {speedup:.2f}x")


def test_supervised_pool_survives_sigkill_byte_identically():
    """The elastic-serving claim: chaos changes wall clock, not bytes.

    The full service workload runs through a supervised 4-worker pool
    with one worker SIGKILLed mid-stream; the verdict stream must stay
    byte-identical to the sequential engine's and the respawn must show
    up in the service metrics.
    """
    requests = service_workload()
    if not SMOKE:
        assert len(requests) >= 400, len(requests)
    sequential, sequential_seconds = sequential_pass(requests)
    with WorkerPool(PARALLEL_WORKERS) as pool:
        start = time.perf_counter()
        seqs = [pool.submit(pool.normalize(request))
                for request in requests]
        outcomes = [pool.result(seq, timeout=300) for seq in seqs[:20]]
        victim = next(pid for pid in pool.worker_pids() if pid)
        os.kill(victim, signal.SIGKILL)
        outcomes += [pool.result(seq, timeout=300) for seq in seqs[20:]]
        chaos_seconds = time.perf_counter() - start
        report = pool.metrics.as_dict()
    assert [outcome.to_dict() for outcome in outcomes] == sequential, \
        "a SIGKILL mid-stream must not change a single output byte"
    assert report["respawns"] >= 1
    assert sum(report["worker_restarts"]) >= 1
    print(f"\n  {len(requests)} decisions under SIGKILL chaos: sequential "
          f"{sequential_seconds * 1e3:8.1f} ms, supervised "
          f"{chaos_seconds * 1e3:8.1f} ms, {report['respawns']} respawns, "
          f"{report['redriven']} re-driven, {report['steals']} steals")


def test_gateway_sheds_load_in_band_and_recovers():
    """Backpressure smoke: a wedged worker trips shedding, then recovers.

    SIGSTOP makes the overload deterministic: with ``queue_limit=1``
    the first request holds the only seat until its deadline expires
    and the pipelined rest are shed in-band.  After SIGCONT the same
    gateway serves normally — shedding is a mode, not a death.
    """
    with WorkerPool(1) as pool:
        gateway = AsyncGateway(pool, deadline=1.0, queue_limit=1)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(
                gateway.serve("127.0.0.1", 0, ready=ready)),
            daemon=True)
        thread.start()
        assert ready.wait(timeout=10)

        def exchange(lines):
            with socket.create_connection(gateway.tcp_address,
                                          timeout=30) as client:
                with client.makefile("rw", encoding="utf-8",
                                     newline="\n") as stream:
                    for line in lines:
                        stream.write(line + "\n")
                    stream.flush()
                    client.shutdown(socket.SHUT_WR)
                    return [json.loads(line) for line in stream
                            if line.strip()]

        burst = [json.dumps({"semiring": "B",
                             "q1": f"Q() :- R(u, v), B{i}(u)",
                             "q2": "Q() :- R(u, v)", "id": f"b{i}"})
                 for i in range(4)]
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            replies = exchange(burst)
        finally:
            os.kill(pid, signal.SIGCONT)
        assert replies[0].get("expired") is True
        assert all(reply.get("overloaded") for reply in replies[1:])
        recovered = exchange([burst[0]])
        assert recovered[0]["request_id"] == "b0"
        report = gateway.metrics.as_dict()
        assert report["shed"] == 3
        assert report["expired"] == 1
        exchange(['{"op": "shutdown"}'])
        thread.join(timeout=10)
        assert not thread.is_alive()
        print(f"\n  gateway shed {report['shed']} of {len(burst)} under a "
              f"wedged worker, expired {report['expired']}, recovered "
              f"after SIGCONT")


def test_warm_start_through_the_cli(tmp_path):
    """The end-to-end CLI contract: ``batch --snapshot`` twice.

    The second run restores the first run's snapshot and must produce
    the same bytes (the snapshot excludes verdicts by default exactly
    so this holds).
    """
    from repro.cli import main

    requests = service_workload()
    input_path = tmp_path / "requests.jsonl"
    input_path.write_text(
        "".join(json.dumps(request) + "\n" for request in requests),
        encoding="utf-8")
    snapshot = tmp_path / "cli.snap"
    outputs = []
    timings = []
    for run in ("cold", "warm"):
        output_path = tmp_path / f"{run}.jsonl"
        start = time.perf_counter()
        code = main(["batch", "--input", str(input_path),
                     "--output", str(output_path),
                     "--snapshot", str(snapshot)])
        timings.append(time.perf_counter() - start)
        assert code == 0
        outputs.append(output_path.read_text(encoding="utf-8"))
    assert outputs[1] == outputs[0]
    assert snapshot.exists()
    speedup = timings[0] / max(timings[1], 1e-9)
    print(f"\n  CLI batch: cold {timings[0] * 1e3:8.1f} ms, "
          f"warm {timings[1] * 1e3:8.1f} ms ({speedup:.2f}x)")
    if not SMOKE:
        assert speedup >= 3.0, (
            f"CLI warm-start batch must be >= 3x the cold run, "
            f"got {speedup:.2f}x")
