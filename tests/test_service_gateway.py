"""The asyncio gateway: pipelining, shedding, deadlines, bounded lines.

Each test boots a real :class:`AsyncGateway` on an ephemeral port in a
background thread and speaks the JSONL protocol over genuine sockets.
SIGSTOP/SIGCONT on a worker process make overload and deadline expiry
deterministic without sleeps-as-synchronisation.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading

import pytest

from repro.service import AsyncGateway, WorkerPool


def request_line(index: int, *, prefix: str = "g") -> str:
    return json.dumps({"semiring": "N",
                       "q1": f"Q() :- R(u, v), W{index}(u)",
                       "q2": "Q() :- R(u, v)",
                       "id": f"{prefix}{index}"})


@pytest.fixture()
def gateway_factory():
    """Boot gateways on demand; tear all of them down afterwards."""
    started: list[tuple[AsyncGateway, threading.Thread]] = []

    def boot(pool, **kwargs) -> AsyncGateway:
        gateway = AsyncGateway(pool, **kwargs)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(
                gateway.serve("127.0.0.1", 0, ready=ready)),
            daemon=True)
        thread.start()
        assert ready.wait(timeout=10)
        started.append((gateway, thread))
        return gateway

    yield boot
    for gateway, thread in started:
        if thread.is_alive():
            exchange(gateway, ['{"op": "shutdown"}'])
            thread.join(timeout=10)
        assert not thread.is_alive()


def exchange(gateway: AsyncGateway, lines: list[str],
             timeout: float = 30.0) -> list[dict]:
    """One pipelined conversation: write everything, then read replies."""
    with socket.create_connection(gateway.tcp_address,
                                  timeout=timeout) as client:
        with client.makefile("rw", encoding="utf-8",
                             newline="\n") as stream:
            for line in lines:
                stream.write(line + "\n")
            stream.flush()
            client.shutdown(socket.SHUT_WR)
            return [json.loads(line) for line in stream if line.strip()]


def test_pipelined_connections_answer_in_request_order(gateway_factory):
    with WorkerPool(2) as pool:
        gateway = gateway_factory(pool)
        replies: dict[str, list[dict]] = {}

        def client(prefix: str) -> None:
            lines = [request_line(i, prefix=prefix) for i in range(10)]
            replies[prefix] = exchange(gateway, lines)

        threads = [threading.Thread(target=client, args=(prefix,))
                   for prefix in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for prefix in ("a", "b"):
            assert [reply["request_id"] for reply in replies[prefix]] \
                == [f"{prefix}{i}" for i in range(10)]
            assert all("result" in reply for reply in replies[prefix])
        assert gateway.served == 20
        assert gateway.metrics.get("accepted") == 20
        assert gateway.metrics.get("shed") == 0


def test_malformed_and_control_lines_keep_pipeline_order(gateway_factory):
    with WorkerPool(1) as pool:
        gateway = gateway_factory(pool)
        replies = exchange(gateway, [request_line(0), "not json",
                                     '{"op": "ping"}', request_line(1)])
        assert replies[0]["request_id"] == "g0"
        assert "error" in replies[1]
        assert replies[2] == {"op": "ping", "ok": True}
        assert replies[3]["request_id"] == "g1"


def test_oversized_line_answered_in_band(gateway_factory):
    with WorkerPool(1) as pool:
        gateway = gateway_factory(pool, max_line_bytes=256)
        replies = exchange(gateway, ["x" * 4096, request_line(0)])
        assert replies[0]["oversized"] is True
        assert "256" in replies[0]["error"]
        assert replies[1]["request_id"] == "g0"


def test_deadline_expiry_is_in_band_and_abandons_the_seat(gateway_factory):
    with WorkerPool(1) as pool:
        gateway = gateway_factory(pool, deadline=0.3)
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            replies = exchange(gateway, [request_line(0)])
        finally:
            os.kill(pid, signal.SIGCONT)
        assert replies[0]["expired"] is True
        assert replies[0]["id"] == "g0"
        assert gateway.metrics.get("expired") == 1
        # The seat was released: the connection is done, the pool is
        # free again, and a fresh request decides normally.
        replies = exchange(gateway, [request_line(1)])
        assert replies[0]["request_id"] == "g1"


def test_load_shedding_rejects_newest_in_band(gateway_factory):
    with WorkerPool(1) as pool:
        gateway = gateway_factory(pool, deadline=1.0, queue_limit=1)
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            replies = exchange(gateway,
                               [request_line(i) for i in range(3)])
        finally:
            os.kill(pid, signal.SIGCONT)
        assert replies[0]["expired"] is True        # admitted, then timed out
        for reply in replies[1:]:
            assert reply["overloaded"] is True      # rejected newest
            assert "retry later" in reply["error"]
        assert [reply["id"] for reply in replies] == ["g0", "g1", "g2"]
        assert gateway.metrics.get("shed") == 2
        assert gateway.metrics.get("accepted") == 1


def test_stats_op_reports_the_service_dimension(gateway_factory):
    with WorkerPool(2) as pool:
        gateway = gateway_factory(pool)
        exchange(gateway, [request_line(i) for i in range(4)])
        replies = exchange(gateway, ['{"op": "stats"}'])
        service = replies[0]["service"]
        assert service["accepted"] == 4
        assert service["respawns"] == 0
        assert len(service["worker_pids"]) == 2
        assert all(isinstance(pid, int)
                   for pid in service["worker_pids"])
        assert replies[0]["cache_stats"]["service"] == service


def test_shutdown_op_stops_the_gateway_cleanly(gateway_factory):
    with WorkerPool(1) as pool:
        gateway = gateway_factory(pool)
        replies = exchange(gateway, [request_line(0),
                                     '{"op": "shutdown"}'])
        assert replies[0]["request_id"] == "g0"
        assert replies[1] == {"op": "shutdown", "ok": True}


def test_stats_op_runs_in_pipeline_order(gateway_factory):
    # The stats op is admitted while its predecessor is still wedged on
    # a SIGSTOPped worker; it must run only once that decision has been
    # answered, so it counts it.
    with WorkerPool(1) as pool:
        gateway = gateway_factory(pool)
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        resume = threading.Timer(0.5, os.kill, (pid, signal.SIGCONT))
        resume.start()
        try:
            replies = exchange(gateway, [request_line(0),
                                         '{"op": "stats"}'])
        finally:
            resume.join()
        assert replies[0]["request_id"] == "g0"
        assert replies[1]["served"] == 1
        assert sum(info["decisions"] for info in replies[1]["workers"]) == 1
