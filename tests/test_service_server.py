"""The serve protocol on its one front end, over stdio and TCP.

Every conversation runs through :class:`AsyncGateway` over a real
:class:`WorkerPool`: stdio through in-memory binary streams (and, at
the end, through ``python -m repro serve`` subprocesses with a real
stdin), TCP over genuine sockets.  In-process conversations run under
:func:`tests.loop_guard.loop_thread_guard`: no blocking pool or gateway
call may run on the event loop.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.api import ContainmentEngine
from repro.service import AsyncGateway, WorkerPool, load_snapshot
from tests.loop_guard import loop_thread_guard

SRC = Path(__file__).resolve().parents[1] / "src"

REQUESTS = [
    {"semiring": "B", "q1": "Q() :- R(u, v), R(u, w)",
     "q2": "Q() :- R(u, v), R(u, v)", "id": "r1"},
    {"semiring": "Lin[X]", "q1": "Q() :- R(u, v), R(u, w)",
     "q2": "Q() :- R(u, v), R(u, v)", "id": "r2"},
    {"semiring": "N", "q1": "Q() :- R(u, v)",
     "q2": "Q() :- R(u, v), R(u, v)", "id": "r3"},
]


@contextmanager
def serving(workers: int = 1, *, snapshot_path=None,
            include_verdict_snapshot: bool = True, **options):
    """A gateway over a fresh pool; the pool closes on exit."""
    with loop_thread_guard() as violations:
        with WorkerPool(workers, snapshot_path=snapshot_path,
                        include_verdict_snapshot=include_verdict_snapshot
                        ) as pool:
            yield AsyncGateway(pool, **options)
    assert not violations, f"blocking calls on the event loop: {violations}"


def run_stdio(gateway: AsyncGateway, lines: list[str] | None = None, *,
              raw: bytes | None = None) -> list[dict]:
    """Serve one stdio conversation; returns the parsed responses."""
    if raw is None:
        raw = "".join(line + "\n" for line in lines).encode("utf-8")
    sink = io.BytesIO()
    with loop_thread_guard() as violations:
        asyncio.run(gateway.serve_stdio(io.BytesIO(raw), sink))
    assert not violations, f"blocking calls on the event loop: {violations}"
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def test_stdio_loop_decides_and_echoes_ids():
    with serving() as gateway:
        responses = run_stdio(gateway,
                              [json.dumps(request) for request in REQUESTS])
    assert [r["request_id"] for r in responses] == ["r1", "r2", "r3"]
    assert responses[0]["result"] is True
    assert responses[2]["semiring"] == "N"
    assert responses == [document.to_dict() for document in
                         ContainmentEngine().decide_many(REQUESTS)]


def test_stdio_skips_blanks_and_comments_reports_errors_in_band():
    lines = ["", "# a comment", "not json", '{"semiring": "nope", '
             '"q1": "Q() :- R(u)", "q2": "Q() :- R(u)", "id": "x"}',
             json.dumps(REQUESTS[0])]
    with serving() as gateway:
        responses = run_stdio(gateway, lines)
    assert len(responses) == 3  # blank + comment produce no output
    assert "error" in responses[0]
    assert "error" in responses[1] and responses[1]["id"] == "x"
    assert responses[2]["request_id"] == "r1"


@pytest.mark.parametrize("workers", [1, 2])
def test_stdio_answers_a_non_boolean_equivalence_flag_in_band(workers):
    lines = ['{"semiring": "B", "q1": "Q() :- R(u, v)", '
             '"q2": "Q() :- R(u, u)", "equivalence": "false", "id": "f"}',
             json.dumps(REQUESTS[0])]
    with serving(workers) as gateway:
        responses = run_stdio(gateway, lines)
    assert responses[0] == {
        "error": "'equivalence' must be true or false, got str", "id": "f"}
    assert responses[1]["request_id"] == "r1"


def test_control_ops_ping_stats_shutdown():
    lines = [json.dumps(REQUESTS[0]), '{"op": "ping"}', '{"op": "stats"}',
             '{"op": "unknown-op"}', '{"op": "shutdown"}',
             json.dumps(REQUESTS[1])]  # never reached after shutdown
    with serving() as gateway:
        responses = run_stdio(gateway, lines)
    assert responses[1] == {"op": "ping", "ok": True}
    stats = responses[2]
    assert stats["op"] == "stats"
    assert stats["served"] == 1
    assert sum(info["decisions"] for info in stats["workers"]) == 1
    assert "cache_info" not in stats  # always the pool shape
    assert "error" in responses[3]
    assert responses[4] == {"op": "shutdown", "ok": True}
    assert len(responses) == 5  # the conversation stopped at shutdown
    assert gateway.served == 1


def test_snapshot_op_and_periodic_flush(tmp_path):
    path = tmp_path / "serve.snap"
    lines = [json.dumps(request) for request in REQUESTS]
    lines.insert(2, '{"op": "snapshot"}')
    with serving(snapshot_path=path, flush_every=1) as gateway:
        responses = run_stdio(gateway, lines)
    flush_reply = responses[2]
    assert flush_reply["op"] == "snapshot"
    assert flush_reply["layers"]["verdicts"] >= 2
    assert path.exists()
    # A fresh engine warm-starts from the flushed snapshot.
    restored = ContainmentEngine()
    counts = load_snapshot(restored, path)
    assert counts["verdicts"] == len(REQUESTS)
    doc = restored.decide(REQUESTS[0]["q1"], REQUESTS[0]["q2"], "B")
    assert doc.cached is True


def test_server_restart_warm_starts_from_snapshot(tmp_path):
    path = tmp_path / "serve.snap"
    lines = [json.dumps(request) for request in REQUESTS]
    with serving(snapshot_path=path) as gateway:
        run_stdio(gateway, lines)
    assert path.exists()  # flushed on graceful EOF shutdown
    with WorkerPool(1, snapshot_path=path) as pool:
        responses = run_stdio(AsyncGateway(pool), lines)
        stats = pool.stats()
    assert all(response["cached"] for response in responses)
    assert sum(info["hom_calls"] for info in stats) == 0
    assert sum(info["classify_calls"] for info in stats) == 0


def test_structural_snapshot_keeps_serve_output_cold_identical(tmp_path):
    path = tmp_path / "structural.snap"
    lines = [json.dumps(request) for request in REQUESTS]
    with serving(snapshot_path=path,
                 include_verdict_snapshot=False) as gateway:
        cold = run_stdio(gateway, lines)
    with serving(snapshot_path=path,
                 include_verdict_snapshot=False) as gateway:
        warm = run_stdio(gateway, lines)
    assert warm == cold  # cached stays false: byte-identical documents


def test_pool_backed_server():
    lines = [json.dumps(request) for request in REQUESTS]
    lines.append('{"op": "stats"}')
    with serving(2) as gateway:
        responses = run_stdio(gateway, lines)
    assert [r.get("request_id") for r in responses[:3]] \
        == ["r1", "r2", "r3"]
    stats = responses[3]
    assert len(stats["workers"]) == 2
    assert sum(info["decisions"] for info in stats["workers"]) \
        == len(REQUESTS)


@contextmanager
def tcp_gateway(**options):
    """A gateway serving TCP on an ephemeral port in a thread."""
    with serving(**options) as gateway:
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(
                gateway.serve("127.0.0.1", 0, ready=ready)),
            daemon=True)
        thread.start()
        assert ready.wait(timeout=10)
        yield gateway, thread


def _connect_lines(address, lines: list[str]) -> list[dict]:
    with socket.create_connection(address, timeout=30) as client:
        with client.makefile("rw", encoding="utf-8", newline="\n") as stream:
            for line in lines:
                stream.write(line + "\n")
            stream.flush()
            client.shutdown(socket.SHUT_WR)
            return [json.loads(line) for line in stream]


def test_tcp_server_conversation_and_shutdown():
    with tcp_gateway() as (gateway, thread):
        address = gateway.tcp_address
        responses = _connect_lines(
            address, [json.dumps(REQUESTS[0]), '{"op": "ping"}'])
        assert responses[0]["request_id"] == "r1"
        assert responses[1]["ok"] is True
        # Second connection shares the same pool: the repeat is cached.
        responses = _connect_lines(
            address, [json.dumps(REQUESTS[0]), '{"op": "shutdown"}'])
        assert responses[0]["cached"] is True
        assert responses[1] == {"op": "shutdown", "ok": True}
        thread.join(timeout=10)
        assert not thread.is_alive(), "shutdown op must stop serving"
        assert gateway.served == 2


def test_stdio_oversized_line_answered_in_band_and_never_parsed():
    lines = ["{" + "x" * 4096, json.dumps(REQUESTS[0])]
    with serving(max_line_bytes=128) as gateway:
        responses = run_stdio(gateway, lines)
    assert responses[0]["oversized"] is True
    assert "128" in responses[0]["error"]
    assert responses[1]["request_id"] == "r1"
    assert gateway.served == 2


def test_stdio_unterminated_oversized_line_is_drained():
    # Input is read with a byte bound, so even a single huge line with
    # no trailing newline is answered in-band, never buffered whole.
    with serving(max_line_bytes=64) as gateway:
        responses = run_stdio(gateway, raw=b"y" * (1 << 20))
    assert len(responses) == 1
    assert responses[0]["oversized"] is True


def test_tcp_oversized_line_then_valid_request_same_connection():
    with tcp_gateway(max_line_bytes=128) as (gateway, thread):
        responses = _connect_lines(
            gateway.tcp_address,
            ["z" * 4096, json.dumps(REQUESTS[0]), '{"op": "shutdown"}'])
        assert responses[0]["oversized"] is True
        assert responses[1]["request_id"] == "r1"
        assert responses[2] == {"op": "shutdown", "ok": True}
        thread.join(timeout=10)
        assert not thread.is_alive()


#: A line nested too deep for the JSON decoder (it raises RecursionError).
NESTED = "[" * 100000


def test_stdio_nested_json_line_answered_in_band():
    with serving() as gateway:
        responses = run_stdio(gateway, [NESTED, json.dumps(REQUESTS[0])])
    assert list(responses[0]) == ["error"]
    assert "recursion" in responses[0]["error"]
    assert responses[1]["request_id"] == "r1"
    assert gateway.served == 2


def test_tcp_nested_json_line_answered_in_band():
    with tcp_gateway() as (gateway, thread):
        responses = _connect_lines(
            gateway.tcp_address, [NESTED, json.dumps(REQUESTS[0])])
        assert list(responses[0]) == ["error"]
        assert responses[1]["request_id"] == "r1"
        # The gateway keeps serving after the conversation ends.
        responses = _connect_lines(
            gateway.tcp_address, ['{"op": "ping"}', '{"op": "shutdown"}'])
        assert responses[0] == {"op": "ping", "ok": True}
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_flush_interval_writes_the_snapshot_until_close(tmp_path):
    path = tmp_path / "timer.snap"
    with tcp_gateway(snapshot_path=path, flush_interval=0.05,
                     flush_every=0) as (gateway, thread):
        responses = _connect_lines(gateway.tcp_address,
                                   [json.dumps(REQUESTS[0])])
        assert responses[0]["request_id"] == "r1"
        deadline = time.monotonic() + 10.0
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert path.exists(), "the flush timer never wrote the snapshot"
        stats = gateway.close()  # while the gateway is still serving
        assert stats["flushed"]["verdicts"] == 1
        assert stats["flush_error"] is None
        path.unlink()
        time.sleep(0.25)  # five timer periods
        assert not path.exists(), "the flush timer outlived close()"
        _connect_lines(gateway.tcp_address, ['{"op": "shutdown"}'])
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert gateway.close() == stats  # idempotent


def test_close_returns_final_stats_and_flush_counts(tmp_path):
    path = tmp_path / "final.snap"
    with serving(snapshot_path=path) as gateway:
        run_stdio(gateway, [json.dumps(request) for request in REQUESTS])
        stats = gateway.close()
    assert stats["served"] == len(REQUESTS)
    assert stats["errors"] == 0
    assert stats["flushed"]["verdicts"] == len(REQUESTS)
    assert stats["flush_error"] is None
    assert gateway.close() == stats  # idempotent


def test_close_surfaces_final_flush_failure(tmp_path):
    path = tmp_path / "no-such-dir" / "final.snap"
    with serving(snapshot_path=path) as gateway:
        run_stdio(gateway, [json.dumps(REQUESTS[0])])
        stats = gateway.close()
    assert stats["flushed"] is None
    assert stats["flush_error"] is not None
    assert "no-such-dir" in stats["flush_error"]
    assert gateway.close()["flush_error"] == stats["flush_error"]


def test_pool_close_escalates_to_kill_for_wedged_workers():
    pool = WorkerPool(2)
    processes = list(pool._processes)
    os.kill(processes[0].pid, signal.SIGSTOP)  # immune to "stop"/SIGTERM
    started = time.monotonic()
    pool.close(timeout=0.5)
    elapsed = time.monotonic() - started
    assert elapsed < 8.0, "close must escalate instead of hanging"
    deadline = time.monotonic() + 5.0
    while (any(p.is_alive() for p in processes)
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert not any(p.is_alive() for p in processes)
    assert processes[0].exitcode == -signal.SIGKILL


def test_stdio_deadline_expiry_and_shedding_are_in_band():
    lines = [json.dumps(dict(REQUESTS[0], id=f"s{index}"))
             for index in range(3)]
    with WorkerPool(1) as pool:
        gateway = AsyncGateway(pool, deadline=0.3, queue_limit=1)
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            responses = run_stdio(gateway, lines)
        finally:
            os.kill(pid, signal.SIGCONT)
    assert responses[0]["expired"] is True       # admitted, then timed out
    assert all(r["overloaded"] is True for r in responses[1:])  # shed
    assert [r["id"] for r in responses] == ["s0", "s1", "s2"]
    assert gateway.metrics.get("expired") == 1
    assert gateway.metrics.get("shed") == 2


# -- the CLI over a real stdin ------------------------------------------

def _repro(*args: str, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          env=env, capture_output=True, timeout=120,
                          **kwargs)


@pytest.fixture(scope="module")
def request_file(tmp_path_factory) -> Path:
    """A JSONL request stream with duplicates."""
    requests = REQUESTS + [REQUESTS[1], dict(REQUESTS[0], id="again"),
                           REQUESTS[2]]
    path = tmp_path_factory.mktemp("serve") / "requests.jsonl"
    path.write_text("".join(json.dumps(request) + "\n"
                            for request in requests), encoding="utf-8")
    return path


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("stdin", ["file", "pipe"])
def test_cli_serve_output_equals_sequential_batch(request_file, workers,
                                                  stdin):
    batch = _repro("batch", "--input", str(request_file))
    assert batch.returncode == 0, batch.stderr
    args = ("serve", "--workers", str(workers))
    if stdin == "file":
        with open(request_file, "rb") as handle:
            served = _repro(*args, stdin=handle)
    else:
        served = _repro(*args, input=request_file.read_bytes())
    assert served.returncode == 0, served.stderr
    assert served.stdout == batch.stdout  # cmp-identical bytes


def test_cli_serve_answers_nested_json_line_and_keeps_serving():
    lines = [NESTED, json.dumps(REQUESTS[0])]
    served = _repro("serve", input="".join(
        line + "\n" for line in lines).encode("utf-8"))
    assert served.returncode == 0, served.stderr
    responses = [json.loads(line) for line in served.stdout.splitlines()]
    assert list(responses[0]) == ["error"]
    assert responses[1]["request_id"] == "r1"


def test_cli_serve_on_dev_null_exits_cleanly():
    with open(os.devnull, "rb") as handle:
        served = _repro("serve", "--stats", stdin=handle)
    assert served.returncode == 0, served.stderr
    assert served.stdout == b""
    assert json.loads(served.stderr)["served"] == 0


def test_cli_serve_sigterm_flushes_the_snapshot(tmp_path):
    path = tmp_path / "sigterm.snap"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--snapshot", str(path)],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        process.stdin.write((json.dumps(REQUESTS[0]) + "\n").encode())
        process.stdin.flush()
        answer = json.loads(process.stdout.readline())
        assert answer["request_id"] == "r1"
        assert not path.exists()  # nothing flushed yet
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0, process.stderr.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        for stream in (process.stdin, process.stdout, process.stderr):
            stream.close()
    restored = ContainmentEngine()
    assert sum(load_snapshot(restored, path).values()) > 0
    restored.decide(REQUESTS[0]["q1"], REQUESTS[0]["q2"], "B")
    assert restored.stats.classify_calls == 0  # warm from the flush
