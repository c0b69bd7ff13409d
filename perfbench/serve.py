"""Open-loop JSONL traffic over TCP for the serving layer's metrics.

Part of the ``table1_mix`` traced run.  The target is ``python -m repro
serve --tcp 127.0.0.1:0 --async --workers 1 --snapshot PATH
--flush-every 500`` (the default flush policy), warm-started from a
``table1_mix`` snapshot.  One client process sends the ``table1_mix``
stream, cycled, at a fixed rate over one connection and runs pings and
the final ``stats`` over a second.  Each request is timed from its
scheduled send, so a stall also delays the requests queued behind it.

Served responses must be byte-identical to an in-process ``decide`` of
the same stream on an engine restored from the same snapshot.

The session's latencies are recorded, not bounded: set by the worker's
garbage-collection and snapshot-flush stalls, the tail latency spread
19-35 % between runs (unscaled; scaling by probes of every vCPU left it
wider), more than any bound the benchmark may set.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import metrics

#: Requests per second.  One warm worker answered about 1,400 per
#: second through the gateway on a quiet 2-vCPU host, but its capacity
#: halves in the host's slow periods, and at 500 per second one such
#: period tripled the median latency.  At 250 the queue stays short.
RATE = 250.0
#: A response later than this after its scheduled send is a miss.
LATENCY_LIMIT_MS = 250.0
#: The snapshot flush policy (``--flush-every``), stated here so that a
#: changed default does not change the workload.
FLUSH_EVERY = 500
PING_EVERY_S = 0.1
IO_TIMEOUT_S = 60.0


class _Server:
    """One ``repro serve`` process and a line-oriented connection."""

    def __init__(self, root: Path, snapshot: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
             "--async", "--workers", "1", "--snapshot", str(snapshot),
             "--flush-every", str(FLUSH_EVERY)],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.connections: list[socket.socket] = []
        for line in self.process.stderr:
            if line.startswith("serving on "):
                host, _, port = line.split()[-1].rpartition(":")
                self.address = (host, int(port))
                break
        else:
            raise RuntimeError("server exited before listening")

    def connect(self):
        sock = socket.create_connection(self.address, timeout=IO_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connections.append(sock)
        return sock, sock.makefile("rb")

    @staticmethod
    def ask(conn, payload: dict) -> dict:
        sock, reader = conn
        sock.sendall((json.dumps(payload) + "\n").encode())
        return json.loads(reader.readline())

    def close(self, control) -> None:
        try:
            self.ask(control, {"op": "shutdown"})
        finally:
            for sock in self.connections:
                sock.close()
            try:
                self.process.wait(timeout=IO_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stderr.close()


def _ready(root: Path, snapshot: Path, pristine: Path):
    """Spawn a server on a fresh copy of the snapshot and wait until it
    answers a ping and a ``stats`` op (which waits on the worker, so the
    worker's snapshot load is inside).  Returns ``(server, control
    connection, seconds)``."""
    shutil.copyfile(pristine, snapshot)
    start = time.perf_counter()
    server = _Server(root, snapshot)
    try:
        control = server.connect()
        server.ask(control, {"op": "ping"})
        server.ask(control, {"op": "stats"})
    except BaseException:
        server.process.kill()
        server.process.wait()
        raise
    return server, control, time.perf_counter() - start


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def run(root: Path, workdir: Path, seed: int, seconds: float,
        smoke: bool = False) -> dict:
    """Serve the ``table1_mix`` stream for ``seconds``; returns the
    counts, the serving-layer metrics (``layers``) and the end-to-end
    figures of the session (``figures``, recorded only)."""
    from repro import ContainmentEngine
    from repro.api.documents import ContainmentRequest
    from repro.service.snapshot import load_snapshot, save_snapshot

    stream = inputs.table1_stream(seed)
    if smoke:
        stream = stream[:200]
    pristine = workdir / "table1.snap"
    snapshot = workdir / "serve.snap"
    engine = ContainmentEngine()
    engine.decide_many(stream)
    start = time.perf_counter()
    save_snapshot(engine, pristine, include_verdicts=False)
    save_s = time.perf_counter() - start
    reference_engine = ContainmentEngine()
    start = time.perf_counter()
    load_snapshot(reference_engine, pristine)
    load_s = time.perf_counter() - start

    server, control, ready_s = _ready(root, snapshot, pristine)
    try:
        sent, answers, timing = _load(server, control, stream, seconds)
        stats = server.ask(control, {"op": "stats"})
        pids = [server.process.pid] + stats["service"]["worker_pids"]
        peak_mb = sum(_vm_hwm_mb(pid) for pid in pids)
    finally:
        server.close(control)

    expected = [json.dumps(reference_engine.decide_request(
        ContainmentRequest.from_dict(request, parse=reference_engine.parse))
        .to_dict(), ensure_ascii=False) for request in sent]
    correct = [answer == want for answer, want in zip(answers, expected)]
    failed = len(sent) - sum(correct)
    answered = [index for index, answer in enumerate(answers)
                if answer and "error" not in json.loads(answer)]
    due, received = timing["due"], timing["received"]
    latencies = [(received[index] - due[index]) * 1000.0
                 for index in answered]
    on_time = sum(correct[index] and latency <= LATENCY_LIMIT_MS
                  for index, latency in zip(answered, latencies))
    value, percentile, beyond = metrics.tail(latencies)
    service = stats["service"]
    return {
        "attempted": len(sent), "failed": failed, "correct": failed == 0,
        "layers": {
            "service.snapshot.save_s": save_s,
            "service.snapshot.load_s": load_s,
            "service.snapshot.bytes": pristine.stat().st_size,
            "service.ping_p50_ms": statistics.median(timing["pings_ms"]),
            "service.accepted": service["accepted"],
            "service.shed": service["shed"],
            "service.expired": service["expired"],
            "service.respawns": service["respawns"],
            "service.max_backlog": service["max_backlog"],
            "loadgen.lateness_p99_ms": timing["lateness_p99_ms"],
        },
        "figures": {
            "rate_per_s": RATE, "setup_s": ready_s,
            "answered_per_s": len(answered) / timing["window_s"],
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": value, "tail_percentile": percentile,
            "tail_beyond": beyond, "on_time_share": on_time / len(sent),
            "peak_rss_mb": peak_mb, "service": service,
            "cache_stats": stats["cache_stats"],
        },
    }


def _load(server: _Server, control, stream: list[dict],
          seconds: float) -> tuple[list, list, dict]:
    """Send ``RATE * seconds`` requests open-loop; collect the answers."""
    count = max(len(stream) // 4, int(RATE * seconds))
    sent = []
    for index in range(count):
        request = dict(stream[index % len(stream)])
        request["id"] = f"s{index}"
        sent.append(request)
    lines = [(json.dumps(request) + "\n").encode() for request in sent]
    sock, reader = server.connect()
    answers: list[str] = [""] * count
    received = [0.0] * count

    def receive():
        for index in range(count):
            line = reader.readline()
            if not line:
                return
            received[index] = time.perf_counter()
            answers[index] = line.decode().rstrip("\n")

    pings: list[float] = []
    stop = threading.Event()

    def ping():
        while not stop.wait(PING_EVERY_S):
            start = time.perf_counter()
            server.ask(control, {"op": "ping"})
            pings.append((time.perf_counter() - start) * 1000.0)

    receiver = threading.Thread(target=receive)
    pinger = threading.Thread(target=ping)
    receiver.start()
    pinger.start()
    lateness = []
    begin = time.perf_counter() + 0.05
    try:
        for index, line in enumerate(lines):
            due = begin + index / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append((time.perf_counter() - due) * 1000.0)
            sock.sendall(line)
    finally:
        receiver.join(IO_TIMEOUT_S)
        stop.set()
        pinger.join(IO_TIMEOUT_S)
    if receiver.is_alive():
        raise RuntimeError("server stopped answering")
    due = [begin + index / RATE for index in range(count)]
    window = max(received) - begin
    lateness.sort()
    return sent, answers, {
        "due": due, "received": received, "window_s": window,
        "lateness_p99_ms": lateness[int(0.99 * (len(lateness) - 1))],
        "pings_ms": pings or [0.0]}
