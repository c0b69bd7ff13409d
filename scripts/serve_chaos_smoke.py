"""CI smoke: the serving stack survives a SIGKILLed worker.

Boots ``python -m repro serve --tcp`` as a real subprocess,
drives it over two pipelined TCP connections, SIGKILLs one worker
process mid-run, and asserts that the service recovers (respawn
visible in the ``stats`` op, every later request answered) and shuts
down cleanly with exit code 0.

Run from the repository root::

    PYTHONPATH=src python scripts/serve_chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading


def request_line(index: int, *, prefix: str) -> str:
    return json.dumps({"semiring": "B",
                       "q1": f"Q() :- R(u, v), C{index}(u)",
                       "q2": "Q() :- R(u, v)",
                       "id": f"{prefix}{index}"})


def exchange(address, lines, timeout=60.0):
    """One pipelined conversation: write everything, then read replies."""
    with socket.create_connection(address, timeout=timeout) as client:
        with client.makefile("rw", encoding="utf-8",
                             newline="\n") as stream:
            for line in lines:
                stream.write(line + "\n")
            stream.flush()
            client.shutdown(socket.SHUT_WR)
            return [json.loads(line) for line in stream if line.strip()]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
         "--workers", "2", "--deadline", "30", "--stats"],
        stderr=subprocess.PIPE, env=env, text=True)
    try:
        announce = proc.stderr.readline().strip()
        assert "serving on" in announce, announce
        host, _, port = announce.rsplit(" ", 1)[-1].rpartition(":")
        address = (host, int(port))

        # Two pipelined connections, concurrently.
        replies: dict[str, list[dict]] = {}

        def client(prefix: str) -> None:
            lines = [request_line(i, prefix=prefix) for i in range(20)]
            replies[prefix] = exchange(address, lines)

        threads = [threading.Thread(target=client, args=(prefix,))
                   for prefix in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for prefix in ("a", "b"):
            got = [reply["request_id"] for reply in replies[prefix]]
            assert got == [f"{prefix}{i}" for i in range(20)], got

        # SIGKILL one worker; the pool must respawn it.
        stats = exchange(address, ['{"op": "stats"}'])[0]
        victims = [pid for pid in stats["service"]["worker_pids"] if pid]
        assert len(victims) == 2, stats["service"]
        os.kill(victims[0], signal.SIGKILL)

        after = exchange(address, [request_line(i, prefix="k")
                                   for i in range(40)])
        assert all("result" in reply for reply in after), \
            [reply for reply in after if "result" not in reply]

        stats = exchange(address, ['{"op": "stats"}'])[0]
        assert stats["service"]["respawns"] >= 1, stats["service"]
        assert stats["service"]["shed"] == 0, stats["service"]

        shutdown = exchange(address, ['{"op": "shutdown"}'])
        assert shutdown == [{"op": "shutdown", "ok": True}], shutdown
        code = proc.wait(timeout=60)
        assert code == 0, f"serve exited with {code}"
        print(f"serve-chaos smoke OK: 80 pipelined requests, "
              f"{stats['service']['respawns']} respawn(s), "
              f"{stats['service']['redriven']} re-driven, clean shutdown")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stderr.close()


if __name__ == "__main__":
    sys.exit(main())
