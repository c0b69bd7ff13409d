"""Reference probes and probe-scaled timing.

The host this benchmark targets slows one vCPU at a time by 30-70 % for
seconds at a stretch, so raw wall time of identical work wanders from
run to run.  The measured process is pinned to one vCPU and, every few
tens of milliseconds of timed work, runs a short reference probe that
calls no repository code.  Each chunk of work between two probes is
rescaled to a nominal host speed::

    factor = nominal probe time / mean(probe before, probe after)

so a chunk timed while the vCPU ran at half speed (probes twice as
slow) counts at half its raw duration.  Units stay seconds.  Every
chunk's raw duration, flanking probe times and factor are kept so the
scaling can be audited from the run record.

The probe must resemble the workload.  The decision workloads use a
pure-Python probe (dict, tuple and hash traffic on a few KB).  The
columnar workload uses a memory probe, a pointer chase through a table
larger than the per-core caches: its slow periods also slow cache and
memory access, which the pure-Python probe, whose data stays in L1, does
not see.  In one pinned process on a 2-vCPU Xeon KVM guest that
interleaved its evaluations with the probes for five minutes, evaluation
passes scaled by the pure-Python probe spread 13.6 % (coefficient of
variation; 23 % raw), by a numpy gather-and-``reduceat`` probe 11 %, and
by the memory probe 9.5 %.  In a second such session a 256K-slot chase
table did as well as a 1M-slot one, so the smaller one is used.  In a
third, the memory probe read the same (medians within 1 %) after an
evaluation as after 25 ms of pure-Python spinning: the chased slots are
out of cache either way, so the program's own memory traffic does not
move this yardstick.
"""

from __future__ import annotations

import os
import time

#: Probe time, in seconds, that defines "nominal" host speed.  Changing
#: it rescales every scaled metric; keep it fixed.
NOMINAL_PY_PROBE_S = 0.0020

#: About 2 ms of work.  A 4 ms probe, interleaved with it in the same
#: processes (10 each), narrowed the spread of a table1_mix pass's tail
#: latency (13 % to 9.5 %) but widened eval_columnar's (4 % to 11 %)
#: and its median (6.6 % to 8.4 %).
_PY_PROBE_ROUNDS = 4000


def _py_probe_work() -> int:
    table: dict = {}
    acc = 0
    for i in range(_PY_PROBE_ROUNDS):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, i & 7))
        if (key, 3) in table:
            acc += 1
    return acc + len(sorted(table.values())[:8])


def python_probe() -> float:
    """Seconds one run of the pure-Python reference loop takes."""
    start = time.perf_counter()
    _py_probe_work()
    return time.perf_counter() - start


#: Nominal time of the memory probe, as for the pure-Python probe.
NOMINAL_MEM_PROBE_S = 0.0020

#: Slots of the pointer-chase table: a 2 MB list and its int objects
#: (about 8 MB more), larger than a core's L2 cache.
_CHASE_SLOTS = 1 << 18
#: About 2 ms of chasing.
_CHASE_STEPS = 5000
_chase: list[int] = []
_chase_slot = 0


def memory_probe() -> float:
    """Seconds one pointer chase through the chase table takes.

    The table is built on first use, outside the timed part.  Slot ``i``
    holds ``(i * 1000005 + 7) mod 2**18``, a single cycle through every
    slot that visits them in no order a prefetcher follows.  Each chase
    resumes where the previous one stopped, so it reads slots last read
    about fifty probes before.
    """
    global _chase_slot
    if not _chase:
        _chase.extend((i * 1_000_005 + 7) % _CHASE_SLOTS
                      for i in range(_CHASE_SLOTS))
    table, slot = _chase, _chase_slot
    start = time.perf_counter()
    for _ in range(_CHASE_STEPS):
        slot = table[slot]
    elapsed = time.perf_counter() - start
    _chase_slot = slot
    return elapsed


def scale_factor(nominal: float, before: float, after: float) -> float:
    """Nominal-speed factor of a chunk flanked by two probe times."""
    return nominal / ((before + after) / 2.0)


def pin_to_one_cpu() -> int | None:
    """Pin this process to the highest-numbered CPU it may run on.

    Returns the CPU, or ``None`` where affinity is not supported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class ScaledClock:
    """Times items in chunks between reference probes.

    ``time_items(items, fn)`` calls ``fn`` on every item and returns, per
    item, ``(result, raw seconds, chunk index)``.  A probe runs before
    the first item, whenever the current chunk has accumulated
    ``chunk_s`` seconds, and after the last item, so every chunk has a
    probe on each side.  ``chunks`` accumulates, across calls, one
    record per chunk: raw seconds (wall time between the flanking
    probes), the two probe times and the factor.
    """

    def __init__(self, probe=python_probe,
                 nominal: float = NOMINAL_PY_PROBE_S, chunk_s: float = 0.025):
        self.probe = probe
        self.nominal = nominal
        self.chunk_s = chunk_s
        self.chunks: list[dict] = []

    def _close(self, raw: float, before: float, after: float) -> int:
        self.chunks.append({
            "raw_s": raw, "probe_before_s": before, "probe_after_s": after,
            "factor": scale_factor(self.nominal, before, after)})
        return len(self.chunks) - 1

    def time_items(self, items, fn) -> list[tuple]:
        out: list[tuple] = []
        pending: list[tuple] = []
        before = self.probe()
        chunk_start = time.perf_counter()
        for item in items:
            start = time.perf_counter()
            result = fn(item)
            end = time.perf_counter()
            pending.append((result, end - start))
            if end - chunk_start >= self.chunk_s:
                after = self.probe()
                index = self._close(end - chunk_start, before, after)
                out.extend((res, raw, index) for res, raw in pending)
                pending = []
                before = after
                chunk_start = time.perf_counter()
        if pending:
            end = time.perf_counter()
            after = self.probe()
            index = self._close(end - chunk_start, before, after)
            out.extend((res, raw, index) for res, raw in pending)
        return out

    def factor(self, index: int) -> float:
        return self.chunks[index]["factor"]

    def scaled_total(self, first_chunk: int = 0,
                     last_chunk: int | None = None) -> float:
        """Scaled seconds of chunks ``first_chunk .. last_chunk - 1``."""
        return sum(chunk["raw_s"] * chunk["factor"]
                   for chunk in self.chunks[first_chunk:last_chunk])

    def raw_total(self, first_chunk: int = 0,
                  last_chunk: int | None = None) -> float:
        return sum(chunk["raw_s"]
                   for chunk in self.chunks[first_chunk:last_chunk])

