"""The serving outputs do not depend on the hash seed.

Every execution path must give the same bytes: sequential, pooled,
warm-started, and under any ``PYTHONHASHSEED``.  ``hash()`` of a string
is salted per process, ``id()`` is an address, and a set of strings
iterates in salted order, so any of them that reaches a verdict, a
routing index or a snapshot key breaks that.  This test runs the real
outputs in two processes, ``PYTHONHASHSEED=0`` and ``=1``, and compares:

* the golden Table-1 lines
  (:func:`tests.test_table1_golden.golden_lines`), byte for byte;
* a pooled ``repro batch --workers 2`` of the perfbench ``table1_mix``
  and ``bag_bounds`` streams (seed 1, the bag stream at smoke size),
  byte for byte;
* ``WorkerPool.shard_of`` of every request of those streams.  A salted
  shard key still sends the duplicates of a request to one worker, so
  the output bytes alone would not show it;
* the snapshots of a pooled run (``table1_mix``) and of a sequential
  run (``bag_bounds``, the golden corpus over ``N`` and ``R+`` under
  nine renamings of its relations, then the tropical requests of
  ``tests/test_tropical_certificates.py``),
  as decoded by :func:`repro.service.read_snapshot`, each layer taken
  as a dict.  The file bytes are not compared: a pickled frozenset
  keeps its hash order, and a pooled snapshot lists each layer in the
  order the workers answered;
* a warm start across seeds: the second process restores the first
  one's sequential snapshot, must answer byte-identically to the cold
  run, and must compute nothing: every layer is recalled, the tropical
  order certificates included (``poly_calls == 0``, ``poly_hits >
  0``).  ``Polynomial`` and ``Monomial`` cache a salted hash, so they
  must rebuild it on unpickling, or every certificate key would miss
  here.

Run as a script, the file is the probe of one process::

    PYTHONPATH=src:. python tests/test_hash_seed_identity.py STREAMS OUT [WARM]

It decides the streams in ``STREAMS`` into ``OUT``, and with ``WARM``
(a sequential snapshot of another process) adds the warm run.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The streams a pool decides (perfbench's ``table1_mix`` and
#: ``bag_bounds``), and the one decided sequentially with a snapshot.
POOLED = ("table1", "bag")
SEQUENTIAL = "sequential"

#: The semirings the golden corpus is decided over in the sequential
#: stream: their bounds search canonicalises ``⟨Q1⟩`` of members over
#: two relations.
BAG_SEMIRINGS = ("N", "R+")

#: Relation-name suffixes of the corpus copies in the sequential stream.
#: A hazard that renders a set of relation names shows only where the
#: two seeds order that set differently, which a two-name set does by
#: chance: nine sets give three that do (Python 3.10 to 3.12).  The
#: perfbench streams have one such set.
SUFFIXES = ("", *map(str, range(8)))


def _renamed(query, suffix: str):
    """``query`` (a source string or a list of them) with ``suffix``
    appended to each relation name of the corpus (``R``, ``S``, ``T``)."""
    if isinstance(query, list):
        return [_renamed(member, suffix) for member in query]
    return re.sub(r"\b([RST])\(", rf"\g<1>{suffix}(", query)


def _batch(*args: str) -> dict:
    """``repro batch --stats`` in this process; its stats line."""
    from repro.cli import main

    stderr = StringIO()
    with redirect_stderr(stderr):
        code = main(["batch", "--stats", *args])
    assert code == 0, stderr.getvalue()
    return json.loads(stderr.getvalue().splitlines()[-1])


def probe(streams: Path, out: Path, warm: Path | None = None) -> None:
    """Write this process's outputs under ``out``."""
    from repro.service import WorkerPool
    from tests.test_table1_golden import golden_lines

    (out / "golden.jsonl").write_text("\n".join(golden_lines()) + "\n",
                                      encoding="utf-8")
    shards = {}
    with WorkerPool(2) as pool:
        for name in POOLED:
            with open(streams / f"{name}.jsonl", encoding="utf-8") as lines:
                shards[name] = [pool.shard_of(pool.normalize(json.loads(line)))
                                for line in lines]
    (out / "shards.json").write_text(json.dumps(shards), encoding="utf-8")
    _batch("--workers", "2", "--snapshot", str(out / "table1.snap"),
           "--input", str(streams / "table1.jsonl"),
           "--output", str(out / "table1.jsonl"))
    _batch("--workers", "2", "--input", str(streams / "bag.jsonl"),
           "--output", str(out / "bag.jsonl"))
    _batch("--snapshot", str(out / f"{SEQUENTIAL}.snap"),
           "--input", str(streams / f"{SEQUENTIAL}.jsonl"),
           "--output", str(out / f"{SEQUENTIAL}.jsonl"))
    if warm is not None:
        shutil.copyfile(warm, out / "warm.snap")
        stats = _batch("--snapshot", str(out / "warm.snap"),
                       "--input", str(streams / f"{SEQUENTIAL}.jsonl"),
                       "--output", str(out / "warm.jsonl"))
        (out / "warm-stats.json").write_text(json.dumps(stats),
                                             encoding="utf-8")


def _run_probe(seed: str, streams: Path, out: Path,
               warm: Path | None = None) -> None:
    out.mkdir()
    subprocess.run(
        [sys.executable, __file__, str(streams), str(out)]
        + ([str(warm)] if warm is not None else []),
        env={**os.environ, "PYTHONHASHSEED": seed,
             "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(ROOT)))},
        check=True, timeout=300)


def _decoded(path: Path) -> dict:
    from repro.service import read_snapshot

    return {layer: dict(entries)
            for layer, entries in read_snapshot(path).items()}


def test_outputs_are_identical_under_two_hash_seeds(tmp_path):
    from perfbench import inputs
    from tests.test_table1_golden import CORPUS
    from tests.test_tropical_certificates import TROPICAL_REQUESTS

    streams = tmp_path / "streams"
    streams.mkdir()
    bag = inputs.bag_stream(1, smoke=True)
    inputs.write_jsonl(inputs.table1_stream(1), streams / "table1.jsonl")
    inputs.write_jsonl(bag, streams / "bag.jsonl")
    corpus = [{"semiring": semiring, "q1": _renamed(q1, suffix),
               "q2": _renamed(q2, suffix), "equivalence": equivalence,
               "id": label + suffix}
              for suffix in SUFFIXES for semiring in BAG_SEMIRINGS
              for label, q1, q2, equivalence in CORPUS]
    inputs.write_jsonl(bag + corpus + TROPICAL_REQUESTS,
                       streams / f"{SEQUENTIAL}.jsonl")
    first, second = tmp_path / "seed0", tmp_path / "seed1"
    _run_probe("0", streams, first)
    _run_probe("1", streams, second, warm=first / f"{SEQUENTIAL}.snap")

    def read(seed_dir: Path, name: str) -> str:
        return (seed_dir / name).read_text(encoding="utf-8")

    for name in ("golden.jsonl", "table1.jsonl", "bag.jsonl",
                 f"{SEQUENTIAL}.jsonl", "shards.json"):
        assert read(first, name) == read(second, name), name
    for name in ("table1.snap", f"{SEQUENTIAL}.snap"):
        assert _decoded(first / name) == _decoded(second / name), name
    assert read(second, "warm.jsonl") == read(first, f"{SEQUENTIAL}.jsonl")
    stats = json.loads(read(second, "warm-stats.json"))
    computed = {key: value for key, value in stats.items()
                if key.endswith("_calls") and value}
    assert not computed, computed
    assert stats["poly_calls"] == 0 and stats["poly_hits"] > 0, stats


if __name__ == "__main__":
    probe(*map(Path, sys.argv[1:]))
