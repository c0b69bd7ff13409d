"""Wall-clock budget for the interprocedural linter.

``python -m repro lint`` is a hard CI gate, so the whole-repo pass —
call-graph construction, per-function CFGs, the dataflow fixpoints of
RL101–RL103 on top of the per-file rules — must stay cheap
enough to run on every push.  This benchmark lints the repository's
own package with ``--stats`` timing enabled and pins:

* the pass is clean (the same assertion the gate makes);
* every registered rule actually ran (a timing row per rule — a rule
  silently dropping out of the run would relax the gate);
* the full interprocedural pass finishes under a wall-clock budget.

``REPRO_BENCH_SMOKE=1`` (the CI default) keeps the cleanliness and
coverage assertions but skips the machine-speed budget.
"""

from __future__ import annotations

import os
import time

from repro.lint import run_lint
from repro.lint.model import RULES

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Seconds the full-repo pass (all rules, stats on) may take.  The
#: pass runs in well under 2 s on a developer laptop; 15 s leaves an
#: order of magnitude of headroom for slow CI machines while still
#: catching a quadratic regression in the call graph or the worklist.
FULL_PASS_BUDGET_S = 15.0


def test_full_repo_interprocedural_lint_under_budget():
    start = time.perf_counter()
    report = run_lint(with_stats=True)  # defaults to the repro package
    elapsed = time.perf_counter() - start

    assert report.clean, "\n".join(f.render() for f in report.findings)

    timed_rules = {rule for rule, _ in report.timings}
    registered = set(RULES)
    assert timed_rules == registered, (
        f"rules missing from the pass: {sorted(registered - timed_rules)}")
    flow_s = sum(seconds for rule, seconds in report.timings
                 if rule.startswith("RL1"))
    total_s = sum(seconds for _, seconds in report.timings)
    print(f"\nfull-repo lint: {elapsed * 1e3:8.1f} ms wall "
          f"({total_s * 1e3:.1f} ms in rules, {flow_s * 1e3:.1f} ms "
          f"in RL1xx) over {report.files} files")

    if SMOKE:
        return  # cleanliness + coverage only on slow shared runners
    assert elapsed < FULL_PASS_BUDGET_S, (
        f"interprocedural lint took {elapsed:.1f}s "
        f"(budget {FULL_PASS_BUDGET_S:.0f}s)")


def test_flow_rules_alone_are_not_the_bottleneck():
    """RL1xx must stay the same order of magnitude as the per-file
    rules — the interprocedural layer rides along with the gate, it
    does not own it."""
    report = run_lint(select=["RL1XX"], with_stats=True)
    assert report.clean, "\n".join(f.render() for f in report.findings)
    assert {rule for rule, _ in report.timings} \
        == {"RL101", "RL102", "RL103"}
