"""Command-line interface.

Every command goes through one :class:`repro.api.ContainmentEngine`, so
name lookup (aliases, case-insensitive, "did you mean"), parsing and
the decision caches behave exactly as they do for library users.

Usage (after installation)::

    python -m repro semirings
    python -m repro classify "N[X]"
    python -m repro contain --semiring T+ \\
        --q1 "Q() :- R(v), S(v)" \\
        --q2 "Q() :- R(v), R(v)" --q2 "Q() :- S(v), S(v)"
    python -m repro batch --input requests.jsonl
    python -m repro batch --workers 4 --snapshot caches.snap \\
        --input requests.jsonl
    python -m repro serve --snapshot caches.snap --flush-every 200
    python -m repro minimize --semiring B "Q(x) :- R(x, y), R(x, z)"
    python -m repro eval --semiring N --query "Q(x) :- R(x, y), S(y)" \\
        --fact "R('a', 'b') = 2" --fact "S('b') = 3"
    python -m repro eval --semiring T+ \\
        --query "Q(x, y) :- Road(x, z), Road(z, y)" \\
        --instance examples/data/route_costs.csv --json

Annotations on ``--fact`` are parsed as integers (mapped through the
semiring: a count for ``N``, a cost for ``T+``, …) or, for the
polynomial-like semirings, as variable names (``= x1`` tags the fact
with a fresh provenance token).

The ``batch`` command streams JSONL: one request object per input line
(``{"semiring": ..., "q1": ..., "q2": ..., "id": ...}``), one verdict
document per output line, errors reported in-band.  ``--workers N``
shards the stream across engine processes (order preserved) and
``--snapshot PATH`` warm-starts from — and re-persists — the engine
caches.  ``serve`` keeps the same JSONL protocol alive as a long-lived
stdio or TCP service with control ops (ping/stats/snapshot/shutdown).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from .api import ContainmentEngine, process_lines
from .api.layers import CACHE_LAYERS
from .data import Instance
from .optimize import minimize_cq
from .queries.parser import ParseError

__all__ = ["main"]


def _parse_fact(text: str, semiring, engine: ContainmentEngine):
    """Parse ``"R(a, b) = value"`` into (relation, row, annotation)."""
    if "=" not in text:
        raise ValueError(f"fact needs '= annotation': {text!r}")
    atom_text, _, value_text = text.rpartition("=")
    atom_query = engine.parse(f"F() :- {atom_text.strip()}")
    atom = atom_query.atoms[0]
    if atom.variables():
        raise ValueError(f"facts must be ground (constants only): {text!r}")
    value_text = value_text.strip()
    if re.fullmatch(r"[+-]?\d+", value_text):
        annotation = semiring.normalize(int(value_text))
    elif (re.fullmatch(r"[A-Za-z_]\w*", value_text)
          and hasattr(semiring, "var")):
        annotation = semiring.var(value_text)
    else:
        # Covers non-integers like "--5" (which int() would reject with
        # a bare "invalid literal") and non-identifier token names.
        raise ValueError(
            f"cannot parse annotation {value_text!r} for {semiring.name}")
    return atom.relation, atom.terms, annotation


def _cmd_semirings(args) -> int:
    engine = args.engine
    print(f"{'name':12s} {'CQ class':8s} {'UCQ class':9s} "
          f"{'small-model':11s} notes")
    for semiring in engine.registry:
        cls = engine.classification(semiring)
        print(f"{semiring.name:12s} {cls.cq_exact_class() or '-':8s} "
              f"{cls.ucq_exact_class() or '-':9s} "
              f"{str(cls.small_model):11s} "
              f"{semiring.properties.notes.split('.')[0]}")
    return 0


def _cmd_classify(args) -> int:
    engine = args.engine
    semiring = engine.semiring(args.semiring)
    cls = engine.classification(semiring)
    print(f"{semiring.name}: offset = "
          f"{'∞' if cls.offset == float('inf') else int(cls.offset)}")
    for name, member in cls.memberships().items():
        marker = "✓" if member else "·"
        print(f"  {marker} {name}")
    return 0


def _explain_contain(engine: ContainmentEngine, args):
    """Run the certificate re-check / witness search for ``contain``."""
    from .core.explain import explain
    from .queries import UCQ

    q1 = [engine.parse(text) for text in args.q1]
    q2 = [engine.parse(text) for text in args.q2]
    singletons = len(q1) == 1 and len(q2) == 1
    return explain(
        q1[0] if singletons else UCQ(tuple(q1)),
        q2[0] if singletons else UCQ(tuple(q2)),
        engine.semiring(args.semiring),
        context=engine.context)


def _cmd_contain(args) -> int:
    engine = args.engine
    document = engine.decide(args.q1, args.q2, args.semiring)
    explanation = _explain_contain(engine, args) if args.explain else None
    if args.json:
        data = document.to_dict()
        if explanation is not None:
            detail = {"summary": explanation.summary()}
            if explanation.witness is not None:
                detail["witness"] = {
                    "instance": repr(explanation.witness.instance),
                    "target": repr(explanation.witness.target),
                    "lhs": repr(explanation.witness.lhs),
                    "rhs": repr(explanation.witness.rhs),
                }
            data["explain"] = detail
        print(json.dumps(data, ensure_ascii=False))
        return 0 if document.result is not None else 2
    print(f"{document.answer}  [{document.method}]")
    if document.explanation:
        print(f"  {document.explanation}")
    if document.result is None:
        print(f"  necessary conditions hold: {document.necessary}")
        print(f"  sufficient conditions hold: {document.sufficient}")
    if explanation is not None:
        print(f"  {explanation.summary()}")
        if explanation.witness is not None:
            print(f"  witness instance: {explanation.witness.instance!r}")
            print(f"  at tuple {explanation.witness.target}: "
                  f"{explanation.witness.lhs!r} ⋠ "
                  f"{explanation.witness.rhs!r}")
    return 0 if document.result is not None else 2


def _load_engine_snapshot(engine: ContainmentEngine, path: str) -> None:
    """Warm-start an engine from ``path``; a missing file is a normal
    first run, an unusable one is a warning — never a failure."""
    import os

    from .service import SnapshotError, load_snapshot

    if not os.path.exists(path):
        return
    try:
        load_snapshot(engine, path)
    except SnapshotError as error:
        print(f"warning: starting cold: {error}", file=sys.stderr)


def _cmd_batch(args) -> int:
    from contextlib import ExitStack

    engine = args.engine
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 1
    pool = None
    errors = 0
    with ExitStack() as stack:
        if args.workers > 1:
            from .service import WorkerPool

            pool = stack.enter_context(WorkerPool(
                args.workers, snapshot_path=args.snapshot,
                include_verdict_snapshot=args.snapshot_verdicts))
        elif args.snapshot:
            _load_engine_snapshot(engine, args.snapshot)
        source = (sys.stdin if args.input in (None, "-") else
                  stack.enter_context(open(args.input, encoding="utf-8")))
        sink = (sys.stdout if args.output in (None, "-") else
                stack.enter_context(open(args.output, "w",
                                         encoding="utf-8")))
        for document in process_lines(engine, source, pool=pool):
            if "error" in document:
                errors += 1
            # flush per line: batch is a streaming filter and downstream
            # consumers must see each verdict as its request is decided.
            print(json.dumps(document, ensure_ascii=False), file=sink,
                  flush=True)
        if args.snapshot:
            import os

            from .service import save_snapshot

            if pool is not None:
                pool.save_snapshot(args.snapshot)
            else:
                # A fully-warm run computed nothing the snapshot does
                # not already contain — skip the redundant rewrite.
                stats = engine.stats
                computed = sum(getattr(stats, layer.calls)
                               for layer in CACHE_LAYERS
                               if layer.calls is not None)
                if args.snapshot_verdicts:
                    computed += stats.decisions - stats.verdict_hits
                if computed or not os.path.exists(args.snapshot):
                    save_snapshot(engine, args.snapshot,
                                  include_verdicts=args.snapshot_verdicts)
        if args.stats:
            info = (engine.cache_info() if pool is None
                    else {"workers": pool.stats()})
            print(json.dumps(info), file=sys.stderr)
    return 0 if errors == 0 else 1


def _parse_tcp_address(text: str) -> tuple[str, int]:
    """``[HOST:]PORT`` → ``(host, port)`` (host defaults to loopback)."""
    host, _, port_text = text.rpartition(":")
    if not port_text.isdigit():
        raise ValueError(f"cannot parse TCP address {text!r}; "
                         "expected [HOST:]PORT")
    return host or "127.0.0.1", int(port_text)


def _cmd_serve(args) -> int:
    import asyncio
    import signal
    from types import SimpleNamespace

    from .service import AsyncGateway, WorkerPool

    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 1
    tcp_address = (_parse_tcp_address(args.tcp) if args.tcp is not None
                   else None)

    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    pool = WorkerPool(args.workers, snapshot_path=args.snapshot,
                      include_verdict_snapshot=args.snapshot_verdicts)
    gateway = AsyncGateway(pool, flush_every=args.flush_every,
                           flush_interval=args.flush_interval,
                           deadline=args.deadline,
                           queue_limit=args.queue_limit,
                           max_line_bytes=args.max_line_bytes)
    try:
        if tcp_address is None:
            asyncio.run(gateway.serve_stdio())
        else:
            announce = SimpleNamespace(set=lambda: print(
                "serving on {}:{}".format(*gateway.tcp_address),
                file=sys.stderr, flush=True))
            asyncio.run(gateway.serve(*tcp_address, ready=announce))
    except KeyboardInterrupt:
        pass  # graceful: final flush happens below
    finally:
        close_stats = gateway.server.close()
        pool.close()
    flush_error = close_stats.get("flush_error")
    if flush_error:
        print(f"warning: final snapshot flush failed: {flush_error}",
              file=sys.stderr)
    if args.stats:
        report = {"served": close_stats["served"],
                  "errors": close_stats["errors"]}
        if flush_error:
            report["flush_error"] = flush_error
        report["service"] = pool.metrics.as_dict()
        print(json.dumps(report), file=sys.stderr)
    return 0


def _cmd_minimize(args) -> int:
    engine = args.engine
    semiring = engine.semiring(args.semiring)
    query = engine.parse(args.query)
    result = minimize_cq(query, semiring, context=engine.context)
    print(f"input:     {query}")
    print(f"minimized: {result.query}")
    print(f"removed {result.removed} atom(s) under {semiring.name}")
    return 0


def _json_value(value):
    """A JSON-clean rendering of a domain value or annotation."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") \
            else repr(value)
    return repr(value)


def _cmd_eval(args) -> int:
    from .data.instance import format_annotation

    engine = args.engine
    semiring = engine.semiring(args.semiring)
    if args.instance is not None:
        instance = Instance.from_csv(args.instance, semiring)
    else:
        instance = Instance.from_facts(
            semiring, [_parse_fact(text, semiring, engine)
                       for text in args.fact])
    table = engine.evaluate(args.query, instance, semiring)
    rows = sorted(table.rows, key=lambda kv: repr(kv[0]))
    if args.json:
        def annotation_form(value):
            try:
                return format_annotation(semiring, value)
            except ValueError:
                return repr(value)

        print(json.dumps({
            "semiring": semiring.name,
            "arity": table.arity,
            "facts": instance.fact_count(),
            "answers": [
                {"tuple": [_json_value(value) for value in head],
                 "annotation": annotation_form(annotation)}
                for head, annotation in rows
            ],
        }, ensure_ascii=False))
        return 0
    print(f"{len(rows)} answer(s) over {semiring.name} "
          f"({instance.fact_count()} facts)")
    if not rows:
        print("no answers (all annotations are 0)")
        return 0
    for head, annotation in rows:
        print(f"  {head} ↦ {annotation!r}")
    return 0


def _cmd_lint(args) -> int:
    from .lint import render_json, render_text, run_lint

    def patterns(raw: str | None) -> list[str] | None:
        if raw is None:
            return None
        return [part.strip() for part in raw.split(",") if part.strip()]

    try:
        report = run_lint(args.paths or None,
                          select=patterns(args.select),
                          ignore=patterns(args.ignore),
                          with_stats=args.stats)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(render_json(report), ensure_ascii=False))
    else:
        print(render_text(report, stats=args.stats))
    return report.exit_code


def _cmd_falsify(args) -> int:
    import random

    from .core.axiom_search import (admissible_probe_polynomials,
                                    falsify_nhcov, falsify_nin,
                                    falsify_nk_bi, falsify_nk_hcov,
                                    falsify_nsur, probe_polynomials)

    semiring = args.engine.semiring(args.semiring)
    if not semiring.properties.poly_order_decidable:
        print(f"error: {semiring.name} has no decidable polynomial order; "
              "the axiom search needs poly_leq", file=sys.stderr)
        return 1
    rng = random.Random(args.seed)
    probes = probe_polynomials(rng)
    admissible = admissible_probe_polynomials(rng)
    searches = {
        "nhcov": lambda: falsify_nhcov(semiring),
        "nin": lambda: falsify_nin(semiring, admissible),
        "nsur": lambda: falsify_nsur(semiring, admissible),
        "n1hcov": lambda: falsify_nk_hcov(semiring, 1, probes),
        "n2hcov": lambda: falsify_nk_hcov(semiring, 2, probes),
        "n1bi": lambda: falsify_nk_bi(semiring, 1, probes),
        "ninf_bi": lambda: falsify_nk_bi(semiring, float("inf"), probes),
    }
    names = [args.axiom] if args.axiom else sorted(searches)
    for name in names:
        if name not in searches:
            print(f"error: unknown axiom {name!r}; choose from "
                  f"{sorted(searches)}", file=sys.stderr)
            return 1
        violation = searches[name]()
        if violation is None:
            print(f"  {name:8s}: no violation found (bounded search)")
        else:
            print(f"  {name:8s}: VIOLATED — {violation.left!r} ≼ "
                  f"{violation.right!r} ({violation.detail})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Annotation-semiring query containment "
                    "(Kostylev-Reutter-Salamon, PODS 2012)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "semirings", help="list registered semirings and their classes"
    ).set_defaults(func=_cmd_semirings)

    classify_cmd = commands.add_parser(
        "classify", help="show every class membership of one semiring")
    classify_cmd.add_argument("semiring")
    classify_cmd.set_defaults(func=_cmd_classify)

    contain = commands.add_parser(
        "contain", help="decide Q1 ⊆K Q2 (repeat --q1/--q2 for unions)")
    contain.add_argument("--semiring", required=True)
    contain.add_argument("--q1", action="append", required=True)
    contain.add_argument("--q2", action="append", required=True)
    contain.add_argument("--json", action="store_true",
                         help="print the verdict document as JSON")
    contain.add_argument("--explain", action="store_true",
                         help="re-check certificates / search for a "
                              "semantic witness")
    contain.set_defaults(func=_cmd_contain)

    batch = commands.add_parser(
        "batch", help="stream JSONL requests in, JSONL verdicts out")
    batch.add_argument("--input", default="-",
                       help="JSONL request file ('-' for stdin)")
    batch.add_argument("--output", default="-",
                       help="JSONL verdict file ('-' for stdout)")
    batch.add_argument("--workers", type=int, default=1,
                       help="decide across N engine processes (default 1: "
                            "in-process); identical requests share a "
                            "worker's caches and output order is preserved")
    batch.add_argument("--snapshot", metavar="PATH",
                       help="warm-start caches from PATH if it exists and "
                            "write the run's caches back to it at the end")
    batch.add_argument("--snapshot-verdicts", action="store_true",
                       help="include the verdict cache in the snapshot "
                            "(warmed runs then answer repeats with "
                            "cached=true instead of recomputing)")
    batch.add_argument("--stats", action="store_true",
                       help="print engine cache stats to stderr at the end")
    batch.set_defaults(func=_cmd_batch)

    serve = commands.add_parser(
        "serve", help="long-lived JSONL decision service (stdio or TCP)")
    serve.add_argument("--workers", type=int, default=1,
                       help="decide across N self-healing engine "
                            "processes (default 1)")
    serve.add_argument("--snapshot", metavar="PATH",
                       help="warm-start from PATH and flush caches back "
                            "to it (periodically and at shutdown)")
    serve.add_argument("--snapshot-verdicts", action="store_true",
                       help="include the verdict cache in snapshot flushes")
    serve.add_argument("--flush-every", type=int, default=500,
                       metavar="N",
                       help="flush the snapshot every N decisions "
                            "(default 500; 0 disables)")
    serve.add_argument("--flush-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="also flush the snapshot on a timer "
                            "(default 0: disabled)")
    # Accepted and ignored: every serve mode runs the asyncio gateway,
    # and perfbench/serve.py still launches `serve --async`.
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help=argparse.SUPPRESS)
    serve.add_argument("--deadline", type=float, default=0.0,
                       metavar="SECONDS",
                       help="per-request deadline; an expired request "
                            "is answered in-band with an 'expired' "
                            "error (default: no deadline)")
    serve.add_argument("--queue-limit", type=int, default=256, metavar="N",
                       help="max decisions admitted at once; excess "
                            "requests are shed with an in-band "
                            "'overloaded' response (default 256)")
    serve.add_argument("--max-line-bytes", type=int, default=1_000_000,
                       metavar="N",
                       help="bound on one JSONL input line; longer "
                            "lines are answered in-band as 'oversized' "
                            "instead of buffered (0 disables; default 1MB)")
    serve.add_argument("--tcp", metavar="[HOST:]PORT",
                       help="serve over TCP instead of stdin/stdout "
                            "(port 0 picks a free port)")
    serve.add_argument("--stats", action="store_true",
                       help="print served/error counts to stderr at exit")
    serve.set_defaults(func=_cmd_serve)

    minimize = commands.add_parser(
        "minimize", help="remove atoms while preserving K-equivalence")
    minimize.add_argument("--semiring", required=True)
    minimize.add_argument("query")
    minimize.set_defaults(func=_cmd_minimize)

    eval_cmd = commands.add_parser(
        "eval", help="evaluate a query columnar-ly over an annotated "
                     "CSV instance or --fact annotations")
    eval_cmd.add_argument("--semiring", required=True)
    eval_cmd.add_argument("--query", action="append", required=True,
                          help="CQ source text (repeat for a union)")
    facts = eval_cmd.add_mutually_exclusive_group(required=True)
    facts.add_argument("--instance", metavar="FILE",
                       help="annotated CSV: relation, v1, …, vk, "
                            "annotation")
    facts.add_argument("--fact", action="append", metavar="FACT",
                       help="one annotated ground fact, e.g. "
                            "\"R(a, b) = 2\" (repeat for more)")
    eval_cmd.add_argument("--json", action="store_true",
                          help="print the answer table as JSON")
    eval_cmd.set_defaults(func=_cmd_eval)

    lint = commands.add_parser(
        "lint", help="run the project invariant checker (per-file "
                     "rules RL001–RL005, interprocedural RL101–RL104)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--json", action="store_true",
                      help="print the report as JSON")
    lint.add_argument("--select", metavar="PATTERNS",
                      help="comma-separated rule patterns to run "
                           "(exact ids, RL1*, or X wildcards like "
                           "RL00X,RL1XX)")
    lint.add_argument("--ignore", metavar="PATTERNS",
                      help="comma-separated rule patterns to skip")
    lint.add_argument("--stats", action="store_true",
                      help="print per-rule wall-clock timings")
    lint.set_defaults(func=_cmd_lint)

    falsify = commands.add_parser(
        "falsify", help="probe the necessary-class axioms of a semiring")
    falsify.add_argument("semiring")
    falsify.add_argument("--axiom", help="one of nhcov/nin/nsur/n1hcov/"
                                         "n2hcov/n1bi/ninf_bi (default all)")
    falsify.add_argument("--seed", type=int, default=11)
    falsify.set_defaults(func=_cmd_falsify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse errors (e.g. missing --q1)
        return exit_.code if isinstance(exit_.code, int) else 1
    args.engine = ContainmentEngine()
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the stream (e.g. `repro batch | head`):
        # normal termination for a filter, not an error.  Point stdout
        # at devnull so the interpreter's shutdown flush stays quiet.
        import os
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 0
    except (ParseError, ValueError, KeyError, OSError) as error:
        from .api import error_text
        print(f"error: {error_text(error)}", file=sys.stderr)
        return 1
