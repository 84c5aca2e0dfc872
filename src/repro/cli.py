"""Command-line interface: run and analyze joins from the shell.

Five subcommands::

    python -m repro run --query "R(a,b), S(b,c)" \\
        --table R=follows.csv --table S=lives.csv -M 1024 -B 64 \\
        [--out results.csv] [--no-reduce] [--json] \\
        [--pool-frames 16 --pool-policy lru] \\
        [--trace out.jsonl] [--trace-summary] \\
        [--profile out.json]

    python -m repro analyze --query "e1(v1,v2)[100], e2(v2,v3)[50]" \\
        -M 1024 -B 64

    python -m repro explain --query "R(a,b), S(b,c)" \\
        --table R=follows.csv --table S=lives.csv -M 1024 -B 64 \\
        [--fitted benchmarks/BENCH_fitted.json] [--fit-live] \\
        [--no-reduce] [--json]

    python -m repro fit two_relations line3 [--all] \\
        [--points 64 128 256] [-M 16 -B 4] [--eps 0.25] [--json] \\
        [--profile out.json] [--write-fitted PATH] \\
        [--check-fitted PATH]

    python -m repro serve --table R=follows.csv --table S=lives.csv \\
        [-M 4096 -B 64] [--host 127.0.0.1 --port 8707] \\
        [--pool-frames 256 --pool-policy lru] \\
        [--instance default] \\
        [--fitted benchmarks/BENCH_fitted.json] \\
        [--flight-records 256] [--slow-query-ms 100] \\
        [--quota alice=0.5] [--default-quota 0.25]

``run`` loads the CSV tables, executes the planner, and reports the
results count, I/O bill, per-phase breakdown, and the optimality
certificate.  ``--pool-frames``/``--pool-policy`` opt into the buffer
pool (cache counters join the report); ``--trace`` observes the run
with a :class:`~repro.obs.Tracer` and exports the event stream as JSON
Lines (``--trace-buffer`` bounds the stored events);
``--trace-summary`` reports the tracer's exact per-file/per-phase
totals and works on its own (no ``--trace`` needed — summary without
the event file); ``--profile`` observes with a
:class:`~repro.obs.SpanProfiler` and writes a Chrome-trace/Perfetto
JSON profile, whose spans carry what each operator saw (a sort's
``runs``, a leaf peel's ``heavy``/``light`` split, a best-branch run's
``branches``); ``--json`` emits the whole report as one
JSON document so benchmarks and CI can scrape results without parsing
prose.  ``analyze`` is purely structural: shape, acyclicity, edge
cover / AGM bound, balance regime for lines, and the GenS branch
summary — no data needed (sizes come from the ``[n]`` annotations).
``explain`` runs the query like ``run`` and then reports **predicted
vs measured** I/O per phase: the prediction evaluates the query's
Table-1 bound terms at the actual relation sizes and machine, scaled
by the fitted constant from ``--fitted`` (the committed
``benchmarks/BENCH_fitted.json``) — ``--fit-live`` sweeps the
constants on the spot when no document exists yet.  ``fit`` sweeps
registered query classes against their Table 1 bounds, fits the
hidden constant and the log-log slope, and exits non-zero on a
complexity regression (slope > 1 + eps) — the CI hook next to the
pinned-counter baseline check; ``--write-fitted`` persists the
constants as the versioned document ``explain`` reads, and
``--check-fitted`` diffs a fresh sweep against the committed one
(exit 1 on drift — the CI gate that keeps predictions honest).
``serve`` keeps a :class:`~repro.server.QueryService` alive behind a
small HTTP surface: ``POST /query`` (JSON in/out, optional sticky
sessions), ``GET /metrics`` (Prometheus text), ``/stats``,
``/catalog`` and ``/healthz``.  One thread serves every request and
runs each query to completion before reading the next.  ``-M`` is the *global* admission
budget (per-query machines come from the request): a query whose need
exceeds it, or its tenant's share of it, gets 422.  ``--pool-frames``
turns on the shared cross-query buffer pool.
``--fitted`` arms ``POST /query?explain=1``; ``--flight-records`` /
``--slow-query-ms`` size the query flight recorder behind ``GET
/debug/queries``; ``--quota OWNER=SHARE`` (repeatable) and
``--default-quota SHARE`` cap a tenant's share of the budget, a
fraction in (0, 1].
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import FIT_CLASSES, certify, fit_class
from repro.core import CollectingEmitter, execute
from repro.data.instance import Instance
from repro.data.io import dump_results_csv, instance_from_csv
from repro.em.bufferpool import PoolConfig
from repro.em.device import Device
from repro.em.policies import POLICIES
from repro.obs import (ProfiledEmitter, SpanProfiler, Tracer,
                       write_chrome_trace)
from repro.query import (JoinQuery, fractional_edge_cover, gens_all,
                         is_berge_acyclic)
from repro.query.parse import parse_query, parse_query_and_layouts
from repro.query.shapes import classify_shape, detect_line


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Worst-case I/O-optimal acyclic joins "
                    "(Hu & Yi, PODS 2016) on a simulated EM machine.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a join over CSV tables")
    run.add_argument("--query", required=True,
                     help="query text, e.g. 'R(a,b), S(b,c)'")
    run.add_argument("--table", action="append", default=[],
                     metavar="NAME=PATH",
                     help="CSV file per relation (repeatable)")
    run.add_argument("-M", type=int, default=1024,
                     help="memory size in tuples (default 1024)")
    run.add_argument("-B", type=int, default=64,
                     help="block size in tuples (default 64)")
    run.add_argument("--out", help="write results to this CSV")
    run.add_argument("--no-reduce", action="store_true",
                     help="skip the full reducer (input already reduced)")
    run.add_argument("--certificate", action="store_true",
                     help="also compute the optimality certificate "
                          "(expensive: joins in memory)")
    run.add_argument("--pool-frames", type=int, default=0, metavar="N",
                     help="enable the buffer pool with N page frames "
                          "(default 0 = off, paper-faithful accounting)")
    run.add_argument("--pool-policy", choices=sorted(POLICIES),
                     default="lru",
                     help="replacement policy for --pool-frames "
                          "(default lru)")
    run.add_argument("--json", action="store_true",
                     help="emit one JSON document instead of prose "
                          "(io, phases, memory peak, cache counters)")
    run.add_argument("--trace", metavar="PATH",
                     help="trace device events (reads, writes, cache, "
                          "phases, memory peaks) and export them as "
                          "JSON Lines to PATH")
    run.add_argument("--trace-summary", action="store_true",
                     help="report the tracer's exact per-file/per-phase "
                          "totals; usable on its own (observes with a "
                          "tracer without writing an event file) or "
                          "next to --trace; adds a trace_summary "
                          "section under --json")
    run.add_argument("--trace-buffer", type=int, default=65536,
                     metavar="N",
                     help="ring-buffer capacity in events (oldest "
                          "events are overwritten; default 65536)")
    run.add_argument("--profile", metavar="PATH",
                     help="profile the run with hierarchical spans and "
                          "write a Chrome-trace/Perfetto JSON file to "
                          "PATH (adds a profile section under --json)")

    analyze = sub.add_parser("analyze",
                             help="structural analysis of a query")
    analyze.add_argument("--query", required=True,
                         help="query text with optional [size] suffixes")
    analyze.add_argument("-M", type=int, default=1024)
    analyze.add_argument("-B", type=int, default=64)

    explain = sub.add_parser(
        "explain", help="run a join and report predicted vs measured "
                        "I/O per phase")
    explain.add_argument("--query", required=True,
                         help="query text, e.g. 'R(a,b), S(b,c)'")
    explain.add_argument("--table", action="append", default=[],
                         metavar="NAME=PATH",
                         help="CSV file per relation (repeatable)")
    explain.add_argument("-M", type=int, default=1024,
                         help="memory size in tuples (default 1024)")
    explain.add_argument("-B", type=int, default=64,
                         help="block size in tuples (default 64)")
    explain.add_argument("--fitted", default="benchmarks/BENCH_fitted.json",
                         metavar="PATH",
                         help="fitted-constants document to predict "
                              "from (default benchmarks/"
                              "BENCH_fitted.json)")
    explain.add_argument("--fit-live", action="store_true",
                         help="no --fitted file needed: sweep and fit "
                              "the matched class on the spot (slower, "
                              "but always available)")
    explain.add_argument("--no-reduce", action="store_true",
                         help="skip the full reducer "
                              "(input already reduced)")
    explain.add_argument("--json", action="store_true",
                         help="emit the report as one JSON document")

    fit = sub.add_parser(
        "fit", help="fit hidden constants of the Table 1 bounds")
    fit.add_argument("classes", nargs="*", metavar="CLASS",
                     help="query classes to sweep and fit "
                          f"(from: {', '.join(sorted(FIT_CLASSES))})")
    fit.add_argument("--all", action="store_true",
                     help="sweep every registered class")
    fit.add_argument("--points", type=int, nargs="+", metavar="N",
                     help="instance sizes to sweep (default: the "
                          "class's registered sweep)")
    fit.add_argument("-M", type=int, default=None,
                     help="memory size in tuples (default: per class)")
    fit.add_argument("-B", type=int, default=None,
                     help="block size in tuples (default: per class)")
    fit.add_argument("--eps", type=float, default=0.25,
                     help="regression tolerance: flag when the fitted "
                          "log-log slope exceeds 1 + eps (default 0.25)")
    fit.add_argument("--json", action="store_true",
                     help="emit the fit results as one JSON document")
    fit.add_argument("--profile", metavar="PATH",
                     help="profile the sweep and write a Chrome-trace/"
                          "Perfetto JSON file to PATH")
    fit.add_argument("--write-fitted", metavar="PATH",
                     help="persist the fitted constants as the "
                          "versioned document 'repro explain' and the "
                          "service read (benchmarks/BENCH_fitted.json)")
    fit.add_argument("--check-fitted", metavar="PATH",
                     help="diff this sweep against the committed "
                          "fitted document at PATH; exit 1 on drift")

    serve = sub.add_parser(
        "serve", help="run the long-lived query service over HTTP")
    serve.add_argument("--table", action="append", default=[],
                       metavar="NAME=PATH",
                       help="CSV file per relation (repeatable); loaded "
                            "once into the catalog at startup")
    serve.add_argument("--instance", default="default",
                       help="catalog name for the loaded tables "
                            "(default 'default')")
    serve.add_argument("-M", type=int, default=4096,
                       help="GLOBAL memory budget in tuples: the "
                            "largest need a query may declare "
                            "(default 4096)")
    serve.add_argument("-B", type=int, default=64,
                       help="block size in tuples (default 64)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8707,
                       help="bind port (default 8707; 0 picks a free "
                            "one and prints it)")
    serve.add_argument("--pool-frames", type=int, default=0, metavar="N",
                       help="enable the SHARED cross-query buffer pool "
                            "with N page frames (default 0 = off)")
    serve.add_argument("--pool-policy", choices=sorted(POLICIES),
                       default="lru",
                       help="replacement policy for --pool-frames "
                            "(default lru)")
    serve.add_argument("--fitted", metavar="PATH",
                       help="fitted-constants document (benchmarks/"
                            "BENCH_fitted.json) arming POST "
                            "/query?explain=1")
    serve.add_argument("--flight-records", type=int, default=256,
                       metavar="N",
                       help="flight-recorder ring capacity in query "
                            "records (default 256; 0 = recording off)")
    serve.add_argument("--slow-query-ms", type=float, default=None,
                       metavar="MS",
                       help="flag and count queries slower than MS "
                            "end-to-end (default: off)")
    serve.add_argument("--quota", action="append", default=[],
                       metavar="OWNER=SHARE",
                       help="per-tenant admission quota (repeatable): "
                            "the largest share of the budget, in "
                            "(0, 1], one query of OWNER may need")
    serve.add_argument("--default-quota", metavar="SHARE",
                       help="quota applied to tenants without an "
                            "explicit --quota")
    return parser


class _UsageError(Exception):
    """Bad command-line input: reported as ``error: ...``, exit 2."""


def _load_tables(specs: list[str], query: JoinQuery, layouts: dict,
                 M: int, B: int, **device_kw) -> tuple[Device, Instance]:
    """Load ``--table NAME=PATH`` specs onto a fresh ``Device(M, B)``.

    Every relation of ``query`` needs a table, and each table's columns
    must be the attributes the query text names for it.
    """
    tables = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise _UsageError(f"--table expects NAME=PATH, got {spec!r}")
        tables[name] = path
    missing = set(query.edges) - set(tables)
    if missing:
        raise _UsageError(f"no --table for relations {sorted(missing)}")
    try:
        device = Device(M=M, B=B, **device_kw)
        instance = instance_from_csv(device, tables)
    except (OSError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc
    for e, attrs in layouts.items():
        have = instance[e].schema.attributes
        if set(have) != set(attrs):
            raise _UsageError(f"{tables[e]} has columns {list(have)}, "
                              f"query names {list(attrs)} for {e}")
    return device, instance


def cmd_run(args: argparse.Namespace) -> int:
    query, layouts = parse_query_and_layouts(args.query)
    pool = None
    if args.pool_frames:
        if args.pool_frames < 0:
            print(f"error: --pool-frames must be >= 1, got "
                  f"{args.pool_frames}", file=sys.stderr)
            return 2
        pool = PoolConfig(frames=args.pool_frames,
                          policy=args.pool_policy)
    tracer = None
    if args.trace or args.trace_summary:
        if args.trace_buffer < 1:
            print(f"error: --trace-buffer must be >= 1, got "
                  f"{args.trace_buffer}", file=sys.stderr)
            return 2
        tracer = Tracer(capacity=args.trace_buffer)
    profiler = SpanProfiler() if args.profile else None
    try:
        device, instance = _load_tables(
            args.table, query, layouts, args.M, args.B, buffer_pool=pool,
            observers=filter(None, (tracer, profiler)))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    emitter = CollectingEmitter()
    sink = (ProfiledEmitter(emitter, profiler) if profiler is not None
            else emitter)
    report = execute(query, instance, sink,
                     reduce_first=not args.no_reduce)
    if device.pool is not None:
        # Deferred dirty pages are written back here, after the join /
        # reduce snapshots — attribute them rather than letting them
        # inflate "(unattributed)".
        with device.phases.phase("pool-flush"):
            device.flush_pool()

    cert = None
    if args.certificate:
        # The certificate check re-reads every relation host-side to
        # compute the information-theoretic lower bound; suspend the
        # counters so this audit step is *explicitly* outside the
        # measured run rather than a silent peek at the model's edge.
        with device.stats.suspend():
            data = {e: list(instance[e].peek_tuples())
                    for e in query.edges}
        schemas = instance.schemas()
        cert = certify(query, data, schemas, args.M, args.B, report.io)

    written = None
    if args.out:
        written = dump_results_csv(emitter.results, instance.schemas(),
                                   args.out)

    traced_events = None
    if tracer is not None and args.trace:
        traced_events = tracer.export_jsonl(args.trace)

    profile_events = None
    if profiler is not None:
        profile_events = write_chrome_trace(args.profile, profiler)

    if args.json:
        payload = {
            "query": args.query,
            "machine": {"M": args.M, "B": args.B},
            "shape": report.shape,
            "algorithm": report.algorithm,
            "results": emitter.count,
            "io": {"reads": device.stats.reads,
                   "writes": device.stats.writes,
                   "total": device.stats.total,
                   "join": report.io,
                   "reduce": report.reduce_reads + report.reduce_writes},
            "phases": device.phases.report(),
            "memory": {"peak": device.memory.peak},
            "cache": (device.stats.cache.as_dict()
                      if device.pool is not None else None),
        }
        if tracer is not None:
            payload["trace_summary"] = tracer.summary()
        if traced_events is not None:
            # Report the trace file's loss honestly: the totals are
            # exact, but the stored event stream is ring-buffered, so
            # say how many events the file is missing.
            ev = tracer.summary()["events"]
            payload["trace"] = {"events": traced_events,
                                "path": args.trace,
                                "seen": ev["seen"],
                                "stored": ev["stored"],
                                "overwritten": ev["overwritten"]}
        if profiler is not None:
            payload["profile"] = {"path": args.profile,
                                  "events": profile_events,
                                  **profiler.summary()}
        if cert is not None:
            payload["certificate"] = {
                "lower": cert.lower, "gens_upper": cert.gens_upper,
                "measured_over_lower": cert.measured_over_lower}
        if written is not None:
            payload["wrote"] = {"rows": written, "path": args.out}
        print(json.dumps(payload, indent=2, sort_keys=False))
        return 0

    print(f"shape       : {report.shape}")
    print(f"algorithm   : {report.algorithm}")
    print(f"results     : {emitter.count}")
    print(f"io (join)   : {report.io}  ({report.reads} reads, "
          f"{report.writes} writes)")
    print(f"io (reduce) : {report.reduce_reads + report.reduce_writes}")
    phase_report = device.phases.report()
    phases = ", ".join(f"{k}={v}" for k, v in phase_report.items())
    print(f"phases      : {phases}")
    if device.pool is not None:
        c = device.stats.cache
        print(f"cache       : hits={c.hits} misses={c.misses} "
              f"evictions={c.evictions} writebacks={c.writebacks} "
              f"hit_rate={c.hit_rate:.2f}")
    if tracer is not None and args.trace_summary:
        s = tracer.summary()
        print(f"trace       : {s['events']['seen']} events seen, "
              f"{s['events']['stored']} buffered")
        for label, b in s["per_phase"].items():
            print(f"  phase {label}: {b['reads']} reads, "
                  f"{b['writes']} writes")
        top = sorted(s["per_file"].items(),
                     key=lambda kv: -kv[1]["total"])[:5]
        for fname, b in top:
            print(f"  file {fname}: {b['reads']} reads, "
                  f"{b['writes']} writes")
    if traced_events is not None:
        ev = tracer.summary()["events"]
        print(f"trace file  : {traced_events} of {ev['seen']} events "
              f"to {args.trace}"
              + (f" ({ev['overwritten']} overwritten)"
                 if ev["overwritten"] else ""))
    if profiler is not None:
        s = profiler.summary()
        print(f"profile     : {s['span_count']} spans "
              f"({s['dropped']} dropped) to {args.profile}; "
              f"attributed {s['attributed_io']}/{s['total_io']} I/Os")
    if cert is not None:
        print(f"certificate : lower={cert.lower:.1f} "
              f"gens={cert.gens_upper:.1f} "
              f"measured/lower={cert.measured_over_lower:.2f}")
    if written is not None:
        print(f"wrote       : {written} rows to {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    acyclic = is_berge_acyclic(query)
    print(f"edges          : {len(query.edges)}")
    print(f"attributes     : {len(query.attributes)}")
    print(f"berge-acyclic  : {acyclic}")
    if not acyclic:
        print("(the paper's algorithms require Berge-acyclicity; "
              "triangle queries go through repro.core.triangle)")
        return 0
    print(f"shape          : {classify_shape(query)}")
    if query.sizes is not None:
        cover = fractional_edge_cover(query)
        weights = {e: round(x, 2) for e, x in cover.weights.items()}
        print(f"edge cover     : {weights}")
        print(f"AGM bound      : {cover.agm_bound:.1f}")
        chain = detect_line(query)
        if chain is not None:
            from repro.query.lines import classify_line
            sizes = [query.size(e) for e in chain.edges]
            cls = classify_line(sizes)
            print(f"line regime    : {cls.regime} (cover {cls.cover})")
    branches = gens_all(query)
    sizes_of = sorted(len(b) for b in branches)
    print(f"GenS branches  : {len(branches)} "
          f"(collection sizes {sizes_of[0]}..{sizes_of[-1]})")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.analysis.predict import (explain, fitted_document,
                                        load_fitted, match_fit_class)
    from repro.core import CountingEmitter

    query, layouts = parse_query_and_layouts(args.query)
    try:
        device, instance = _load_tables(args.table, query, layouts,
                                        args.M, args.B)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sizes = {e: len(instance[e]) for e in query.edges}

    emitter = CountingEmitter()
    if classify_shape(query) == "cyclic":
        # The acyclic planner refuses cycles; the triangle has its own
        # blocked algorithm (and its own fitted class).
        from repro.core.triangle import triangle_join
        triangle_join(query, instance, emitter)
        shape, algorithm = "cyclic", "triangle-blocked"
    else:
        exec_report = execute(query, instance, emitter,
                              reduce_first=not args.no_reduce)
        shape, algorithm = exec_report.shape, exec_report.algorithm
    measured_io = device.stats.total
    measured_phases = device.phases.report()

    if args.fit_live:
        match = match_fit_class(query, sizes, args.M, args.B)
        if match is None:
            fitted = {"classes": {}}
        else:
            fitted = fitted_document(
                [fit_class(match[0], planner=True)],
                source="repro explain --fit-live")
    else:
        try:
            fitted = load_fitted(args.fitted)
        except (OSError, ValueError) as exc:
            print(f"explain: cannot load fitted constants: {exc}",
                  file=sys.stderr)
            print("explain: generate them with 'repro fit --all "
                  "--write-fitted benchmarks/BENCH_fitted.json' or "
                  "pass --fit-live", file=sys.stderr)
            return 2

    report = explain(query, sizes, args.M, args.B, measured_io,
                     measured_phases, fitted)

    if args.json:
        payload = {"query": args.query,
                   "machine": {"M": args.M, "B": args.B},
                   "sizes": sizes,
                   "shape": shape,
                   "algorithm": algorithm,
                   "results": emitter.count,
                   **report.as_dict()}
        print(json.dumps(payload, indent=2, sort_keys=False))
        return 0

    print(f"shape       : {shape}")
    print(f"algorithm   : {algorithm}")
    print(f"results     : {emitter.count}")
    print(f"measured io : {measured_io} pages")
    p = report.prediction
    if p is None:
        print(f"predicted   : (none) — {report.reason}")
        return 0
    extra = "  [EXTRAPOLATED]" if p.extrapolated else ""
    fm = p.fitted_machine
    print(f"predicted   : {p.io:.1f} pages = {p.constant:.3f} * "
          f"{p.bound_name} (class {p.fit_class}, fitted at "
          f"M={fm.get('M')} B={fm.get('B')}){extra}")
    acc = report.accuracy
    if acc is None:
        print("accuracy    : n/a (predicted 0 pages)")
    else:
        flag = ("" if 0.5 <= acc <= 2.0
                else "  [outside [0.5, 2.0] — model lost touch]")
        print(f"accuracy    : measured/predicted = {acc:.3f}{flag}")
    print(f"{'phase':<18}{'predicted':>12}{'measured':>12}{'ratio':>9}")
    for row in report.phase_rows():
        pred = ("-" if row["predicted"] is None
                else f"{row['predicted']:.1f}")
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{row['phase']:<18}{pred:>12}{row['measured']:>12}"
              f"{ratio:>9}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from repro.analysis.predict import (compare_fitted, fitted_document,
                                        load_fitted, save_fitted)

    classes = sorted(FIT_CLASSES) if args.all else args.classes
    if not classes:
        print("fit: name classes to sweep, or pass --all",
              file=sys.stderr)
        return 2
    unknown = sorted(set(classes) - set(FIT_CLASSES))
    if unknown:
        print(f"fit: unknown class(es) {', '.join(unknown)}; "
              f"available: {', '.join(sorted(FIT_CLASSES))}",
              file=sys.stderr)
        raise SystemExit(2)
    profiler = SpanProfiler() if args.profile else None
    results = []
    for name in classes:
        try:
            results.append(fit_class(name, M=args.M, B=args.B,
                                     points=args.points, eps=args.eps,
                                     profiler=profiler))
        except ValueError as exc:
            print(f"fit: {exc}", file=sys.stderr)
            return 2
    regression = any(r.regression for r in results)

    profile_events = None
    if profiler is not None:
        profile_events = write_chrome_trace(args.profile, profiler)

    # The persisted document models the engine's real execution path
    # (planner + reducer), not the bare algorithms the regression gate
    # sweeps — that is what `repro explain` compares measurements to.
    planner_fits = None
    if args.write_fitted or args.check_fitted:
        planner_fits = [fit_class(name, M=args.M, B=args.B,
                                  points=args.points, eps=args.eps,
                                  planner=True) for name in classes]
    if args.write_fitted:
        save_fitted(args.write_fitted, planner_fits,
                    source="repro fit (planner path)")
    drift: list[str] = []
    if args.check_fitted:
        try:
            committed = load_fitted(args.check_fitted)
        except (OSError, ValueError) as exc:
            print(f"fit: bad fitted document {args.check_fitted}: "
                  f"{exc}", file=sys.stderr)
            return 2
        drift = compare_fitted(
            committed,
            fitted_document(planner_fits,
                            source="repro fit (planner path)"))

    if args.json:
        payload = {"fits": [r.as_dict() for r in results],
                   "regression": regression}
        if args.profile:
            payload["profile"] = {"path": args.profile,
                                  "events": profile_events}
        if args.write_fitted:
            payload["fitted_path"] = args.write_fitted
        if args.check_fitted:
            payload["fitted_drift"] = drift
        print(json.dumps(payload, indent=2, sort_keys=False))
        return 1 if regression or drift else 0

    for r in results:
        flag = "REGRESSION" if r.regression else "ok"
        print(f"{r.name}: io ~= {r.constant:.3f} * {r.bound_name}  "
              f"[{flag}]")
        print(f"  slope={r.slope:.3f} (eps={r.eps}) "
              f"intercept={r.intercept:.3f} r2={r.r2:.4f}")
        shares = ", ".join(f"{t}={s:.2f}" for t, s in
                           sorted(r.term_shares.items()))
        print(f"  terms: {shares}  dominant={r.dominant_term}")
        for p in r.points:
            print(f"    n={p.n:<6} M={p.M:<4} B={p.B:<3} "
                  f"io={p.io:<8} bound={p.bound:<10.1f} "
                  f"ratio={p.ratio:.3f}")
    if profiler is not None:
        print(f"profile: {profile_events} spans to {args.profile}")
    if args.write_fitted:
        print(f"fitted: wrote {len(results)} class(es) to "
              f"{args.write_fitted}")
    for line in drift:
        print(f"fitted drift: {line}")
    if args.check_fitted and not drift:
        print(f"fitted: {len(results)} class(es) match "
              f"{args.check_fitted}")
    if regression:
        print("complexity regression detected (slope exceeds 1+eps)")
    return 1 if regression or drift else 0


def cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so `repro run` and friends never pay for the
    # service layer (HTTP plumbing, sessions, the shared pool).
    from repro.analysis.predict import load_fitted
    from repro.server import QueryService, Quota, make_server

    tables: dict[str, str] = {}
    for spec in args.table or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(f"serve: bad --table {spec!r}; expected NAME=PATH",
                  file=sys.stderr)
            return 2
        tables[name] = path

    default_quota = None
    if args.default_quota is not None:
        try:
            default_quota = Quota(float(args.default_quota))
        except ValueError as exc:
            print(f"serve: bad --default-quota "
                  f"{args.default_quota!r}: {exc}", file=sys.stderr)
            return 2
    quotas: dict[str, Quota] = {}
    for spec in args.quota:
        owner, sep, share = spec.partition("=")
        try:
            if not sep or not owner or not share:
                raise ValueError("expected OWNER=SHARE")
            quotas[owner] = Quota(float(share))
        except ValueError as exc:
            print(f"serve: bad --quota {spec!r}: {exc}",
                  file=sys.stderr)
            return 2

    fitted = None
    if args.fitted:
        try:
            fitted = load_fitted(args.fitted)
        except (OSError, ValueError) as exc:
            print(f"serve: bad --fitted {args.fitted}: {exc}",
                  file=sys.stderr)
            return 2

    svc = None
    try:
        svc = QueryService(
            M=args.M, B=args.B, pool_frames=args.pool_frames,
            pool_policy=args.pool_policy,
            flight_records=args.flight_records,
            slow_query_ms=args.slow_query_ms,
            default_quota=default_quota, fitted=fitted)
        for owner, quota in quotas.items():
            svc.set_quota(owner, max_share=quota.max_share)
        if tables:
            svc.load_tables(args.instance, tables)
            print(f"serve: loaded {len(tables)} table(s) into instance "
                  f"{args.instance!r}")
        server = make_server(svc, args.host, args.port)
    except (OSError, ValueError, KeyError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        if svc is not None:
            svc.close()
        return 2
    pool = (f"pool={args.pool_frames} frames ({args.pool_policy})"
            if args.pool_frames else "pool=off")
    print(f"serve: listening on http://{args.host}:{server.server_port} "
          f"(M={args.M}, B={args.B}, {pool})")
    print("serve: routes: GET /metrics /healthz /stats /catalog "
          "/debug/queries[/<id>], POST /query[?explain=1] — "
          "Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("serve: shutting down")
    finally:
        server.server_close()
        svc.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "explain":
        return cmd_explain(args)
    if args.command == "fit":
        return cmd_fit(args)
    if args.command == "serve":
        return cmd_serve(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
