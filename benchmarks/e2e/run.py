#!/usr/bin/env python3
"""The end-to-end benchmark: four workloads, every metric, one command.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload star_emit --seed 1 \\
        --seconds 20 --trace 0

``--workload`` may be repeated (the default runs all four, each in its
own process).  ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` spends a third of the time untraced and two thirds with the layer
wrappers of ``tracing.py`` installed, and prints the per-layer
metrics.  ``--out FILE`` appends the full run record (raw values,
probe statistics, sample counts, host) to ``FILE``; ``--spans FILE``
stores the traced spans.  Compare two sets of records with::

    python3 benchmarks/e2e/run.py compare A.json B.json

Every query is checked against an oracle computed at set-up; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 1 when a
check failed.  See README.md for the metrics and why each workload
exists.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    print(f"error: {ROOT / 'src' / 'repro'} not found; run from a "
          f"checkout of the repository", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from tracing import Tracer, per_query  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS_IN_PROCESS = 5
SETUPS_HTTP = 3
#: Traced self time must add up to the traced latency within this share.
SELF_TIME_TOLERANCE = 0.05


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- measuring -------------------------------------------------------------


def timed_setup(start, probes: list[float]):
    """Run ``start()`` between two probes: (result, raw s, factor)."""
    p0 = wl.probe()
    t0 = time.perf_counter()
    result = start()
    raw = time.perf_counter() - t0
    p1 = wl.probe()
    probes += [p0, p1]
    return result, raw, wl.REF_PROBE_S / ((p0 + p1) / 2)


def closed_loop(w, seconds: float, checker, probes: list[float],
                tracer=None) -> list[tuple]:
    """One client, one query at a time, for ``seconds``.  Each sample
    is ``(raw s, cpu s, factor, outcome or None)``; the factor comes
    from one probe right before and one right after the query."""
    samples = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        arg = w.prepare(i)
        p0 = wl.probe()
        if tracer is not None:
            tracer.qid = i
        out, error = None, None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = w.query(arg)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            error = repr(exc)
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.qid = None
        p1 = wl.probe()
        probes += [p0, p1]
        checker.check(out, *w.expected(i), error)
        samples.append((t1 - t0, c1 - c0,
                        wl.REF_PROBE_S / ((p0 + p1) / 2), out))
        i += 1
    return samples


def latency_values(ms: list[float]) -> dict:
    return {"latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": quantile(ms, 90)}


def loop_values(samples: list[tuple], calibrated: bool) -> dict:
    """qps, latency percentiles and CPU per query of a closed loop."""
    lat = [raw * (f if calibrated else 1) for raw, _, f, _ in samples]
    cpu = [c * (f if calibrated else 1) for _, c, f, _ in samples]
    return {"qps": len(lat) / sum(lat),
            **latency_values([x * 1e3 for x in lat]),
            "cpu_ms_per_query": sum(cpu) / len(cpu) * 1e3}


def pool_values(outs: list) -> dict:
    """The pool's hit rate, evictions and write-backs per query, and
    the admission wait, from the service's own replies."""
    caches = [o.cache for o in outs if o is not None and o.cache]
    hits = sum(c["hits"] for c in caches)
    logical = hits + sum(c["misses"] for c in caches)
    n = max(1, len(outs))
    return {"em.pool.hit_rate": hits / logical if logical else 0.0,
            "em.pool.evictions": sum(c["evictions"] for c in caches) / n,
            "em.pool.writebacks": sum(c["writebacks"] for c in caches) / n,
            "server.admission.wait_ms": sum(
                o.wait_ms for o in outs if o is not None) / n}


def reconcile(summary: dict, outs: list, latency_s: float) -> dict:
    """The two trace checks: per-layer I/O adds up exactly to the
    device's logical charges, per-layer self time to the latency."""
    expected_io = sum(o.logical for o in outs if o is not None)
    self_s = summary["timed_self_s"]
    return {"io_layers": summary["timed_io"], "io_device": expected_io,
            "io_outside_spans": summary["loose_io"],
            "io_ok": (summary["timed_io"] == expected_io
                      and summary["loose_io"] == 0),
            "self_ms": self_s * 1e3, "latency_ms": latency_s * 1e3,
            "self_ok": abs(self_s - latency_s)
            <= SELF_TIME_TOLERANCE * latency_s}


def run_in_process(w, seconds: float, trace: bool, checker,
                   probes: list[float]) -> dict:
    setups = [timed_setup(lambda: w.setup(checker), probes)[1:]
              for _ in range(1 if trace else SETUPS_IN_PROCESS)]
    if not trace:
        samples = closed_loop(w, seconds, checker, probes)
        values = loop_values(samples, True)
        raw = loop_values(samples, False)
        values["setup_s"] = statistics.median(r * f for r, f in setups)
        raw["setup_s"] = statistics.median(r for r, _ in setups)
        values["io_per_query"] = w.io_per_query()
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"n": len(samples), "values": values, "raw": raw}

    base = closed_loop(w, seconds / 3, checker, probes)
    tracer = Tracer()
    tracer.install()
    try:
        samples = closed_loop(w, seconds * 2 / 3, checker, probes, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    outs = [s[3] for s in samples]
    factor = statistics.median(s[2] for s in samples)
    values = per_query(summary, len(samples), factor)
    values.update(pool_values(outs))
    values["server.http.overhead_ms"] = 0.0
    values["tracing.overhead_pct"] = 100 * (
        loop_values(base, True)["qps"] / loop_values(samples, True)["qps"]
        - 1)
    return {"n": len(samples), "values": values, "summary": summary,
            "reconcile": reconcile(summary, outs,
                                   sum(s[0] for s in samples))}


def http_values(requests: list[tuple], probes: list[tuple], start: float,
                seconds: float, calibrated: bool) -> dict:
    """Medians over 1 s windows of qps, latency percentiles and server
    CPU per query.  Each window is scaled by the median probe of itself
    and its two neighbours, so a noisy second moves one window, not
    the result.  The server's CPU is read at every probe; a window's
    share runs from the previous window's last probe to its own."""
    n_win = max(1, int(seconds))
    width = seconds / n_win

    def window(t: float) -> int:
        return min(n_win - 1, int((t - start) / width))

    probe_w: list[list] = [[] for _ in range(n_win)]
    for pr in probes:
        probe_w[window(pr[0])].append(pr)
    lat_w: list[list] = [[] for _ in range(n_win)]
    for end, lat_s, out in requests:
        if end < start + seconds:
            lat_w[window(end)].append((lat_s, out))
    ends = sorted(end for end, _, _ in requests)
    rows, pooled, over = [], [], []
    last = probes[0]
    for k in range(n_win):
        near = ([p for ps in probe_w[max(0, k - 1):k + 2] for _, p, _ in ps]
                or [p for _, p, _ in probes])
        f = wl.REF_PROBE_S / statistics.median(near) if calibrated else 1.0
        ms = [lat_s * 1e3 * f for lat_s, _ in lat_w[k]]
        pooled += ms
        over += [(lat_s * 1e3 - out.wall_ms) * f
                 for lat_s, out in lat_w[k] if out is not None]
        row = {"qps": len(ms) / width / f, "factor": f}
        if ms:
            row.update(latency_values(ms))
        if probe_w[k]:
            now = probe_w[k][-1]
            served = bisect.bisect_left(ends, now[0]) - bisect.bisect_left(
                ends, last[0])
            if served:
                row["cpu_ms_per_query"] = (now[2] - last[2]) * 1e3 \
                    / served * f
            last = now
        rows.append(row)
    out = {key: statistics.median([r[key] for r in rows if key in r]
                                  or [0.0])
           for key in ("qps", "latency_p50_ms", "latency_p90_ms",
                       "cpu_ms_per_query", "factor")}
    if len(pooled) >= 1000:  # ten samples beyond it
        out["latency_p99_ms"] = quantile(pooled, 99)
    out["server.http.overhead_ms"] = statistics.median(over or [0.0])
    return out


def run_http(w, seconds: float, trace: bool, checker, probes: list[float],
             workdir: Path) -> dict:
    # The clients on one core, the server (see workloads.Server) on
    # another: the same placement on every run.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[0]})
    if not trace:
        setups = []
        for k in range(SETUPS_HTTP):
            (server, _), raw_s, f = timed_setup(lambda: w.start(checker),
                                                probes)
            setups.append((raw_s, f))
            if k < SETUPS_HTTP - 1:
                server.stop()
        try:
            requests, load_probes, start = w.load(server, seconds, checker)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        probes += [p for _, p, _ in load_probes]
        values = http_values(requests, load_probes, start, seconds, True)
        raw = http_values(requests, load_probes, start, seconds, False)
        del values["factor"], raw["factor"]
        values["setup_s"] = statistics.median(r * f for r, f in setups)
        raw["setup_s"] = statistics.median(r for r, _ in setups)
        values["io_per_query"] = float(w.io)
        values["peak_rss_mb"] = rss
        return {"n": len(requests), "values": values, "raw": raw}

    server, _ = w.start(checker)
    try:
        base = w.load(server, seconds / 3, checker)
    finally:
        server.stop()
    spans_path = workdir / "server-spans.json"
    server, warm = w.start(checker, spans_path)
    try:
        requests, load_probes, start = w.load(server, seconds * 2 / 3,
                                              checker)
    finally:
        rc = server.stop()
    if rc != 0:
        raise RuntimeError(f"traced server exited with {rc}:\n"
                           + "".join(server.output))
    probes += [p for _, p, _ in base[1] + load_probes]
    summary = json.loads(spans_path.read_text(encoding="utf-8"))
    traced = http_values(requests, load_probes, start, seconds * 2 / 3,
                         True)
    outs = warm + [out for _, _, out in requests]
    values = per_query(summary, len(outs), traced["factor"])
    values.update(pool_values(outs))
    values["server.http.overhead_ms"] = traced["server.http.overhead_ms"]
    values["tracing.overhead_pct"] = 100 * (
        http_values(*base, seconds / 3, True)["qps"] / traced["qps"] - 1)
    # Server-side spans cannot see the client or the socket, so self
    # time is checked against the server's own request spans.
    return {"n": len(requests), "values": values, "summary": summary,
            "reconcile": reconcile(summary, outs, summary["root_s"])}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    checker = wl.Checker()
    probes: list[float] = []
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as td:
        w = wl.make(name, seed, Path(td))
        try:
            if name == "http_small":
                rec = run_http(w, seconds, trace, checker, probes, Path(td))
            else:
                rec = run_in_process(w, seconds, trace, checker, probes)
        finally:
            if isinstance(w, wl.PoolEvict):
                w.close()
    ok = checker.failed == 0 and checker.attempted > 0
    if trace:
        ok = ok and rec["reconcile"]["io_ok"] and rec["reconcile"]["self_ok"]
    rec.update({
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": ok,
        "attempted": checker.attempted, "failed": checker.failed,
        "errors": checker.errors,
        "meta": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "ref_probe_s": wl.REF_PROBE_S,
                 "probe_s": {"median": statistics.median(probes),
                             "min": min(probes), "max": max(probes),
                             "n": len(probes)}}})
    return rec


# -- reporting -------------------------------------------------------------


def result_line(rec: dict, spec: dict) -> dict:
    wanted = spec["per_layer" if rec["trace"] else "end_to_end"]
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {m["name"]: {"value": rec["values"][m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def report(rec: dict, spec: dict) -> None:
    meta = rec["meta"]
    probe = meta["probe_s"]
    print(f"{rec['workload']}: seed {rec['seed']}, n {rec['n']}, "
          f"{rec['attempted']} attempted, {rec['failed']} failed, "
          f"nproc {meta['nproc']}, python {meta['python']}")
    print(f"  probe median {probe['median'] * 1e3:.3f} ms (min "
          f"{probe['min'] * 1e3:.3f}, max {probe['max'] * 1e3:.3f}, "
          f"ref {meta['ref_probe_s'] * 1e3:.3f})")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    raw = rec.get("raw", {})
    for name, value in rec["values"].items():
        extra = f"   raw.{name} {raw[name]:.4f}" if name in raw else ""
        print(f"  {name:<28} {value:>12.4f} {units.get(name, ''):<6}"
              f"{extra}")
    if "reconcile" in rec:
        print(f"  reconcile: {json.dumps(rec['reconcile'])}")
    for error in rec["errors"]:
        print(f"  failure: {error}")


def append_json(path: Path, key: str, item, by: str | None = None) -> None:
    """Add ``item`` to the list (or, with ``by``, the map) at ``key``."""
    doc = (json.loads(path.read_text(encoding="utf-8"))
           if path.exists() else {})
    if by is None:
        doc.setdefault(key, []).append(item)
    else:
        doc.setdefault(key, {})[by] = item
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# -- compare ---------------------------------------------------------------


def compare(path_a: Path, path_b: Path) -> int:
    """One row per workload: ``ok``, ``worse`` or ``unresolved``.

    ``worse``: B's median is worse than A's by more than the metric's
    bound.  ``unresolved``: A's own inter-quartile spread is wider
    than the bound (unless every B run beats every A run).  Count
    drift — ``io_per_query`` differing on a seed both sets ran, or any
    failed query — exits 1 like ``worse``.
    """
    spec = load_spec()
    sets = [[r for r in json.loads(p.read_text(encoding="utf-8"))["runs"]
             if not r["trace"]] for p in (path_a, path_b)]
    names = sorted({r["workload"] for runs in sets for r in runs})
    status = 0
    for name in names:
        a, b = ([r for r in runs if r["workload"] == name] for runs in sets)
        if not a or not b:
            print(f"{name:<12} missing   (runs: A {len(a)}, B {len(b)})")
            status = 1
            continue
        notes, verdicts = [], []
        drift = [r["seed"] for r in a + b if r["failed"] or not r["correct"]]
        io_a = {r["seed"]: r["values"]["io_per_query"] for r in a}
        drift += [r["seed"] for r in b if r["seed"] in io_a
                  and r["values"]["io_per_query"] != io_a[r["seed"]]]
        for m in spec["end_to_end"]:
            va = [r["values"][m["name"]] for r in a]
            vb = [r["values"][m["name"]] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            worse_by = change if m["better"] == "lower" else -change
            if m["better"] == "lower":
                b_wins = max(vb) < min(va)
            else:
                b_wins = min(vb) > max(va)
            if spread(va) > m["bound"] and not b_wins:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            verdicts.append(verdict)
            notes.append(f"{m['name']} {change:+.1%} "
                         f"(spread A {spread(va):.1%} B {spread(vb):.1%}, "
                         f"bound {m['bound']:.0%}) {verdict}")
        row = ("worse" if "worse" in verdicts else
               "unresolved" if "unresolved" in verdicts else "ok")
        if drift:
            row += f", count drift on seeds {sorted(set(drift))}"
        if drift or row.startswith("worse"):
            status = 1
        print(f"{name:<12} {row}   (runs: A {len(a)}, B {len(b)})")
        for note in notes:
            print(f"    {note}")
    return status


# -- entry point -----------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=wl.WORKLOADS, metavar="NAME",
                        help="star_emit, reduce_sort, http_small or "
                             "pool_evict (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured load per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append the full run record to this file")
    parser.add_argument("--spans", type=Path,
                        help="with --trace 1, store the spans here")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(Path(argv[1]), Path(argv[2]))
    args = parse_args(argv)
    spec = load_spec()
    names = args.workload or list(wl.WORKLOADS)
    if len(names) > 1:
        return run_each(names, args)
    rec = run_workload(names[0], args.seed, args.seconds, bool(args.trace))
    report(rec, spec)
    if args.spans is not None and "summary" in rec:
        summary = rec["summary"]
        append_json(args.spans, "workloads",
                    {"seed": args.seed, "fields": summary["span_fields"],
                     "spans": summary["spans"],
                     "layers": summary["layers"]}, by=names[0])
    if args.out is not None:
        append_json(args.out, "runs",
                    {k: v for k, v in rec.items() if k != "summary"})
    print(json.dumps(result_line(rec, spec)))
    return 0 if rec["correct"] else 1


def run_each(names: list[str], args: argparse.Namespace) -> int:
    """Each workload in its own process (so peak RSS is its own);
    the last line sums them up, metrics keyed ``workload.metric``."""
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    for flag, path in (("--out", args.out), ("--spans", args.spans)):
        if path is not None:
            common += [flag, str(path)]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run([sys.executable, str(Path(__file__)),
                               "--workload", name, *common],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stdout, file=sys.stderr)
            return proc.returncode or 1
        total["correct"] = total["correct"] and line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
