#!/usr/bin/env python3
"""Service throughput: the long-lived engine vs one-shot runs.

The service layer (``repro.server``) exists to amortize what a solo
``repro run`` pays per query: CSV parsing, instance materialization,
and — with the shared pool on — the base relations' physical reads.
The service owns one device per ``(M, B)`` machine and one
materialized copy per instance and machine, whatever the session.
This benchmark quantifies that on the Figure-3 line-3 workload
(``n1 = n3 = 16``, per-query machine ``M=8, B=2`` — the pinned
``line3_planner`` class of ``BENCH_table1.json``):

* **serial**: the CLI model.  Every query builds a fresh
  :class:`QueryService`, loads the CSVs, runs one-shot, and tears
  down.
* **service**: one engine, 48 queries run in order on one persistent
  session, shared pool off and on.

Reported per configuration: queries/sec and per-query wall p50/p99
(informational — they move with the host) plus the model-level
counters, which are *deterministic* and pinned in
``BENCH_service.json``:

* pool off: every query costs exactly the solo-run 171 I/Os and 256
  results — the byte-identity guarantee;
* ``materializations``: the instance is materialized once for the
  whole service, against once per query in the serial model;
* pool on: the 17 base-relation pages miss exactly once service-wide,
  every other logical read hits, each query writes back its own 62
  intermediate pages, and nothing is evicted (frames are keyed by
  shared labels);
* flight recorder on (the default) vs off: identical counters — the
  recorder observes lifecycle records, it never charges the device.

CI gate (``--check-baseline``): the deterministic counters match the
committed baseline exactly, and the amortization gate holds on them
(:func:`amortization_gate`): one materialization service-wide against
one per serial query, and the pooled service's base-page misses over
all 48 queries equal to one serial pool-on query's.  Wall clock is
reported, never gated: it moves with the host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.query import line_query  # noqa: E402
from repro.server import QueryService  # noqa: E402
from repro.workloads import fig3_line3_instance  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "BENCH_service.json"

N_QUERIES = 48
QUERY_M, QUERY_B = 8, 2  # the pinned line3_planner machine
GLOBAL_M = 256
POOL_FRAMES = 4096  # roomy: no evictions, so counters stay exact
#: Timing rounds per configuration; the best round is reported (the
#: deterministic counters must agree across rounds, and do).
REPEATS = 3


def _dataset():
    return fig3_line3_instance(16, 16)


def _write_csvs(tmpdir: Path) -> dict[str, str]:
    """The workload as CSV files (what the serial model re-parses)."""
    schemas, data = _dataset()
    tables = {}
    for rel, attrs in schemas.items():
        path = tmpdir / f"{rel}.csv"
        lines = [",".join(attrs)]
        lines += [",".join(str(v) for v in t) for t in data[rel]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tables[rel] = str(path)
    return tables


def _percentiles(walls_ms: list[float]) -> tuple[float, float]:
    qs = statistics.quantiles(walls_ms, n=100, method="inclusive")
    return qs[49], qs[98]  # p50, p99


def _timing_row(label: str, wall_s: float,
                walls_ms: list[float]) -> dict:
    p50, p99 = _percentiles(walls_ms)
    return {"config": label, "qps": round(N_QUERIES / wall_s, 1),
            "p50_ms": round(p50, 3), "p99_ms": round(p99, 3)}


def run_serial(tables: dict[str, str], pool: bool) -> tuple[dict, dict]:
    """The one-shot model: fresh engine + CSV load per query.

    With ``pool=True`` every query also rebuilds the (cold) shared
    pool, so each one re-faults the base pages the long-lived service
    faults exactly once — the serial leg of the amortization gate.
    """
    q = line_query(3)
    walls, io_totals, results, misses = [], set(), set(), set()
    materializations = 0
    t0 = time.perf_counter()
    for _ in range(N_QUERIES):
        svc = QueryService(M=GLOBAL_M, B=QUERY_B,
                           pool_frames=POOL_FRAMES if pool else 0)
        try:
            svc.load_tables("default", tables)
            r = svc.execute(q, M=QUERY_M)
            materializations += _materializations(svc)
        finally:
            svc.close()
        walls.append(r.wall_s * 1e3)
        io_totals.add(r.io["total"])
        results.add(r.results)
        if pool:
            misses.add(r.cache["misses"])
    wall = time.perf_counter() - t0
    det = {"materializations": materializations,
           "per_query_io_totals": sorted(io_totals),
           "per_query_results": sorted(results)}
    if pool:
        det["per_query_misses"] = sorted(misses)
    label = f"serial one-shot pool={'on' if pool else 'off'}"
    return det, _timing_row(label, wall, walls)


def run_service(tables: dict[str, str], pool: bool,
                flight: bool = True) -> tuple[dict, dict]:
    """One engine, N_QUERIES queries on one persistent session.

    ``flight=False`` switches the query flight recorder off — the
    recorder is an observer, so its setting must not move a counter.
    """
    q = line_query(3)
    svc = QueryService(M=GLOBAL_M, B=QUERY_B, default_query_M=QUERY_M,
                       pool_frames=POOL_FRAMES if pool else 0,
                       flight_records=256 if flight else 0)
    try:
        svc.load_tables("default", tables)
        session = svc.session("bench")
        t0 = time.perf_counter()
        rs = [session.execute(q) for _ in range(N_QUERIES)]
        wall = time.perf_counter() - t0
        materializations = _materializations(svc)
    finally:
        svc.close()
    walls = [r.wall_s * 1e3 for r in rs]
    det: dict = {"materializations": materializations,
                 "per_query_results": sorted({r.results for r in rs})}
    if pool:
        agg = {k: sum(r.cache[k] for r in rs)
               for k in ("hits", "misses", "evictions", "writebacks")}
        det["cache_aggregate"] = agg
        det["io_total"] = sum(r.io["total"] for r in rs)
    else:
        det["per_query_io_totals"] = sorted({r.io["total"] for r in rs})
    label = f"service pool={'on' if pool else 'off'}"
    if not flight:
        label += " flight=off"
    return det, _timing_row(label, wall, walls)


def _materializations(svc: QueryService) -> int:
    """How often ``svc`` materialized an instance onto a device."""
    return svc.metrics.counter("service.materializations").value


def measure() -> dict:
    """All configurations; deterministic counters + timing rows."""
    def best(fn, *args):
        """Best-of-REPEATS wall clock; counters must not move."""
        runs = [fn(*args) for _ in range(REPEATS)]
        det = runs[0][0]
        assert all(d == det for d, _ in runs), runs
        return det, max((row for _, row in runs),
                        key=lambda row: row["qps"])

    with tempfile.TemporaryDirectory() as td:
        tables = _write_csvs(Path(td))
        serial_det, serial_t = best(run_serial, tables, False)
        serial_pool_det, serial_pool_t = best(run_serial, tables, True)
        pool_off, pool_off_t = best(run_service, tables, False)
        pool_on, pool_on_t = best(run_service, tables, True)
        # Flight-recorder identity leg: same configuration with the
        # recorder off must reproduce the recorder-on counters exactly.
        flight_off_det, flight_off_t = best(
            run_service, tables, False, False)
        timings = [serial_t, serial_pool_t, pool_off_t, pool_on_t,
                   flight_off_t]
    assert flight_off_det == pool_off, (
        "flight recorder moved the deterministic counters",
        flight_off_det, pool_off)
    return {
        "deterministic": {
            "machine": {"M": QUERY_M, "B": QUERY_B,
                        "global_M": GLOBAL_M,
                        "pool_frames": POOL_FRAMES},
            "n_queries": N_QUERIES,
            "serial": serial_det,
            "serial_pool_on": serial_pool_det,
            "service_pool_off": pool_off,
            "service_pool_on": pool_on,
        },
        "informational": {"timings": timings},
    }


def amortization_gate(doc: dict) -> list[tuple[str, int, int, bool]]:
    """``(check, service, serial, passed)`` rows over the deterministic
    counters of the pool-on legs: what the long-lived service amortizes
    that the serial model pays per query.

    * materializations: 1 service-wide vs the serial model's total, one
      per query;
    * base-page misses: the service's over all queries vs one serial
      query's (every serial query faults the base pages in cold).
    """
    det = doc["deterministic"]
    serial, pooled = det["serial_pool_on"], det["service_pool_on"]
    n = det["n_queries"]
    once = serial["per_query_misses"]
    return [
        ("materializations", pooled["materializations"],
         serial["materializations"],
         pooled["materializations"] == 1
         and serial["materializations"] == n),
        ("base-page misses", pooled["cache_aggregate"]["misses"],
         once[0],
         len(once) == 1 and pooled["cache_aggregate"]["misses"]
         == once[0] > 0),
    ]


def print_report(doc: dict) -> None:
    print("service throughput (line3, M=8 B=2 per query, "
          f"{N_QUERIES} queries):")
    for r in doc["informational"]["timings"]:
        print(f"  {r['config']:<28} {r['qps']:>8} qps   "
              f"p50 {r['p50_ms']:.2f} ms   p99 {r['p99_ms']:.2f} ms")
    det = doc["deterministic"]
    print(f"  pool-off per-query io: "
          f"{det['service_pool_off']['per_query_io_totals']} "
          f"(solo-run identical)")
    print(f"  pool-on aggregate cache: "
          f"{det['service_pool_on']['cache_aggregate']}")
    for check, pooled, serial, ok in amortization_gate(doc):
        print(f"  amortization gate, {check}: service {pooled} vs "
              f"serial {serial} -> {'PASS' if ok else 'FAIL'}")


def write_baseline(path: Path, doc: dict) -> int:
    pinned = {
        "meta": {"source": "benchmarks/bench_service_throughput.py "
                           "--write-baseline",
                 "workload": "fig3 line3 n1=n3=16, line_query(3)"},
        "deterministic": doc["deterministic"],
        "informational": doc["informational"],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote service baseline to {path}")
    return 0


def check_baseline(path: Path, doc: dict) -> int:
    if not path.exists():
        print(f"error: no committed baseline at {path}; create one "
              f"with --write-baseline", file=sys.stderr)
        return 1
    committed = json.loads(path.read_text(encoding="utf-8"))
    drift = _diff(committed["deterministic"], doc["deterministic"])
    if drift:
        print(f"SERVICE BASELINE DRIFT against {path} "
              f"({len(drift)} difference(s)):")
        for line in drift:
            print(f"  {line}")
        print("If the change is intentional, regenerate with "
              "--write-baseline and commit the result.")
    else:
        print(f"service baseline OK: deterministic counters match {path}")
    failed = [row for row in amortization_gate(doc) if not row[3]]
    for check, pooled, serial, _ in failed:
        print(f"AMORTIZATION GATE FAILED: {check}: service {pooled} "
              f"vs serial {serial}")
    if drift or failed:
        return 1
    print("amortization gate OK")
    return 0


def _diff(want, got, prefix="deterministic") -> list[str]:
    out: list[str] = []
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            if k not in want:
                out.append(f"{prefix}.{k}: unexpected (not pinned)")
            elif k not in got:
                out.append(f"{prefix}.{k}: missing from measurement")
            else:
                out.extend(_diff(want[k], got[k], f"{prefix}.{k}"))
    elif want != got:
        out.append(f"{prefix}: pinned {want!r}, measured {got!r}")
    return out


def test_service_throughput(benchmark, capsys):
    doc = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print_report(doc)
    det = doc["deterministic"]
    # Byte-identity: every query through the service costs the solo run.
    assert det["service_pool_off"]["per_query_io_totals"] == [171]
    assert det["serial"]["per_query_io_totals"] == [171]
    assert det["service_pool_on"]["cache_aggregate"]["evictions"] == 0
    assert all(ok for *_, ok in amortization_gate(doc))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Service-layer throughput benchmark and its "
                    "deterministic-counter baseline.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write-baseline", action="store_true",
                      help="measure and (re)write BENCH_service.json")
    mode.add_argument("--check-baseline", action="store_true",
                      help="re-measure; exit 1 on counter drift or a "
                           "failed amortization gate (materializations "
                           "and base-page misses, service vs serial)")
    parser.add_argument("--baseline-path", type=Path,
                        default=BASELINE_PATH, metavar="PATH")
    args = parser.parse_args(argv)
    doc = measure()
    if args.write_baseline:
        return write_baseline(args.baseline_path, doc)
    if args.check_baseline:
        print_report(doc)
        return check_baseline(args.baseline_path, doc)
    print_report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
