#!/usr/bin/env python3
"""CI smoke test for ``repro serve``: the real process, real sockets.

The in-process service tests (``tests/test_server.py``) cover the
engine; this script covers the last mile CI cannot see from there —
the console entry point, argument parsing, the banner, and the HTTP
surface under concurrent clients (served one request at a time):

1. write a small line-3 dataset as CSVs;
2. start ``python -m repro serve --port 0`` as a subprocess and read
   the bound port off the banner;
3. fire concurrent ``POST /query`` requests (mixed sticky sessions and
   one-shots) and check every response;
4. scrape ``/metrics`` and assert the service counters saw the
   queries, and ``/healthz`` reports live;
5. check the flight recorder: one record per query, and the record
   fetched by id is the query's own ``POST`` reply;
6. send one query as a tenant whose ``--quota`` share is too small for
   it, expect a typed 422 and find it recorded as ``rejected``;
7. send one query over an unknown relation, expect a 400 and find it
   recorded as ``error``;
8. check the ``/stats`` pool section, and that sticky and one-shot
   queries alike ran on one device and one materialized copy of the
   one instance; then shut the process down and fail on a non-clean
   exit.

Exit status 0 on success; any assertion or timeout fails the job.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

N_CLIENTS = 8
QUERIES_PER_CLIENT = 6


def write_dataset(tmpdir: Path) -> list[str]:
    sys.path.insert(0, str(Path(__file__).parent))
    from bench_service_throughput import _write_csvs

    tables = _write_csvs(tmpdir)
    args = []
    for rel, path in sorted(tables.items()):
        args += ["--table", f"{rel}={path}"]
    return args


def start_server(table_args: list[str]) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "-M", "256", "-B", "2", "--pool-frames", "2048",
         # 0.01 of the 256-tuple budget is below one query's need.
         "--quota", "smoke-tenant=0.01", *table_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise AssertionError("serve exited before binding")
        print(f"serve> {line.rstrip()}")
        m = re.search(r"http://[\d.]+:(\d+)", line)
        if m:
            return proc, int(m.group(1))
    raise AssertionError("serve never printed its listening banner")


def post_query(base: str, client: int, i: int, **extra) -> dict:
    body = {"query": "e1(v1,v2), e2(v2,v3), e3(v3,v4)",
            "M": 8, "B": 2, **extra}
    if client % 2 == 0:  # half the clients keep a sticky session
        body["session"] = f"smoke-{client}"
    req = urllib.request.Request(
        f"{base}/query", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        assert resp.status == 200, resp.status
        return json.load(resp)


def main() -> int:
    with tempfile.TemporaryDirectory() as td:
        table_args = write_dataset(Path(td))
        proc, port = start_server(table_args)
        base = f"http://127.0.0.1:{port}"
        try:
            errors: list[BaseException] = []
            io_totals: list[int] = []
            replies: dict[int, dict] = {}  # flight_id -> POST reply

            def client(c: int) -> None:
                try:
                    for i in range(QUERIES_PER_CLIENT):
                        doc = post_query(base, c, i)
                        assert doc["results"] == 256, doc["results"]
                        # Warm queries cost their 62 intermediate
                        # writes; whoever faults base pages pays up to
                        # 17 more.  (Which query pays is a race; the
                        # sum is not.)
                        assert 62 <= doc["io"]["total"] <= 79, doc
                        io_totals.append(doc["io"]["total"])
                        replies[doc["flight_id"]] = doc
                except BaseException as exc:  # noqa: BLE001 - reported
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(N_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]
            total = N_CLIENTS * QUERIES_PER_CLIENT
            # Schedule-independent: 62 writebacks per query, plus the
            # 17 base pages faulted exactly once service-wide.
            assert sum(io_totals) == total * 62 + 17, sum(io_totals)

            with urllib.request.urlopen(f"{base}/metrics",
                                        timeout=10) as resp:
                metrics = resp.read().decode("utf-8")
            m = re.search(r"^repro_service_queries(?:_total)?\s+(\d+)",
                          metrics, re.MULTILINE)
            assert m, "no repro_service_queries in /metrics"
            assert int(m.group(1)) == total, (m.group(1), total)

            # The flight recorder must have seen every query — no
            # drops, no double counting — and still store them all
            # (default capacity 256 > the barrage).
            with urllib.request.urlopen(f"{base}/debug/queries?n={total}",
                                        timeout=10) as resp:
                flight = json.load(resp)
            assert flight["seen"] == total, (flight["seen"], total)
            assert flight["stored"] == total and \
                flight["overwritten"] == 0, flight
            assert flight["returned"] == len(flight["records"]) == total
            assert all(r["status"] == "ok" for r in flight["records"])
            assert sum(r["io_total"] for r in flight["records"]) == \
                sum(io_totals)

            # One record fetched by id round-trips the full lifecycle.
            newest = flight["records"][0]
            with urllib.request.urlopen(
                    f"{base}/debug/queries/{newest['id']}",
                    timeout=10) as resp:
                full = json.load(resp)
            assert full["admission"]["outcome"] == "granted"
            assert full["io"]["total"] == newest["io_total"]
            # ...and it is the very document the POST replied with.
            reply = replies[newest["id"]]
            for key in ("io", "phases", "admission", "wall_ms"):
                assert full[key] == reply[key], (key, full, reply)

            # The tenant's share cannot hold the query's need: a typed
            # 422, never a retryable status.
            try:
                post_query(base, 1, 0, tenant="smoke-tenant")
            except urllib.error.HTTPError as exc:
                assert exc.code == 422, exc.code
                assert json.load(exc)["kind"] == "rejected"
            else:
                raise AssertionError("over-quota tenant was admitted")
            with urllib.request.urlopen(f"{base}/debug/queries?n=1",
                                        timeout=10) as resp:
                (rejected,) = json.load(resp)["records"]
            assert rejected["status"] == "rejected", rejected
            assert rejected["owner"] == "smoke-tenant", rejected

            # A query the catalog cannot serve fails before admission:
            # a 400, still recorded.
            try:
                post_query(base, 1, 0, query="e9(v1,v2)")
            except urllib.error.HTTPError as exc:
                assert exc.code == 400, exc.code
            else:
                raise AssertionError("unknown relation was served")
            with urllib.request.urlopen(f"{base}/debug/queries?n=1",
                                        timeout=10) as resp:
                (failed,) = json.load(resp)["records"]
            assert failed["status"] == "error", failed
            assert failed["query"] == "e9(v1,v2)", failed

            with urllib.request.urlopen(f"{base}/stats",
                                        timeout=10) as resp:
                stats = json.load(resp)
            assert stats["flight"]["seen"] == total + 2, stats["flight"]
            adm = stats["admission"]
            assert adm["admitted"] == adm["released"], adm  # no leak
            assert adm["quota_rejections"] == 1, adm
            pool = stats["pool"]
            assert pool["frames"] == 2048 and pool["policy"] == "lru", pool
            assert pool["resident_pages"] <= pool["frames"], pool
            # Sessions are names: every query shared the service's one
            # (M, B) device and its one copy of the instance.
            assert [(d["M"], d["B"]) for d in stats["devices"]] == \
                [(8, 2)], stats["devices"]
            assert [(m["instance"], m["M"], m["B"])
                    for m in stats["materialized"]] == \
                [("default", 8, 2)], stats["materialized"]

            with urllib.request.urlopen(f"{base}/healthz",
                                        timeout=10) as resp:
                assert json.load(resp)["ok"] is True
            print(f"smoke OK: {total} concurrent queries, flight "
                  f"records, metrics, quota and health check out")
        finally:
            proc.terminate()
            rc = proc.wait(timeout=15)
        assert rc in (0, -15), f"serve exited with {rc}"
    return 0


if __name__ == "__main__":
    sys.exit(main())
