"""The four workloads: seeded inputs, oracles, set-up and one query.

Every workload is a closed loop: a client sends its next query only
after the previous reply, because every caller in the repository
waits for its answer.  The host has two cores, so a workload uses at
most two client threads.

* ``star_emit`` — library call, pool off, Theorem 4's star instance:
  output-heavy Algorithm 2 (4096 results from 49 tuples).
* ``reduce_sort`` — library call, pool off, a seeded ``L3`` of 10k
  tuples per relation whose join values are drawn from a domain 8x
  larger, so the full reducer and the external sort do the work and
  the join sees about 200 results: input-heavy, the reverse of
  ``star_emit``.
* ``http_small`` — a ``repro serve`` subprocess and two HTTP clients
  on sticky sessions: engine work is small, so the HTTP/JSON path,
  admission, sessions, the pool's hit path and the flight recorder
  carry the latency.
* ``pool_evict`` — an in-process ``QueryService`` whose 128-frame
  pool is far smaller than the working set of two alternating
  instances: the pool's miss/evict/write-back path without HTTP.

Wall clock on a shared host drifts: a fixed pure-Python loop takes
anywhere from 23 ms to 44 ms within one minute.  Every wall-clock
number is therefore scaled by ``REF_PROBE_S / probe`` where ``probe``
times a fixed piece of interpreter work (:func:`probe`) right next to
the work measured.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import core
from repro.core import CountingEmitter
from repro.data.instance import Instance
from repro.em.device import Device
from repro.internal.generic_join import generic_join_count
from repro.query import line_query, star_query
from repro.query.reduce import full_reduce
from repro.server import QueryService
from repro.workloads import fig3_line3_instance, star_worstcase_instance
from repro.workloads.generators import uniform_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: The probe's fixed input: tuples like the engine's rows.
_probe_rng = random.Random(0)
PROBE_ROWS = [(_probe_rng.randrange(10 ** 6), _probe_rng.randrange(10 ** 6), i)
              for i in range(2500)]
#: The probe's median on the reference host (2 vCPUs, CPython 3.11);
#: calibrated times read as if measured there.
REF_PROBE_S = 0.005


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    Five rounds of sorting 2500 tuples by a Python key, grouping them
    in a dict and walking the groups: about 5 ms, and the same kind of
    work (tuples, key calls, dicts, short lists) the engine does, so
    it slows down when the engine does.  A pure integer loop tracked
    the engine's slowdowns less well: on one noisy 150 s stretch the
    ``star_emit`` p50 of 15 s chunks spread 5.3% calibrated by it and
    1.9% calibrated by this probe.
    """
    t0 = time.perf_counter()
    for _ in range(5):
        groups: dict[int, list] = {}
        for a, b, c in sorted(PROBE_ROWS, key=lambda t: t[1]):
            groups.setdefault(a % 512, []).append((b, c))
        total = 0
        for k in range(512):
            for b, _ in groups.get(k, ()):
                total += b
    return time.perf_counter() - t0


LINE3_TEXT = "e1(v1,v2), e2(v2,v3), e3(v3,v4)"


@dataclass
class Outcome:
    """What one query returned, in the units the checks compare."""

    results: int
    io: int              # simulated page I/O the query reports
    logical: int         # unsuspended charges on the query's device
    cache: dict | None = None
    wait_ms: float = 0.0  # admission wait
    wall_ms: float = 0.0  # the service's own view of the query


class Checker:
    """Counts attempts and failures against the set-up's oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, out: Outcome | None, results: int, io: int,
              error: str | None = None) -> bool:
        self.attempted += 1
        if error is None and out is not None:
            if out.results != results:
                error = f"{out.results} results, expected {results}"
            elif out.io != io:
                error = f"io {out.io}, expected {io}"
        if error is None:
            return True
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(error)
        return False


def relabel(schemas: dict, data: dict, rng: random.Random) -> dict:
    """Rename every attribute's values injectively and shuffle rows.

    The join structure — and so the result count and every page count
    — is unchanged; only the values and the input order depend on the
    seed.
    """
    values: dict[str, set] = {}
    for rel, attrs in schemas.items():
        for t in data[rel]:
            for a, v in zip(attrs, t):
                values.setdefault(a, set()).add(v)
    maps = {a: dict(zip(sorted(vs), rng.sample(range(10 ** 6), len(vs))))
            for a, vs in sorted(values.items())}
    out = {}
    for rel, attrs in schemas.items():
        rows = [tuple(maps[a][v] for a, v in zip(attrs, t))
                for t in data[rel]]
        rng.shuffle(rows)
        out[rel] = rows
    return out


def oracle_count(query, schemas: dict, data: dict) -> int:
    """``|Q(R)|`` by the internal generic join on the reduced instance."""
    return generic_join_count(query, full_reduce(query, data, schemas),
                              schemas)


def solo_writes(query, schemas: dict, data: dict, M: int, B: int) -> int:
    """Page writes of one pool-off library run: with a pool the same
    query makes exactly these logical writes."""
    device = Device(M=M, B=B)
    core.execute(query, Instance.from_dicts(device, schemas, data),
                 CountingEmitter())
    return device.stats.writes


# -- in-process workloads ------------------------------------------------


class Library:
    """``repro.core.execute`` with a fresh Device and Instance per
    query; materialising the instance is untimed."""

    def __init__(self, query, schemas: dict, data: dict, M: int, B: int,
                 results: int) -> None:
        self.query_obj = query
        self.schemas, self.data = schemas, data
        self.M, self.B = M, B
        self.results = results
        self.io = 0

    def setup(self, checker: Checker) -> None:
        out = self.query(self.prepare(0))
        self.io = out.io  # every later query must repeat it exactly
        checker.check(out, self.results, self.io)

    def prepare(self, i: int) -> Instance:
        return Instance.from_dicts(Device(M=self.M, B=self.B),
                                   self.schemas, self.data)

    def query(self, inst: Instance) -> Outcome:
        emitter = CountingEmitter()
        # Through the module, so the tracer's wrapper is the one called.
        core.execute(self.query_obj, inst, emitter)
        total = next(iter(inst.values())).device.stats.total
        return Outcome(results=emitter.count, io=total, logical=total)

    def expected(self, i: int) -> tuple[int, int]:
        return self.results, self.io

    def io_per_query(self) -> float:
        return float(self.io)


def star_emit(seed: int) -> Library:
    petals = [16, 16, 16]
    schemas, data = star_worstcase_instance(petals)
    data = relabel(schemas, data, random.Random(seed))
    return Library(star_query(3), schemas, data, M=64, B=8,
                   results=petals[0] * petals[1] * petals[2])


def reduce_sort(seed: int) -> Library:
    q = line_query(3)
    schemas, data = uniform_instance(q, 10_000, 80_000, seed=seed)
    return Library(q, schemas, data, M=512, B=32,
                   results=oracle_count(q, schemas, data))


class PoolEvict:
    """One sticky session alternating between two catalog instances
    through a shared pool far smaller than their working set."""

    M, B, QUERY_M, FRAMES = 4096, 32, 512, 128

    def __init__(self, seed: int) -> None:
        q = line_query(3)
        self.instances = []
        for name, s in (("a", seed), ("b", seed + 1)):
            schemas, data = uniform_instance(q, 6_000, 48_000, seed=s)
            self.instances.append(
                (name, schemas, data, oracle_count(q, schemas, data),
                 solo_writes(q, schemas, data, self.QUERY_M, self.B)))
        self.io = [0, 0]
        self.service: QueryService | None = None

    def setup(self, checker: Checker) -> None:
        self.close()
        svc = QueryService(M=self.M, B=self.B,
                           default_query_M=self.QUERY_M,
                           pool_frames=self.FRAMES)
        for name, schemas, data, _, _ in self.instances:
            svc.add_instance(name, schemas, data)
        self.service, self.session = svc, svc.session("client-0")
        # Two warm cycles: the second shows the steady state every
        # later query (preceded by the other instance) must repeat.
        for i in range(4):
            out = self.query(i % 2)
            self.io[i % 2] = out.io
            checker.check(out, self.instances[i % 2][3], out.io)

    def prepare(self, i: int) -> int:
        return i % 2

    def query(self, k: int) -> Outcome:
        name, _, _, _, writes = self.instances[k]
        r = self.session.execute(LINE3_TEXT, instance=name)
        return Outcome(results=r.results, io=r.io["total"],
                       logical=r.cache["hits"] + r.cache["misses"] + writes,
                       cache=r.cache, wait_ms=r.admission["wait_ms"])

    def expected(self, i: int) -> tuple[int, int]:
        return self.instances[i % 2][3], self.io[i % 2]

    def io_per_query(self) -> float:
        return statistics.mean(self.io)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


# -- http_small ------------------------------------------------------------


class Server:
    """A ``repro serve`` child process, stopped and reaped by
    :meth:`stop`."""

    def __init__(self, argv: list[str]) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            os.sched_setaffinity(self.proc.pid, {cpus[-1]})
        self.lines: queue.Queue = queue.Queue()
        self.output: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = self._await_banner(timeout=120)

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _await_banner(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("repro serve did not start:\n"
                                   + "".join(self.output))
            self.output.append(line)
            m = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if m:
                return int(m.group(1))

    def cpu_s(self) -> float:
        """utime + stime of the serving process so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            rc = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self._reader.join(timeout=30)
        return rc


class HttpSmall:
    """``BENCH_service``'s Figure-3 L3 (16x16) behind ``repro serve``."""

    CLIENTS = 2
    N = 16
    SERVE = ["-M", "256", "-B", "2", "--pool-frames", "2048"]
    QUERY_M, QUERY_B = 8, 2

    def __init__(self, seed: int, workdir: Path) -> None:
        schemas, data = fig3_line3_instance(self.N, self.N)
        data = relabel(schemas, data, random.Random(seed))
        self.results = self.N * self.N
        self.writes = solo_writes(line_query(3), schemas, data,
                                  self.QUERY_M, self.QUERY_B)
        self.tables = []
        for rel, attrs in schemas.items():
            path = workdir / f"{rel}.csv"
            lines = [",".join(attrs)]
            lines += [",".join(str(v) for v in t) for t in data[rel]]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.tables += ["--table", f"{rel}={path}"]
        self.io = 0

    def start(self, checker: Checker, spans_path: Path | None = None
              ) -> tuple[Server, list[Outcome]]:
        """Spawn the server and run one warm query per client."""
        if spans_path is None:
            argv = [sys.executable, "-u", "-m", "repro", "serve"]
        else:
            argv = [sys.executable, "-u", str(HERE / "serve_traced.py"),
                    str(spans_path)]
        server = Server(argv + ["--port", "0", *self.SERVE, *self.tables])
        try:
            warm = []
            for c in range(self.CLIENTS):
                out, error = self.post(server.port, c)
                if out is None:
                    raise RuntimeError(f"warm query failed: {error}")
                warm.append(out)
            # The first warm query faults the base pages in; from then
            # on every query costs what the last warm query cost.
            self.io = warm[-1].io
            for out in warm:
                checker.check(out, self.results, out.io)
        except BaseException:
            server.stop()
            raise
        return server, warm

    def post(self, port: int, client: int
             ) -> tuple[Outcome | None, str | None]:
        """One ``POST /query`` on a new connection."""
        body = json.dumps({"query": LINE3_TEXT, "M": self.QUERY_M,
                           "B": self.QUERY_B,
                           "session": f"client-{client}"})
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request("POST", "/query", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = resp.read()
        except OSError as exc:
            return None, repr(exc)
        finally:
            conn.close()
        if resp.status != 200:
            return None, f"HTTP {resp.status}: {payload[:200]!r}"
        doc = json.loads(payload)
        cache = doc["cache"]
        return Outcome(results=doc["results"], io=doc["io"]["total"],
                       logical=cache["hits"] + cache["misses"]
                       + self.writes,
                       cache=cache, wait_ms=doc["admission"]["wait_ms"],
                       wall_ms=doc["wall_ms"]), None

    def load(self, server: Server, seconds: float, checker: Checker
             ) -> tuple[list[tuple], list[tuple], float]:
        """Both clients for ``seconds``; client 0 also probes the host
        every 200 ms, between its requests.  Returns (requests, probes,
        start): each request is ``(end, latency_s, outcome or None)``,
        each probe ``(time, probe seconds, server CPU seconds so
        far)``."""
        requests: list[tuple] = []
        probes: list[tuple] = []
        lock = threading.Lock()
        start = time.perf_counter()
        deadline = start + seconds

        def client(c: int) -> None:
            next_probe = start
            while True:
                now = time.perf_counter()
                if now >= deadline:
                    return
                if c == 0 and now >= next_probe:
                    probes.append((now, probe(), server.cpu_s()))
                    next_probe = now + 0.2
                t0 = time.perf_counter()
                out, error = self.post(server.port, c)
                t1 = time.perf_counter()
                with lock:
                    checker.check(out, self.results, self.io, error)
                    requests.append((t1, t1 - t0, out))

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return requests, probes, start


def make(name: str, seed: int, workdir: Path):
    """The workload called ``name``, with its inputs built from
    ``seed``."""
    if name == "star_emit":
        return star_emit(seed)
    if name == "reduce_sort":
        return reduce_sort(seed)
    if name == "pool_evict":
        return PoolEvict(seed)
    if name == "http_small":
        return HttpSmall(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("star_emit", "reduce_sort", "http_small", "pool_evict")
