"""The service layer: catalog, sessions, shared pool, HTTP surface.

The service runs every query to completion on one thread; the only
thread it ever starts is ``start_http_server``'s serving loop.

The headline assertion is the ISSUE's acceptance criterion: a query
run through a server session reports I/O counters *byte-identical* to
a solo run — checked against the committed ``BENCH_table1.json``
``line3_planner`` class, not against a fresh measurement, so a
regression in either path trips it.
"""

import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.obs import Tracer
from repro.query import line_query
from repro.server import (AdmissionRejected, Catalog, CatalogError,
                          QueryService, ServiceError, Session,
                          SessionClosed, start_http_server)
from repro.workloads import fig3_line3_instance

ROOT = Path(__file__).resolve().parent.parent
BENCH_TABLE1 = ROOT / "benchmarks" / "BENCH_table1.json"
BENCH_SERVICE = ROOT / "benchmarks" / "BENCH_service.json"

M, B = 8, 2  # the pinned line3_planner machine


def pinned_line3():
    doc = json.loads(BENCH_TABLE1.read_text(encoding="utf-8"))
    return doc["classes"]["line3_planner"]


def line3_service(**kwargs) -> QueryService:
    svc = QueryService(M=256, B=B, default_query_M=M, **kwargs)
    schemas, data = fig3_line3_instance(16, 16)
    svc.add_instance("default", schemas, data)
    return svc


# ----------------------------------------------------------- catalog


class TestCatalog:
    LAYOUTS = {"r": ("a", "b")}
    ROWS = {"r": [(1, 2), (3, 4)]}

    def test_add_get_and_refcount(self):
        cat = Catalog()
        cat.add("d", self.LAYOUTS, self.ROWS)
        entry = cat.acquire("d")
        assert entry.pins == 1 and cat.stats["hits"] == 1
        assert entry.rows["r"] == [(1, 2), (3, 4)]
        cat.release(entry)
        assert entry.pins == 0

    def test_unknown_instance(self):
        with pytest.raises(CatalogError):
            Catalog().acquire("nope")

    def test_duplicate_requires_replace(self):
        cat = Catalog()
        cat.add("d", self.LAYOUTS, self.ROWS)
        with pytest.raises(CatalogError):
            cat.add("d", self.LAYOUTS, self.ROWS)
        e2 = cat.add("d", self.LAYOUTS, self.ROWS, replace=True)
        assert e2.generation == 2  # stale caches can tell
        assert cat.stats["replaced"] == 1

    def test_layouts_and_rows_validated(self):
        with pytest.raises(ValueError):
            Catalog().add("d", {"r": ("a", "b")}, {"s": []})
        with pytest.raises(ValueError):
            Catalog().add("d", {"r": ("a", "b")}, {"r": [(1, 2, 3)]})

    def test_load_csv_matches_solo_normalization(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n3,4\n1,2\n3,4\n", encoding="utf-8")
        cat = Catalog()
        entry = cat.load_csv("d", {"r": str(p)})
        # Same normalization as repro.data.io.load_csv: typed, deduped,
        # sorted — so served instances equal solo-loaded ones.
        assert entry.rows["r"] == [(1, 2), (3, 4)]
        assert cat.stats["loads"] == 1


# ------------------------------------------- the byte-identity proof


class TestByteIdentity:
    def test_session_counters_equal_pinned_solo_run(self):
        pinned = pinned_line3()
        assert pinned["machine"] == {"M": M, "B": B}
        with line3_service() as svc:
            s = svc.session("alice")
            r = s.execute(line_query(3), M=M, B=B)
        want = pinned["pool_off"]
        assert r.io["reads"] == want["io"]["reads"]
        assert r.io["writes"] == want["io"]["writes"]
        assert r.io["total"] == want["io"]["total"]
        assert r.results == want["results"]
        assert r.peak_mem == want["peak_mem"]
        assert r.phases == want["phases"]

    def test_repeated_queries_stay_identical(self):
        """A long-lived device must report every query as its first."""
        want = pinned_line3()["pool_off"]
        with line3_service() as svc:
            s = svc.session("alice")
            for _ in range(3):
                r = s.execute(line_query(3), M=M, B=B)
                assert r.io["total"] == want["io"]["total"]
                assert r.phases == want["phases"]
                assert r.peak_mem == want["peak_mem"]

    def test_sessions_do_not_see_each_other(self):
        with line3_service() as svc:
            a = svc.session("a")
            b = svc.session("b")
            ra = a.execute(line_query(3), M=M, B=B)
            rb = b.execute(line_query(3), M=M, B=B)
        assert ra.io == rb.io  # same query, same cost, no bleed
        assert ra.session == "a" and rb.session == "b"

    def test_result_shape_and_algorithm(self):
        with line3_service() as svc:
            r = svc.execute(line_query(3), M=M, B=B)
        assert r.shape == "line"
        assert "1" in r.algorithm  # Algorithm 1 handles L3
        assert r.machine == {"M": M, "B": B}
        assert r.admission["need"] == M


# ------------------------------------------------------- shared pool


class TestSharedPool:
    def test_second_session_reads_for_free(self):
        with line3_service(pool_frames=4096) as svc:
            a = svc.session("a")
            ra = a.execute(line_query(3), M=M, B=B)
            b = svc.session("b")
            rb = b.execute(line_query(3), M=M, B=B)
        # a faulted the 17 base pages in; b misses nothing.
        assert ra.cache["misses"] == 17
        assert rb.cache["misses"] == 0
        assert rb.cache["hits"] == 109  # every logical read hit
        assert rb.io["reads"] == 0
        assert rb.io["writes"] == 62  # own intermediates still cost

    def test_logical_reads_match_pool_off_physical(self):
        pinned = pinned_line3()["pool_off"]
        with line3_service(pool_frames=4096) as svc:
            r = svc.execute(line_query(3), M=M, B=B)
        assert (r.cache["hits"] + r.cache["misses"]
                == pinned["io"]["reads"])
        assert r.results == pinned["results"]

    def test_different_B_session_skips_the_pool(self):
        with line3_service(pool_frames=64) as svc:
            r = svc.execute(line_query(3), M=16, B=4)  # B != pool B
        assert r.cache is None  # no view attached: pool-off semantics

    def test_observed_session_counts_equal_unobserved(self):
        """An observer on the service's (M, B) device changes no pool
        counter, and it sees every hit, miss, eviction and write-back."""
        keys = ("hits", "misses", "evictions", "writebacks")

        def run(observe):
            tracer = Tracer()
            with line3_service(pool_frames=8) as svc:
                s = svc.session("a")
                if observe:
                    svc.device(M, B).observe(tracer)
                rs = [s.execute(line_query(3), M=M, B=B)
                      for _ in range(2)]
            return [(r.io, r.cache) for r in rs], tracer.summary()

        plain, _ = run(False)
        observed, summary = run(True)
        assert observed == plain
        assert plain[0][1]["evictions"] > 0
        assert plain[0][1]["writebacks"] > 0
        assert summary["cache"] == {
            k: sum(cache[k] for _, cache in plain) for k in keys}
        assert summary["io"]["reads"] == sum(io["reads"] for io, _ in plain)
        assert summary["io"]["writes"] == sum(io["writes"]
                                              for io, _ in plain)

    def test_resident_pages_gauge_in_metrics(self):
        """``pool.resident_pages`` in ``/metrics``: the frames resident
        now, and the most ever resident."""
        with line3_service(pool_frames=64) as svc:
            s = svc.session("a")
            for _ in range(2):
                s.execute(line_query(3), M=M, B=B)
            gauge = svc.refresh_metrics().as_dict()["gauges"][
                "pool.resident_pages"]
            text = svc.prometheus()
        assert (gauge["value"], gauge["max"]) == (8, 64)
        assert "repro_pool_resident_pages 8\n" in text
        assert "repro_pool_resident_pages_max 64\n" in text


# --------------------------------------------------------- admission


class TestAdmissionThroughSessions:
    def test_impossible_need_rejected(self):
        with line3_service() as svc:  # global budget 256
            with pytest.raises(AdmissionRejected):
                svc.execute(line_query(3), M=512, B=B)

    def test_wait_time_reported(self):
        with line3_service() as svc:
            r = svc.execute(line_query(3), M=M, B=B)
            assert r.admission["wait_ms"] >= 0


# ---------------------------------------------------------- sessions


class TestSessionsAndService:
    def test_unknown_relation_and_layout_mismatch(self):
        with line3_service() as svc:
            s = svc.session("a")
            with pytest.raises(CatalogError, match="e9"):
                s.execute("e9(v1,v2)", M=M, B=B)
            with pytest.raises(CatalogError, match="attributes"):
                s.execute("e1(v1,wrong)", M=M, B=B)

    def test_closed_session_refuses_queries(self):
        with line3_service() as svc:
            s = svc.session("a")
            svc.close_session("a")
            with pytest.raises(SessionClosed):
                s.execute(line_query(3), M=M, B=B)
            with pytest.raises(ServiceError):
                svc.close_session("a")  # already gone

    def test_session_rejoin_by_name(self):
        with line3_service() as svc:
            a1 = svc.session("alice")
            a1.execute(line_query(3), M=M, B=B)
            a2 = svc.session("alice")
            assert a2 is a1  # the connection abstraction
            assert a2.queries == 1

    def test_one_shot_sessions_are_reaped(self):
        with line3_service() as svc:
            svc.execute(line_query(3), M=M, B=B)
            assert svc.sessions() == []

    def test_session_loop_order_and_counters(self):
        with line3_service() as svc:
            s = svc.session("loop")
            rs = [s.execute(line_query(3), M=M, B=B) for _ in range(6)]
        assert s.queries == 6
        assert [r.flight_id for r in rs] == sorted(r.flight_id
                                                   for r in rs)
        assert all(r.io["total"] == 171 for r in rs)  # pool off: solo
        assert {r.session for r in rs} == {"loop"}

    def test_text_query_and_collected_rows(self):
        with line3_service() as svc:
            r = svc.execute("e1(v1,v2), e2(v2,v3), e3(v3,v4)",
                            M=M, B=B, collect=True)
        assert r.results == 256 and len(r.rows) == 256
        doc = r.as_dict()
        assert doc["rows"][0].keys() == {"e1", "e2", "e3"}

    def test_closed_service_refuses_everything(self):
        svc = line3_service()
        svc.close()
        with pytest.raises(ServiceError):
            svc.session("a")
        with pytest.raises(ServiceError):
            svc.execute(line_query(3))

    def test_service_metrics_aggregate(self):
        with line3_service() as svc:
            svc.execute(line_query(3), M=M, B=B)
            svc.execute(line_query(3), M=M, B=B)
            text = svc.prometheus()
        assert "repro_service_queries 2" in text
        assert "repro_service_shape_line 2" in text

    def test_stats_document(self):
        with line3_service(pool_frames=64) as svc:
            svc.session("alice").execute(line_query(3), M=M, B=B)
            doc = svc.stats()
        assert doc["machine"]["M"] == 256
        assert doc["admission"]["budget"] == 256
        assert doc["catalog"]["entries"][0]["name"] == "default"
        assert doc["pool"]["frames"] == 64
        assert any(s["name"] == "alice" for s in doc["sessions"])
        # Sessions are names; the machine state is the service's.
        assert doc["sessions"] == [{"name": "alice", "queries": 1}]
        assert doc["devices"] == [{"M": M, "B": B, "io": 79,
                                   "pooled": True}]
        assert doc["materialized"] == [
            {"instance": "default", "generation": 1, "M": M, "B": B}]


# ------------------------------------------------ batches on one thread


class TestBatchOnOneThread:
    @pytest.mark.parametrize("c", [1, 4, 16])
    def test_execute_batch_spawns_no_threads(self, c, monkeypatch):
        """A batch of queries dealt round-robin over ``c`` sessions
        runs on the calling thread, and the pooled aggregate equals
        the pinned ``BENCH_service.json`` block at every session
        count."""
        pinned = json.loads(BENCH_SERVICE.read_text(encoding="utf-8"))
        det = pinned["deterministic"]
        machine = det["machine"]
        svc = QueryService(M=machine["global_M"], B=machine["B"],
                           default_query_M=machine["M"],
                           pool_frames=machine["pool_frames"])
        svc.add_instance("default", *fig3_line3_instance(16, 16))
        before = threading.active_count()
        during: list[int] = []
        execute = Session.execute

        def counting(self, *args, **kwargs):
            during.append(threading.active_count())
            return execute(self, *args, **kwargs)

        monkeypatch.setattr(Session, "execute", counting)
        with svc:
            sessions = [svc.session(f"w{w}") for w in range(c)]
            rs = [sessions[i % c].execute(line_query(3))
                  for i in range(det["n_queries"])]
        assert set(during) == {before}
        assert threading.active_count() == before
        want = det["service_pool_on"]["cache_aggregate"]
        assert {k: sum(r.cache[k] for r in rs) for k in want} == want
        assert sum(r.io["total"] for r in rs) == \
            det["service_pool_on"]["io_total"]
        assert {r.session for r in rs} == {f"w{w}" for w in range(c)}


def test_service_layer_holds_no_locks():
    """The engine takes no locks: one thread runs every query."""
    pattern = re.compile(r"threading\.(Lock|RLock|Condition)")
    offenders = [str(p) for p in (ROOT / "src" / "repro").rglob("*.py")
                 if pattern.search(p.read_text(encoding="utf-8"))]
    assert offenders == []


# ----------------------------------------------------- error surfacing


class TestWorkerErrorSurfacing:
    def test_session_recorded_failures_are_not_double_recorded(self):
        """An admission rejection leaves exactly one flight record,
        the session's own."""
        svc = QueryService(M=2, B=2, default_query_M=M)
        schemas, data = fig3_line3_instance(16, 16)
        svc.add_instance("default", schemas, data)
        with svc:
            with pytest.raises(AdmissionRejected):
                svc.execute(line_query(3), M=M, B=B)
            stats = svc.flight.stats()
            assert stats["seen"] == 1  # the session's own record
            (rec,) = svc.flight.records()
            assert rec.status == "rejected"

    def test_note_server_crash_surfaces_in_stats(self):
        with line3_service() as svc:
            assert svc.stats()["errors"]["serve_crash"] is None
            svc.note_server_crash(RuntimeError("boom"))
            assert "boom" in svc.stats()["errors"]["serve_crash"]

    def test_http_serve_thread_crash_is_reported(self, monkeypatch):
        """If the serve loop dies, the reason must appear in /stats
        instead of vanishing with the daemon thread."""
        from repro.server import http as http_mod

        def boom(self, *a, **k):
            raise RuntimeError("serve loop died")

        monkeypatch.setattr(http_mod.ServiceServer, "serve_forever",
                            boom)
        monkeypatch.setattr(threading, "excepthook",
                            lambda *_args: None)  # keep the log quiet
        with line3_service() as svc:
            server = http_mod.start_http_server(svc)
            try:
                for _ in range(200):
                    crash = svc.stats()["errors"]["serve_crash"]
                    if crash:
                        break
                    time.sleep(0.005)
                assert "serve loop died" in crash
            finally:
                server.server_close()


# --------------------------------------------------------------- http


@pytest.fixture(scope="module")
def http_service():
    svc = line3_service(pool_frames=4096)
    server = start_http_server(svc, port=0)
    base = f"http://127.0.0.1:{server.server_port}"
    yield svc, base
    server.shutdown()
    svc.close()


def _post(base, doc, path="/query"):
    req = urllib.request.Request(
        base + path, data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.load(resp)


class TestHttp:
    QUERY = "e1(v1,v2), e2(v2,v3), e3(v3,v4)"

    def test_query_round_trip(self, http_service):
        _, base = http_service
        status, doc = _post(base, {"query": self.QUERY, "M": M, "B": B})
        assert status == 200
        assert doc["results"] == 256
        assert doc["shape"] == "line"
        assert doc["io"]["writes"] == 62

    def test_sticky_session(self, http_service):
        _, base = http_service
        for _ in range(2):
            status, doc = _post(base, {"query": self.QUERY, "M": M,
                                       "B": B, "session": "web"})
            assert status == 200 and doc["session"] == "web"

    def test_metrics_and_health(self, http_service):
        _, base = http_service
        with urllib.request.urlopen(base + "/metrics",
                                    timeout=10) as resp:
            assert resp.status == 200
            assert "version=0.0.4" in resp.headers["Content-Type"]
            body = resp.read().decode("utf-8")
        assert "repro_service_queries" in body
        with urllib.request.urlopen(base + "/healthz",
                                    timeout=10) as resp:
            assert json.load(resp)["ok"] is True

    def test_stats_and_catalog_routes(self, http_service):
        _, base = http_service
        for path in ("/stats", "/catalog"):
            with urllib.request.urlopen(base + path, timeout=10) as resp:
                assert resp.status == 200
                json.load(resp)  # valid JSON

    def test_unknown_route_404_lists_routes(self, http_service):
        _, base = http_service
        with pytest.raises(urllib.error.HTTPError) as e:
            urllib.request.urlopen(base + "/nope", timeout=10)
        assert e.value.code == 404
        assert "/metrics" in json.load(e.value)["routes"]

    def test_bad_body_400(self, http_service):
        _, base = http_service
        with pytest.raises(urllib.error.HTTPError) as e:
            _post(base, {"not_a_query": 1})
        assert e.value.code == 400

    def test_unknown_relation_400(self, http_service):
        _, base = http_service
        with pytest.raises(urllib.error.HTTPError) as e:
            _post(base, {"query": "e9(v1,v2)", "M": M, "B": B})
        assert e.value.code == 400

    def test_non_numeric_machine_params_400(self, http_service):
        _, base = http_service
        for doc in ({"query": self.QUERY, "M": "eight", "B": B},
                    {"query": self.QUERY, "M": M, "B": "two"},
                    {"query": self.QUERY, "M": [8], "B": B}):
            with pytest.raises(urllib.error.HTTPError) as e:
                _post(base, doc)
            assert e.value.code == 400
            assert "bad request body" in json.load(e.value)["error"]

    def test_internal_error_is_500_json_not_dropped(self, http_service):
        svc, base = http_service
        original = svc.execute

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        svc.execute = boom
        try:
            with pytest.raises(urllib.error.HTTPError) as e:
                _post(base, {"query": self.QUERY, "M": M, "B": B})
            assert e.value.code == 500
            doc = json.load(e.value)
            assert doc["kind"] == "internal"
            assert "RuntimeError" in doc["error"]
        finally:
            svc.execute = original
        # The handler survived; the service keeps answering.
        status, doc = _post(base, {"query": self.QUERY, "M": M, "B": B})
        assert status == 200 and doc["results"] == 256

    def test_internal_keyerror_is_500_not_400(self, http_service):
        svc, base = http_service
        original = svc.execute

        def missing(*args, **kwargs):
            raise KeyError("frame_table")

        svc.execute = missing
        try:
            with pytest.raises(urllib.error.HTTPError) as e:
                _post(base, {"query": self.QUERY, "M": M, "B": B})
            assert e.value.code == 500  # used to masquerade as 400
        finally:
            svc.execute = original

    def test_impossible_need_422(self, http_service):
        _, base = http_service
        with pytest.raises(urllib.error.HTTPError) as e:
            _post(base, {"query": self.QUERY, "M": 4096, "B": B})
        assert e.value.code == 422
        assert json.load(e.value)["kind"] == "rejected"

    @pytest.mark.parametrize("body", [
        {"M": 1, "B": 2},        # B > M
        {"B": 0},
        {"M": -8},
        {"M": True},             # a bool is not an integer here
        {"B": 9999},             # B > the default per-query M
        {"query": 5},
        {"collect": "false"},    # a non-empty string is truthy
        {"session": [1]},        # unhashable as a session name
        {"session": {"x": 1}},
        {"session": "~s1"},      # the service mints "~" names
        {"instance": []},
    ], ids=repr)
    def test_malformed_body_400(self, http_service, body):
        """Bodies the engine would choke on (500) or misread (200) are
        refused up front as the client's error."""
        _, base = http_service
        with pytest.raises(urllib.error.HTTPError) as e:
            _post(base, {"query": self.QUERY, **body})
        assert e.value.code == 400
        assert "bad request body" in json.load(e.value)["error"]

    def test_negative_content_length_400(self, http_service):
        """``rfile.read(-1)`` reads until EOF: a negative length must
        be refused, not block the only serving thread."""
        _, base = http_service
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /query HTTP/1.0\r\n"
                         b"Content-Length: -1\r\n\r\n")
            with sock.makefile("rb") as reply:
                status_line = reply.readline()
        assert status_line.split()[1] == b"400"
        with urllib.request.urlopen(base + "/healthz", timeout=3) as resp:
            assert resp.status == 200

    def test_stalled_client_does_not_block_the_server(
            self, http_service, monkeypatch):
        """A connection that sends nothing, and one that sends only
        part of its body, are dropped after the handler's read
        timeout; a normal query behind them still succeeds."""
        from repro.server import http as http_mod

        assert 0 < http_mod._Handler.timeout <= 30
        monkeypatch.setattr(http_mod._Handler, "timeout", 0.2)
        _, base = http_service
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port)) as silent, \
                socket.create_connection(("127.0.0.1", port)) as partial:
            partial.sendall(b"POST /query HTTP/1.0\r\n"
                            b"Content-Length: 100\r\n\r\n{")
            status, doc = _post(base, {"query": self.QUERY, "M": M,
                                       "B": B})
            assert status == 200 and doc["results"] == 256
            assert silent.recv(1) == b""  # the server hung up on it
