"""The query flight recorder, per-tenant quotas, and /debug endpoints.

Two honesty properties anchor this file:

* **observational purity** — I/O counters are byte-identical with
  recording on (the default) and off, checked against the pinned
  ``BENCH_table1.json`` counters like the server byte-identity tests;
* **loss honesty** — the ring buffer reports what it *saw* separately
  from what it still *stores* (``seen == stored + overwritten``), so a
  truncated history can never masquerade as a complete one.
"""

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.query.parse import QueryParseError
from repro.server import (AdmissionController, AdmissionRejected,
                          CatalogError, FlightRecorder, QueryResult,
                          QueryService, Quota, start_http_server)
from repro.workloads import fig3_line3_instance

BENCH_TABLE1 = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "BENCH_table1.json")

M, B = 8, 2  # the pinned line3_planner machine
QUERY = "e1(v1,v2), e2(v2,v3), e3(v3,v4)"


def line3_service(**kwargs) -> QueryService:
    svc = QueryService(M=256, B=B, default_query_M=M, **kwargs)
    schemas, data = fig3_line3_instance(16, 16)
    svc.add_instance("default", schemas, data)
    return svc


def pinned_line3():
    doc = json.loads(BENCH_TABLE1.read_text(encoding="utf-8"))
    return doc["classes"]["line3_planner"]


# ------------------------------------------------------ the recorder


class TestFlightRecorder:
    def _record(self, rec, i=0, **over):
        fields = dict(session="s", owner="s", query="q", instance="d",
                      status="ok", machine={}, arrival_unix=1000.0 + i,
                      wall_s=(1.0 + i) / 1e3)
        fields.update(over)
        return rec.record(QueryResult(**fields))

    def test_ids_are_sequential_and_queryable(self):
        rec = FlightRecorder(capacity=8)
        ids = [self._record(rec, i).flight_id for i in range(3)]
        assert ids == [1, 2, 3]
        assert rec.get(2).arrival_unix == 1001.0
        assert rec.get(99) is None

    def test_overflow_honesty_seen_vs_stored(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            self._record(rec, i)
        assert rec.seen == 10
        assert rec.stored == 4
        assert rec.overwritten == 6
        assert rec.seen == rec.stored + rec.overwritten
        # The ring keeps the NEWEST records, newest first.
        assert [r.flight_id for r in rec.records()] == [10, 9, 8, 7]
        # Overwritten ids are gone, not silently renumbered.
        assert rec.get(1) is None and rec.get(7) is not None
        s = rec.stats()
        assert s["seen"] == 10 and s["stored"] == 4
        assert s["overwritten"] == 6 and s["capacity"] == 4

    def test_records_n_and_slow_filter(self):
        rec = FlightRecorder(capacity=16, slow_ms=5.0)
        for i in range(8):
            self._record(rec, i)  # wall_ms = 1 + i
        assert len(rec.records(3)) == 3
        slow = rec.records(slow_only=True)
        assert [r.wall_s * 1e3 for r in slow] == [8.0, 7.0, 6.0, 5.0]
        assert all(r.slow for r in slow)
        assert rec.stats()["slow"] == 4

    def test_rejects_nonsense_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(capacity=4, slow_ms=-1.0)

    def test_record_as_dict_and_summary(self):
        rec = FlightRecorder()
        r = self._record(rec, io={"total": 7, "reads": 5, "writes": 2},
                         error=None, cache=None)
        doc = r.as_dict()
        assert doc["flight_id"] == 1 and doc["status"] == "ok"
        assert "cache" not in doc and "error" not in doc
        assert r.summary()["io_total"] == 7
        assert r.summary()["id"] == 1


# ------------------------------------------- recording through sessions


class TestFlightThroughService:
    def test_ok_record_carries_the_whole_lifecycle(self):
        with line3_service() as svc:
            r = svc.execute(QUERY, session="alice", M=M, B=B)
            rec = svc.flight.get(r.flight_id)
        assert rec.status == "ok"
        assert rec.session == "alice" and rec.owner == "alice"
        assert rec.query == QUERY and rec.instance == "default"
        assert rec.shape == "line" and rec.results == r.results
        assert rec.io == r.io and rec.phases == r.phases
        assert rec.peak_mem == r.peak_mem
        assert rec.machine == {"M": M, "B": B}
        assert rec.admission["outcome"] == "granted"
        assert rec.arrival_unix > 0
        assert rec.wall_s * 1e3 >= rec.admission["wait_ms"]

    def test_result_admission_gains_outcome(self):
        with line3_service() as svc:
            r = svc.execute(QUERY, M=M, B=B)
        assert r.admission["outcome"] == "granted"
        assert r.admission["need"] == M
        assert r.as_dict()["flight_id"] == r.flight_id

    def test_rejected_queries_leave_records(self):
        with line3_service() as svc:
            with pytest.raises(AdmissionRejected):
                svc.execute(QUERY, session="big", M=4096, B=B)
            (rej,) = svc.flight.records()
        assert rej.status == "rejected"
        assert rej.owner == "big" and rej.results == 0
        assert rej.admission["outcome"] == "rejected"
        assert "budget" in rej.error
        assert rej.admission["wait_ms"] >= 0 and rej.run_s == 0.0

    def test_execution_error_leaves_an_error_record(self):
        with line3_service() as svc:
            session = svc.session("boom")

            def explode(*a, **k):
                raise RuntimeError("kaput")

            svc._execute = explode  # the stage after admission
            with pytest.raises(RuntimeError):
                session.execute(QUERY, M=M, B=B)
            del svc._execute
            (rec,) = svc.flight.records()
        assert rec.status == "error"
        assert rec.error == "kaput"
        assert rec.admission["outcome"] == "granted"

    @pytest.mark.parametrize("query, instance, exc", [
        ("e1(v1,v2", "default", QueryParseError),
        (QUERY, "nope", CatalogError),
        ("e9(v1,v2)", "default", CatalogError),
        ("e1(v1,wrong)", "default", CatalogError),
    ], ids=["parse", "unknown-instance", "unknown-relation", "layout"])
    def test_failures_before_admission_leave_error_records(
            self, query, instance, exc):
        """No admission ran, so the record's admission entry is empty;
        the catalog reference the failed query took is given back."""
        with line3_service() as svc:
            svc.execute(QUERY, session="s", M=M, B=B)
            with pytest.raises(exc):
                svc.execute(query, session="s", instance=instance,
                            M=M, B=B)
            assert svc.flight.stats()["seen"] == 2
            rec, _ = svc.flight.records()
            assert svc.catalog.get("default").pins == 0
            assert svc.admission.snapshot()["admitted"] == 1
        assert rec.status == "error" and rec.error
        assert rec.query == query and rec.instance == instance
        assert rec.admission == {} and rec.results == 0
        assert rec.run_s == 0.0 and rec.wall_s > 0

    def test_recording_off_means_no_recorder_and_no_ids(self):
        with line3_service(flight_records=0) as svc:
            r = svc.execute(QUERY, M=M, B=B)
            assert svc.flight is None
            assert r.flight_id is None
            assert "flight_id" not in r.as_dict()
            assert svc.stats()["flight"] is None

    def test_io_counters_byte_identical_recording_on_and_off(self):
        """The acceptance criterion: the recorder observes, never
        charges — counters match the pinned baseline either way."""
        pinned = pinned_line3()["pool_off"]
        for flight_records in (256, 0):
            with line3_service(flight_records=flight_records) as svc:
                r = svc.execute(QUERY, M=M, B=B)
            assert r.results == pinned["results"]
            assert r.io["total"] == pinned["io"]["total"]
            assert r.io["reads"] == pinned["io"]["reads"]
            assert r.io["writes"] == pinned["io"]["writes"]

    def test_ring_overflow_through_the_service(self):
        with line3_service(flight_records=3) as svc:
            for _ in range(5):
                svc.execute(QUERY, session="s", M=M, B=B)
            s = svc.flight.stats()
        assert s["seen"] == 5 and s["stored"] == 3
        assert s["overwritten"] == 2

    def test_slow_query_threshold_flags_and_counts(self):
        with line3_service(slow_query_ms=0.0) as svc:
            r = svc.execute(QUERY, M=M, B=B)  # everything is "slow"
            rec = svc.flight.get(r.flight_id)
            assert rec.slow
            assert svc.flight.stats()["slow"] == 1
        with line3_service(slow_query_ms=1e9) as svc:
            r = svc.execute(QUERY, M=M, B=B)
            assert not svc.flight.get(r.flight_id).slow


# ----------------------------------------------------------- quotas


class TestQuotas:
    def test_quota_validation(self):
        with pytest.raises(ValueError):
            Quota(max_share=0.0)
        with pytest.raises(ValueError):
            Quota(max_share=1.5)

    def test_max_share_caps_budget_not_concurrency(self):
        adm = AdmissionController(100)
        adm.set_quota("a", max_share=0.2)
        # 20 = exactly the share; a grant held does not count against
        # the next one.
        g1 = adm.acquire(20, owner="a")
        g2 = adm.acquire(20, owner="a")
        # A need over the share is rejected outright.
        with pytest.raises(AdmissionRejected):
            adm.acquire(21, owner="a")
        assert adm.stats["quota_rejections"] == 1
        adm.acquire(21, owner="b")  # other owners are not capped
        adm.release(g1)
        adm.release(g2)

    def test_default_quota_and_clearing(self):
        adm = AdmissionController(100, default_quota=Quota(0.1))
        with pytest.raises(AdmissionRejected):
            adm.acquire(11, owner="anyone")
        # An explicit per-owner quota overrides the default...
        adm.set_quota("anyone", max_share=0.5)
        adm.release(adm.acquire(11, owner="anyone"))
        # ...and clearing it falls back to the default.
        adm.set_quota("anyone")
        assert adm.quota_for("anyone").max_share == 0.1

    def test_quota_state_in_snapshot_and_flight_record(self):
        with line3_service() as svc:
            svc.set_quota("alice", max_share=0.5)
            r = svc.execute(QUERY, session="alice", M=M, B=B)
            rec = svc.flight.get(r.flight_id)
            snap = svc.admission.snapshot()
        assert r.admission["quota"] == {"max_share": 0.5}
        assert rec.admission["quota"] == {"max_share": 0.5}
        assert snap["quotas"] == {"alice": {"max_share": 0.5}}
        assert snap["admitted"] == snap["released"] == 1

    def test_tenant_overrides_session_as_owner(self):
        with line3_service() as svc:
            svc.set_quota("team-a", max_share=0.5)
            r = svc.execute(QUERY, session="s1", tenant="team-a",
                            M=M, B=B)
            rec = svc.flight.get(r.flight_id)
        assert rec.owner == "team-a" and rec.session == "s1"
        assert r.admission["quota"]["max_share"] == 0.5

    def test_unquotaed_owner_reports_no_quota_noise(self):
        with line3_service() as svc:
            r = svc.execute(QUERY, session="free", M=M, B=B)
        assert "quota" not in r.admission


# ------------------------------------------------ metrics under load


class TestConcurrentMetrics:
    def test_session_loop_folds_every_query_exactly_once(self):
        n = 48
        with line3_service() as svc:
            s = svc.session("loop")
            results = [s.execute(QUERY, M=M, B=B) for _ in range(n)]
            m = svc.metrics.as_dict()
            fs = svc.flight.stats()
        assert len(results) == n
        assert m["counters"]["service.queries"]["value"] == n
        assert m["counters"]["service.results"]["value"] == sum(
            r.results for r in results)
        hist = m["histograms"]["service.query_wall_ms"]
        assert hist["count"] == n
        wait = m["histograms"]["service.admission_wait_ms"]
        assert wait["count"] == n
        assert fs["seen"] == n  # one flight record per query

    def test_histogram_observation_is_thread_safe(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        h = reg.histogram("t.ms")
        c = reg.counter("t.n")
        lock = threading.Lock()

        def pound():
            for i in range(1000):
                with lock:
                    h.observe(float(i % 97))
                    c.inc()

        threads = [threading.Thread(target=pound) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.as_dict()["histograms"]["t.ms"]["count"] == 8000
        assert reg.as_dict()["counters"]["t.n"]["value"] == 8000


# ------------------------------------------------------ HTTP surface


@pytest.fixture(scope="module")
def http_service():
    svc = line3_service(flight_records=8, slow_query_ms=1e9)
    server = start_http_server(svc, port=0)
    base = f"http://127.0.0.1:{server.server_port}"
    yield svc, base
    server.shutdown()
    svc.close()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.status, json.load(resp)


def _post(base, doc, path="/query"):
    req = urllib.request.Request(
        base + path, data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.load(resp)


class TestDebugEndpoints:
    def test_debug_queries_lists_what_ran(self, http_service):
        _, base = http_service
        _, r = _post(base, {"query": QUERY, "M": M, "B": B,
                            "session": "dbg"})
        status, doc = _get(base, "/debug/queries")
        assert status == 200
        assert doc["seen"] >= 1
        assert doc["returned"] == len(doc["records"]) == doc["stored"]
        newest = doc["records"][0]
        assert newest["id"] == r["flight_id"]
        assert newest["status"] == "ok"
        assert newest["io_total"] == r["io"]["total"]

    def test_debug_query_by_id_full_record(self, http_service):
        _, base = http_service
        _, r = _post(base, {"query": QUERY, "M": M, "B": B})
        status, doc = _get(base, f"/debug/queries/{r['flight_id']}")
        assert status == 200
        assert doc["query"] == QUERY
        assert doc["io"] == r["io"] and doc["phases"] == r["phases"]
        assert doc["admission"]["outcome"] == "granted"

    def test_reply_and_debug_record_are_one_document(self, http_service):
        _, base = http_service
        _, r = _post(base, {"query": QUERY, "M": M, "B": B,
                            "session": "one", "collect": True})
        _, doc = _get(base, f"/debug/queries/{r['flight_id']}")
        assert r.pop("rows")
        assert doc == r

    def test_over_quota_422_leaves_a_rejected_record(self, http_service):
        svc, base = http_service
        svc.set_quota("tiny-team", max_share=0.01)
        with pytest.raises(urllib.error.HTTPError) as e:
            _post(base, {"query": QUERY, "M": M, "B": B,
                         "tenant": "tiny-team"})
        assert e.value.code == 422
        body = json.load(e.value)
        _, listing = _get(base, "/debug/queries?n=1")
        (row,) = listing["records"]
        assert row["status"] == "rejected" and row["owner"] == "tiny-team"
        _, doc = _get(base, f"/debug/queries/{row['id']}")
        assert doc["status"] == "rejected" and doc["results"] == 0
        assert doc["error"] == body["error"]
        assert doc["io"] == {} and doc["phases"] == {}

    def test_debug_queries_n_cap_and_bad_inputs(self, http_service):
        _, base = http_service
        for _ in range(3):
            _post(base, {"query": QUERY, "M": M, "B": B})
        _, doc = _get(base, "/debug/queries?n=2")
        assert doc["returned"] == 2
        with pytest.raises(urllib.error.HTTPError) as e:
            _get(base, "/debug/queries/not-a-number")
        assert e.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as e:
            _get(base, "/debug/queries/999999")
        assert e.value.code == 404
        assert "overwritten" in json.load(e.value)["error"]

    def test_stats_exposes_flight_and_admission(self, http_service):
        _, base = http_service
        _, doc = _get(base, "/stats")
        adm = doc["admission"]
        assert adm["admitted"] == adm["released"]  # all returned
        assert doc["flight"]["capacity"] == 8
        assert doc["flight"]["seen"] >= 1

    def test_metrics_exposes_latency_and_wait_histograms(self,
                                                         http_service):
        _, base = http_service
        _post(base, {"query": QUERY, "M": M, "B": B})
        with urllib.request.urlopen(base + "/metrics",
                                    timeout=10) as resp:
            body = resp.read().decode("utf-8")
        assert "repro_service_query_wall_ms_bucket" in body
        assert "repro_service_admission_wait_ms_bucket" in body
        assert "repro_flight_records_seen" in body

    def test_tenant_field_reaches_admission(self, http_service):
        svc, base = http_service
        svc.set_quota("http-team", max_share=0.5)
        _, r = _post(base, {"query": QUERY, "M": M, "B": B,
                            "tenant": "http-team"})
        assert r["admission"]["quota"]["max_share"] == 0.5

    def test_debug_on_recorder_off_service_is_404(self):
        svc = line3_service(flight_records=0)
        server = start_http_server(svc, port=0)
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            with pytest.raises(urllib.error.HTTPError) as e:
                _get(base, "/debug/queries")
            assert e.value.code == 404
        finally:
            server.shutdown()
            svc.close()
