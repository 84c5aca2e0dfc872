"""Tests for the observability layer: tracer, observers, baselines."""

import contextlib
import json

import pytest

from repro import Device, Instance, Tracer, line_query
from repro.core import CountingEmitter, line3_join
from repro.em import PoolConfig
from repro.obs import (UNATTRIBUTED, SpanProfiler, compare_baselines,
                       load_baseline, write_baseline)
from repro.obs.events import EVENT_KINDS, TraceEvent
from repro.workloads import fig3_line3_instance


def traced_line3(M=4, B=2, pool=None, also=(), **tracer_kwargs):
    """Run the fixed L3 instance with a tracer (and the observers in
    ``also``) observing; return (device, tracer)."""
    tracer = Tracer(**tracer_kwargs)
    device = Device(M=M, B=B, buffer_pool=pool,
                    observers=[tracer, *also])
    schemas, data = fig3_line3_instance(32, 32)
    instance = Instance.from_dicts(device, schemas, data)
    line3_join(line_query(3), instance, CountingEmitter())
    device.flush_pool()
    return device, tracer


class TestTracer:
    def test_rollups_sum_to_device_total(self):
        device, tracer = traced_line3()
        s = tracer.summary()
        assert s["io"]["reads"] == device.stats.reads == 325
        assert s["io"]["writes"] == device.stats.writes == 146
        per_phase = sum(v["total"] for v in s["per_phase"].values())
        assert per_phase == device.stats.total
        per_file = sum(v["total"] for v in s["per_file"].values())
        assert per_file == device.stats.total

    def test_per_phase_matches_phase_tracker(self):
        device, tracer = traced_line3()
        s = tracer.summary()
        got = {k: v["total"] for k, v in s["per_phase"].items()}
        assert got == device.phases.report()

    def test_memory_peak_matches_gauge(self):
        device, tracer = traced_line3()
        assert tracer.summary()["memory"]["peak"] == device.memory.peak

    def test_pooled_cache_rollup_matches_cache_stats(self):
        device, tracer = traced_line3(pool=PoolConfig(frames=8))
        c = device.stats.cache
        s = tracer.summary()
        assert s["cache"] == {"hits": c.hits, "misses": c.misses,
                              "evictions": c.evictions,
                              "writebacks": c.writebacks}
        assert c.hits + c.misses == c.logical_reads

    def test_ring_buffer_overwrites_oldest(self):
        device, tracer = traced_line3(capacity=32)
        events = tracer.events()
        assert len(events) == 32
        ev = tracer.summary()["events"]
        assert ev["overwritten"] == ev["seen"] - 32
        # Oldest first, and strictly increasing sequence numbers.
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        # The totals were unaffected by the overwrites.
        assert tracer.summary()["io"]["total"] == device.stats.total

    def test_export_jsonl_is_parseable(self, tmp_path):
        _, tracer = traced_line3()
        path = tmp_path / "trace.jsonl"
        n = tracer.export_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == n == len(tracer.events())
        reads = writes = 0
        for line in lines:
            obj = json.loads(line)
            assert obj["kind"] in EVENT_KINDS
            reads += obj["kind"] == "read"
            writes += obj["kind"] == "write"
        # An export that lost nothing carries every physical I/O.
        assert reads == 325 and writes == 146

    def test_io_events_carry_file_page_phase(self):
        _, tracer = traced_line3()
        io_events = [e for e in tracer.events()
                     if e.kind in ("read", "write")]
        assert io_events
        for e in io_events:
            assert e.file and e.page is not None and e.page >= 0

    def test_suspended_io_is_invisible(self):
        tracer = Tracer()
        device = Device(M=16, B=4, observers=[tracer])
        device.file_from_tuples_free([(i,) for i in range(64)])
        assert tracer.seen == 0
        assert tracer.summary()["io"]["total"] == 0

    def test_reset_stats_resets_tracer(self):
        device, tracer = traced_line3()
        device.reset_stats()
        assert tracer.seen == 0 and tracer.events() == []
        assert tracer.summary()["io"]["total"] == 0

    def test_detach_stops_observation(self):
        tracer = Tracer()
        device = Device(M=16, B=4)
        device.observe(tracer)
        f = device.file_from_tuples_free([(i,) for i in range(8)])
        device.unobserve(tracer)
        list(f.reader())
        with device.phases.phase("p"), device.memory.hold(3):
            pass
        assert device.stats.reads == 2 and tracer.seen == 0
        assert device.observers == []

    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_event_as_dict_omits_none_fields(self):
        e = TraceEvent(seq=3, kind="mem_peak", value=7)
        assert e.as_dict() == {"seq": 3, "kind": "mem_peak", "value": 7}

    def test_unattributed_phase_key(self):
        tracer = Tracer()
        device = Device(M=16, B=4, observers=[tracer])
        f = device.file_from_tuples_free([(i,) for i in range(8)])
        list(f.reader())
        assert tracer.summary()["per_phase"] == {
            UNATTRIBUTED: {"reads": 2, "writes": 0, "total": 2}}


def nested_phases(*labels):
    """A device observed by a tracer and a profiler; one page read
    inside the phases ``labels`` (outermost first), one write in the
    outermost only, one read outside every phase."""
    tracer, profiler = Tracer(), SpanProfiler()
    device = Device(M=16, B=4, observers=[tracer, profiler])
    f = device.file_from_tuples_free([(i,) for i in range(12)])
    with device.phases.phase(labels[0]):
        with contextlib.ExitStack() as stack:
            for label in labels[1:]:
                stack.enter_context(device.phases.phase(label))
            device.charge_read(f, 0)
        device.charge_write(f, 1)
    device.charge_read(f, 2)
    return device, tracer, profiler


class TestInclusiveRollups:
    """The tracer's per-phase view is exclusive; the inclusive view
    (a phase's I/O with its children's) is the phase span's ``io``."""

    def test_exclusive_sums_to_total_inclusive_overlaps(self):
        profiler = SpanProfiler()
        device, tracer = traced_line3(also=[profiler])
        s = tracer.summary()
        exclusive = sum(v["total"] for v in s["per_phase"].values())
        assert exclusive == device.stats.total
        # Phase spans overlap whenever phases nest, so their sum can
        # only meet or exceed the attributed part of the partition.
        attributed = exclusive - s["per_phase"].get(
            UNATTRIBUTED, {"total": 0})["total"]
        inclusive = sum(sp.io for sp in profiler.iter_spans()
                        if sp.kind == "phase")
        assert inclusive >= attributed > 0

    def test_inclusive_dominates_exclusive_per_label(self):
        profiler = SpanProfiler()
        _, tracer = traced_line3(also=[profiler])
        inclusive: dict[str, list[int]] = {}
        for sp in profiler.iter_spans():
            if sp.kind == "phase":
                row = inclusive.setdefault(sp.name, [0, 0])
                row[0] += sp.reads
                row[1] += sp.writes
        per_phase = tracer.summary()["per_phase"]
        assert set(per_phase) - {UNATTRIBUTED} <= set(inclusive)
        for label, b in per_phase.items():
            if label != UNATTRIBUTED:
                assert inclusive[label][0] >= b["reads"]
                assert inclusive[label][1] >= b["writes"]

    def test_nested_charge_goes_to_innermost_exclusively(self):
        _, tracer, profiler = nested_phases("outer", "inner")
        assert {k: v["total"] for k, v in
                tracer.summary()["per_phase"].items()} == {
            "inner": 1, "outer": 1, UNATTRIBUTED: 1}
        (outer,) = profiler.roots
        (inner,) = outer.children
        assert (outer.name, outer.io, outer.exclusive_io) == \
            ("outer", 2, 1)
        assert (inner.name, inner.io) == ("inner", 1)

    def test_recursive_label_charged_once_inclusively(self):
        _, tracer, profiler = nested_phases("sort", "merge", "sort")
        per_phase = tracer.summary()["per_phase"]
        assert per_phase["sort"]["total"] == 2
        assert "merge" not in per_phase
        # The outermost "sort" span counts the inner read once.
        (outer,) = profiler.roots
        (merge,) = outer.children
        (inner,) = merge.children
        assert (outer.reads, merge.reads, inner.reads) == (1, 1, 1)

    def test_reset_clears_inclusive_view(self):
        device, tracer, profiler = nested_phases("p")
        device.reset_stats()
        assert profiler.roots == []
        assert tracer.summary()["per_phase"] == {}


class TestBaseline:
    def doc(self):
        return {"classes": {
            "line3": {"machine": {"M": 4, "B": 2},
                      "pool_off": {"io": {"reads": 325, "writes": 146,
                                          "total": 471},
                                   "results": 1024,
                                   "phases": {"sort": 200},
                                   "peak_mem": 8}}}}

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_baseline(path, self.doc()["classes"], meta={"note": "t"})
        loaded = load_baseline(path)
        assert loaded["classes"] == self.doc()["classes"]
        assert loaded["meta"] == {"note": "t"}

    def test_load_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999,
                                    "classes": {}}))
        with pytest.raises(ValueError, match="schema_version"):
            load_baseline(path)

    def test_no_drift_on_identical_docs(self):
        assert compare_baselines(self.doc(), self.doc()) == []

    def test_integer_drift_is_reported(self):
        fresh = json.loads(json.dumps(self.doc()))
        fresh["classes"]["line3"]["pool_off"]["io"]["reads"] = 326
        drift = compare_baselines(self.doc(), fresh)
        assert drift == ["line3.pool_off.io.reads: 325 -> 326"]

    def test_missing_class_is_reported_both_ways(self):
        fresh = {"classes": {}}
        assert "not re-measured" in compare_baselines(
            self.doc(), fresh)[0]
        assert "missing from the committed" in compare_baselines(
            fresh, self.doc())[0]

    def test_float_tolerance(self):
        old = {"classes": {"c": {"hit_rate": 0.5}}}
        new = {"classes": {"c": {"hit_rate": 0.5 + 1e-12}}}
        assert compare_baselines(old, new) == []
        new = {"classes": {"c": {"hit_rate": 0.51}}}
        assert compare_baselines(old, new) == [
            "c.hit_rate: 0.5 -> 0.51"]

    def test_committed_table1_baseline_matches_fresh_run(self):
        """The committed BENCH_table1.json must reproduce exactly —
        the same check CI runs, minus the subprocess."""
        import pathlib
        import sys

        bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
        sys.path.insert(0, str(bench_dir))
        try:
            from _util import table1_baseline
        finally:
            sys.path.pop(0)
        committed = load_baseline(bench_dir / "BENCH_table1.json")
        fresh = {"classes": table1_baseline()}
        assert compare_baselines(committed, fresh) == []
