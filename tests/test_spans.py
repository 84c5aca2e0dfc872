"""Tests for the span profiler, metrics, exporters, and bound fits."""

import json

import pytest

from repro import Device, Instance, Tracer, line_query
from repro.analysis import FIT_CLASSES, fit_class, fit_loglog
from repro.analysis.fitting import BoundTerm, FitPoint, FitResult
from repro.core import CountingEmitter, line3_join
from repro.em import PoolConfig
from repro.obs import (Histogram, MetricsRegistry, NULL_SPAN,
                       ProfiledEmitter, SpanProfiler, to_chrome_trace,
                       to_prometheus)
from repro.workloads import fig3_line3_instance


def profiled_line3(M=4, B=2):
    """The fixed L3 instance under a profiler; (device, profiler, emitter)."""
    profiler = SpanProfiler()
    device = Device(M=M, B=B, observers=[profiler])
    schemas, data = fig3_line3_instance(32, 32)
    instance = Instance.from_dicts(device, schemas, data)
    emitter = ProfiledEmitter(CountingEmitter(), profiler)
    line3_join(line_query(3), instance, emitter)
    device.flush_pool()
    return device, profiler, emitter


class TestProfilerTransparency:
    def test_profiling_never_charges(self):
        """Profiled and unprofiled runs have byte-identical counters —
        the same 325/146/1024 the tracer tests pin."""
        device, _, emitter = profiled_line3()
        assert device.stats.reads == 325
        assert device.stats.writes == 146
        assert emitter.count == 1024

    def test_null_span_is_reentrant_noop(self):
        device = Device(M=16, B=4)
        assert device.span("anything") is NULL_SPAN
        with device.span("outer") as a, device.span("inner") as b:
            a.set("k", 1)
            b.add_tuples(3)
        assert device.observers == []

    def test_detach_restores_null_behavior(self):
        profiler = SpanProfiler()
        device = Device(M=16, B=4, observers=[profiler])
        assert device.span("x") is not NULL_SPAN
        device.unobserve(profiler)
        assert device.span("x") is NULL_SPAN
        with device.phases.phase("p"):
            pass
        assert profiler.roots == []


class TestSpanTree:
    def test_roots_plus_unattributed_reconcile_to_total(self):
        device, profiler, _ = profiled_line3()
        s = profiler.summary()
        assert s["total_io"] == device.stats.total
        assert s["attributed_io"] + s["unattributed_io"] == s["total_io"]
        # Exclusive I/O over the whole tree also covers exactly the
        # attributed portion (no double counting).
        exclusive = sum(sp.exclusive_io for sp in profiler.iter_spans())
        assert exclusive == s["attributed_io"]

    def test_algorithm_root_contains_phase_spans(self):
        _, profiler, _ = profiled_line3()
        roots = [s for s in profiler.roots if s.closed]
        assert [r.name for r in roots] == ["line3_join"]
        root = roots[0]
        assert root.kind == "algorithm"
        kinds = {c.kind for c in root.children}
        assert "phase" in kinds  # PhaseTracker phases auto-nest
        names = [s.name for s in profiler.iter_spans()]
        assert "heavy_values" in names and "light_values" in names

    def test_tuples_counted_via_profiled_emitter(self):
        _, profiler, _ = profiled_line3()
        assert profiler.tuples_produced == 1024
        (root,) = [s for s in profiler.roots if s.closed]
        assert root.tuples == 1024

    def test_span_deltas_are_consistent(self):
        _, profiler, _ = profiled_line3()
        for sp in profiler.iter_spans():
            assert sp.closed
            assert sp.reads >= 0 and sp.writes >= 0
            assert sp.io == sp.reads + sp.writes
            assert sp.exclusive_io >= 0
            assert sp.wall_s >= 0
            d = sp.as_dict()
            assert d["io"]["total"] == sp.io

    def test_capacity_keeps_nesting_balanced(self):
        profiler = SpanProfiler(capacity=2)
        device = Device(M=16, B=4, observers=[profiler])
        with device.span("a"):
            with device.span("b"):
                with device.span("c"):  # over capacity: dropped
                    with device.span("d"):  # child of dropped: dropped
                        pass
        s = profiler.summary()
        assert s["span_count"] == 2
        assert s["dropped"] == 2
        assert [sp.name for sp in profiler.iter_spans()] == ["a", "b"]

    def test_close_out_of_order_raises(self):
        profiler = SpanProfiler()
        device = Device(M=16, B=4, observers=[profiler])
        a = profiler.on_span_open(device, "a")
        profiler.on_span_open(device, "b")
        with pytest.raises(RuntimeError, match="innermost"):
            profiler.on_span_close(device, a)

    def test_reset_stats_resets_profiler(self):
        device, profiler, _ = profiled_line3()
        device.reset_stats()
        assert profiler.roots == [] and profiler.span_count == 0
        assert profiler.tuples_produced == 0

    def test_reset_with_open_span_raises(self):
        profiler = SpanProfiler()
        device = Device(M=16, B=4, observers=[profiler])
        profiler.on_span_open(device, "still-open")
        with pytest.raises(RuntimeError, match="open"):
            profiler.reset()

    def test_refused_reset_stats_changes_nothing(self):
        """A profiler with a span open refuses the reset before the
        device, its pool or any other observer has been touched."""
        tracer, profiler = Tracer(), SpanProfiler()
        device = Device(M=16, B=4, buffer_pool=PoolConfig(frames=2),
                        observers=[tracer, profiler])
        f = device.file_from_tuples([(i,) for i in range(20)])
        with device.phases.phase("p"), device.span("still-open"):
            list(f.reader())
            with device.memory.hold(3):
                before = (device.stats.snapshot(), device.memory.peak,
                          dict(device.phases.totals),
                          device.pool.resident_pages,
                          device.pool.peak_resident_pages,
                          tracer.summary())
                with pytest.raises(RuntimeError, match="open"):
                    device.reset_stats()
                after = (device.stats.snapshot(), device.memory.peak,
                         dict(device.phases.totals),
                         device.pool.resident_pages,
                         device.pool.peak_resident_pages,
                         tracer.summary())
                assert device.memory.current == 3
        assert after == before
        assert before[0].total > 0
        assert [sp.name for sp in profiler.iter_spans()] == [
            "p", "still-open"]
        device.reset_stats()
        assert device.stats.total == 0 and tracer.seen == 0

    def test_validates_capacity(self):
        with pytest.raises(ValueError):
            SpanProfiler(capacity=0)

    def test_sort_spans_carry_their_run_counts(self):
        """Each external sort's ``form_runs`` span records the runs it
        wrote, and its merge levels record their fan-in."""
        _, profiler, _ = profiled_line3()
        sorts = [s for s in profiler.iter_spans()
                 if s.name == "external_sort"]
        assert sorts
        for sort in sorts:
            form = sort.children[0]
            assert form.name == "form_runs"
            runs = form.attrs["runs"]
            assert runs == max(1, -(-sort.attrs["n"] // 4))  # ⌈n/M⌉
            levels = [c for c in sort.children if c.name == "merge_level"]
            assert [lv.attrs["runs"] for lv in levels[:1]] == \
                ([runs] if runs > 1 else [])


class TestMetrics:
    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_tracks_extremes(self):
        g = MetricsRegistry().gauge("g")
        for v in (5, 2, 9):
            g.set(v)
        assert g.as_dict() == {"value": 9, "max": 9, "min": 2,
                               "updates": 3}

    def test_histogram_buckets_are_upper_bounds(self):
        h = Histogram("h", buckets=(1, 2, 4))
        for v in (1, 2, 3, 100):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.as_dict()["buckets"] == {"1": 1, "2": 1, "4": 1,
                                          "+inf": 1}

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2, 1))


class TestExporters:
    def test_chrome_trace_round_trips_through_json(self, tmp_path):
        _, profiler, _ = profiled_line3()
        doc = json.loads(json.dumps(to_chrome_trace(profiler)))
        events = doc["traceEvents"]
        assert len(events) == profiler.span_count
        for e in events:
            assert e["ph"] == "X"
            assert e["pid"] == 1 and e["tid"] == 1
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["args"]["io_total"] >= 0
        names = {e["name"] for e in events}
        assert "line3_join" in names
        assert doc["otherData"]["span_count"] == profiler.span_count

    def test_prometheus_text_parses_line_by_line(self):
        metrics = MetricsRegistry()
        metrics.counter("sort.runs").inc(3)
        metrics.gauge("pool.resident_pages").set(7)
        h = metrics.histogram("sort.run_tuples", buckets=(1, 4))
        for v in (1, 3, 9):
            h.observe(v)
        text = to_prometheus(metrics)
        samples = {}
        for line in text.strip().splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                assert kind in ("counter", "gauge", "histogram")
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
        assert samples["repro_sort_runs"] == 3
        assert samples["repro_pool_resident_pages"] == 7
        assert samples["repro_pool_resident_pages_max"] == 7
        # Cumulative buckets end at the total count.
        assert samples['repro_sort_run_tuples_bucket{le="1"}'] == 1
        assert samples['repro_sort_run_tuples_bucket{le="4"}'] == 2
        assert samples['repro_sort_run_tuples_bucket{le="+Inf"}'] == 3
        assert samples["repro_sort_run_tuples_count"] == 3
        assert samples["repro_sort_run_tuples_sum"] == 13

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestFit:
    def test_loglog_recovers_exact_power_law(self):
        xs = [10.0, 100.0, 1000.0]
        ys = [2 * x ** 1.5 for x in xs]
        slope, intercept, r2 = fit_loglog(xs, ys)
        assert slope == pytest.approx(1.5)
        assert r2 == pytest.approx(1.0)

    def test_loglog_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_loglog([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            fit_loglog([1.0, -2.0], [2.0, 3.0])

    def test_two_relations_constant_and_slope(self):
        """Acceptance: the nested-loop sweep fits its Table-1 bound
        with an O(1) constant and a near-linear slope."""
        res = fit_class("two_relations")
        assert 0.5 <= res.constant <= 2.0
        assert abs(res.slope - 1.0) <= res.eps
        assert not res.regression
        assert res.dominant_term == "N1N2/(MB)"
        for p in res.points:
            assert p.io > 0 and p.bound > 0

    def test_all_registered_classes_fit_cleanly(self):
        for name in FIT_CLASSES:
            res = fit_class(name)
            assert not res.regression, (
                f"{name}: slope {res.slope:.3f} exceeds 1+{res.eps}")
            assert res.r2 > 0.9
            assert res.term_shares
            assert sum(res.term_shares.values()) == pytest.approx(1.0)

    def test_synthetic_regression_is_flagged(self):
        """A quadratic-in-bound measurement must trip the flag."""
        points = [FitPoint(n=n, M=4, B=2, io=n * n, results=0,
                           bound=float(n), ratio=float(n),
                           terms=(BoundTerm("lin", float(n)),))
                  for n in (8, 16, 32)]
        slope, intercept, r2 = fit_loglog(
            [p.bound for p in points], [float(p.io) for p in points])
        res = FitResult(name="synth", bound_name="lin", points=points,
                        constant=16.0, slope=slope, intercept=intercept,
                        r2=r2, eps=0.25, term_shares={"lin": 1.0},
                        dominant_term="lin")
        assert res.slope == pytest.approx(2.0)
        assert res.regression
        assert res.as_dict()["regression"] is True

    def test_unknown_class_raises_with_choices(self):
        with pytest.raises(ValueError, match="two_relations"):
            fit_class("nope")

    def test_fit_profiler_sees_every_point(self):
        profiler = SpanProfiler()
        res = fit_class("two_relations", profiler=profiler)
        fit_roots = [s for s in profiler.roots
                     if s.name == "fit:two_relations"]
        assert len(fit_roots) == len(res.points)
        # Each point ran on a fresh device; the span I/O matches the
        # measured I/O of that point exactly.
        assert [s.io for s in fit_roots] == [p.io for p in res.points]

    def test_measured_points_match_profiled_rerun(self):
        """Profiling a fit does not change the measured I/O."""
        bare = fit_class("two_relations")
        profiled = fit_class("two_relations", profiler=SpanProfiler())
        assert [p.io for p in bare.points] == \
            [p.io for p in profiled.points]
        assert bare.constant == profiled.constant
