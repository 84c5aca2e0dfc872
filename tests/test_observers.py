"""Several observers on one device, observed through one list.

A :class:`~repro.obs.Tracer` and a :class:`~repro.obs.SpanProfiler`
observing the same device must each see what they would see alone, and
neither may change a charge: the golden event streams of
``test_em_blocks`` still match with both observing.
"""

import json

import pytest

from repro import Device, Tracer
from repro.analysis import FIT_CLASSES
from repro.analysis.fitting import measure_point
from repro.em import PoolConfig
from repro.obs import NULL_SPAN, Observer, SpanProfiler

from test_em_blocks import CASES, GOLDEN, record, traced_device


def without_wall(tree):
    """A span dict (or list of them) with every ``wall_ms`` dropped."""
    if isinstance(tree, list):
        return [without_wall(t) for t in tree]
    out = {k: v for k, v in tree.items() if k != "wall_ms"}
    if "children" in out:
        out["children"] = without_wall(out["children"])
    return out


def tree(profiler):
    summary = profiler.summary()
    summary["spans"] = without_wall(summary["spans"])
    return summary


#: One pool-off and one pool-on case of ``test_em_blocks.CASES``.
TWO_CASES = [("execute_L3", False), ("line3_heavy_light", True)]


class TestTracerAndProfiler:
    @pytest.mark.parametrize("name,pool", TWO_CASES)
    def test_both_observing_match_the_golden_streams(self, name, pool):
        golden = json.loads(GOLDEN.read_text())
        key = f"{name}/{'pool_on' if pool else 'pool_off'}"
        profiler = SpanProfiler()
        assert record(name, pool, also=[profiler]) == golden[key]
        assert profiler.span_count > 0 and profiler.dropped == 0

    @pytest.mark.parametrize("name,pool", TWO_CASES)
    def test_span_tree_equals_the_profiler_alone(self, name, pool):
        M, B, run = CASES[name]
        together = SpanProfiler()
        dev, tracer = traced_device(M=M, B=B, pool=pool,
                                    strict_memory=True, also=[together])
        run(dev)
        alone = SpanProfiler()
        dev2, tracer2 = traced_device(M=M, B=B, pool=pool,
                                      strict_memory=True, also=[alone])
        dev2.unobserve(tracer2)
        run(dev2)
        assert tracer2.seen == 0 and tracer.seen > 0
        assert tree(together) == tree(alone)
        assert dev.stats.total == dev2.stats.total > 0

    def test_unobserve_stops_each_observer(self):
        tracer, profiler = Tracer(), SpanProfiler()
        device = Device(M=16, B=4, buffer_pool=PoolConfig(frames=2),
                        observers=[tracer, profiler])
        f = device.file_from_tuples([(i,) for i in range(20)])
        with device.phases.phase("load"):
            list(f.reader())
        seen, spans = tracer.seen, profiler.span_count
        device.unobserve(tracer)
        with device.phases.phase("again"), device.memory.hold(99):
            list(f.reader())
        assert tracer.seen == seen
        assert profiler.span_count == spans + 1
        device.unobserve(profiler)
        assert device.observers == []
        assert device.span("x") is NULL_SPAN
        with device.phases.phase("third"):
            list(f.reader())
        assert profiler.span_count == spans + 1
        with pytest.raises(ValueError):
            device.unobserve(profiler)

    def test_observe_after_construction_sees_phases_and_peaks(self):
        device = Device(M=16, B=4)
        tracer = Tracer()
        device.observe(tracer)
        with device.phases.phase("p"), device.memory.hold(5):
            pass
        assert [e.kind for e in tracer.events()] == [
            "phase_enter", "mem_peak", "phase_exit"]


class TestFitPattern:
    def test_one_profiler_across_fresh_devices(self):
        """``repro fit`` hands one profiler a fresh device per point;
        each point's span tree is the one a profiler of its own gets."""
        cls = FIT_CLASSES["two_relations"]
        shared = SpanProfiler()
        points = cls.default_points[:3]
        for n in points:
            measure_point(cls, n, cls.default_M, cls.default_B,
                          profiler=shared)
        assert len(shared.roots) == len(points)
        for n, root in zip(points, shared.roots):
            own = SpanProfiler()
            measure_point(cls, n, cls.default_M, cls.default_B,
                          profiler=own)
            (own_root,) = own.roots
            assert without_wall(root.as_dict()) == \
                without_wall(own_root.as_dict())


class CountingObserver(Observer):
    """Overrides one hook; the base class's no-ops cover the rest."""

    def __init__(self):
        self.reads = 0

    def on_read(self, file, page):
        self.reads += 1


class TestObserverBase:
    def test_minimal_observer_sees_reads_through_every_path(self):
        counter = CountingObserver()
        device = Device(M=16, B=4, buffer_pool=PoolConfig(frames=2),
                        observers=[counter])
        f = device.file_from_tuples([(i,) for i in range(20)])
        with device.phases.phase("p"), device.span("s") as span, \
                device.memory.hold(4):
            span.set("k", 1)
            span.add_tuples(2)
            list(f.reader())
        device.flush_pool()
        assert counter.reads == device.stats.reads > 0
        device.reset_stats()
        assert device.stats.total == 0
