"""Tests for per-phase I/O attribution."""

import pytest

from repro import Device, Instance
from repro.core import CountingEmitter, acyclic_join
from repro.core.triangle import triangle_join
from repro.em import MemoryBudgetExceeded
from repro.obs import SpanProfiler
from repro.obs.observer import Observer
from repro.query import line_query, triangle_query


class TestPhaseTracker:
    def test_exclusive_attribution_when_nested(self, small_device):
        tracker = small_device.phases
        with tracker.phase("outer"):
            small_device.file_from_tuples([(i,) for i in range(8)])  # 2 w
            with tracker.phase("inner"):
                small_device.file_from_tuples([(i,) for i in range(16)])
        assert tracker.totals["inner"] == 4
        assert tracker.totals["outer"] == 2

    def test_report_includes_remainder(self, small_device):
        with small_device.phases.phase("a"):
            small_device.file_from_tuples([(1,)])
        small_device.file_from_tuples([(2,)])
        rep = small_device.phases.report()
        assert rep["a"] == 1
        assert rep["(unattributed)"] == 1
        assert sum(rep.values()) == small_device.stats.total

    def test_repeated_phases_accumulate(self, small_device):
        for _ in range(3):
            with small_device.phases.phase("w"):
                small_device.file_from_tuples([(1,)])
        assert small_device.phases.totals["w"] == 3

    def test_reset(self, small_device):
        with small_device.phases.phase("x"):
            small_device.file_from_tuples([(1,)])
        small_device.reset_stats()
        assert small_device.phases.totals == {}
        assert small_device.stats.total == 0


class _Recorder(Observer):
    """Logs phase and span boundaries in the order they arrive."""

    def __init__(self):
        self.events = []

    def on_phase_enter(self, label):
        self.events.append(("enter", label))

    def on_phase_exit(self, label, exclusive_io):
        self.events.append(("exit", label, exclusive_io))

    def on_span_open(self, device, name, kind, attrs):
        self.events.append(("open", name, kind))
        return name

    def on_span_close(self, device, handle):
        self.events.append(("close", handle))


class TestScopesUnwindOnError:
    """A raise inside nested phases and memory holds leaves no phase
    open and no tuple held, and the attribution still adds up."""

    def test_nested_phases_and_holds(self):
        device = Device(M=8, B=2)
        recorder, profiler = _Recorder(), SpanProfiler()
        device.observe(recorder)
        device.observe(profiler)
        phases, memory = device.phases, device.memory
        device.file_from_tuples([(1,)])             # 1 write, no phase
        with pytest.raises(KeyError):
            with phases.phase("outer"), memory.hold(3):
                device.file_from_tuples([(i,) for i in range(4)])  # 2
                with phases.phase("inner"), memory.hold(5):
                    device.file_from_tuples([(i,) for i in range(6)])
                    assert memory.current == 8
                    raise KeyError("boom")
        assert phases._stack == []
        assert memory.current == 0 and memory.peak == 8
        report = phases.report()
        assert report == {"inner": 3, "outer": 2, "(unattributed)": 1}
        assert sum(report.values()) == device.stats.total == 6
        assert recorder.events == [
            ("enter", "outer"), ("open", "outer", "phase"),
            ("enter", "inner"), ("open", "inner", "phase"),
            ("close", "inner"), ("exit", "inner", 3),
            ("close", "outer"), ("exit", "outer", 2)]
        (root,) = profiler.roots
        assert root.closed and [c.name for c in root.children] == ["inner"]
        assert (root.exclusive_io, root.children[0].io) == (2, 3)
        # The scopes are reusable afterwards.
        with phases.phase("outer"), memory.hold(1):
            device.file_from_tuples([(1,)])
        assert phases.totals["outer"] == 3 and memory.current == 0

    def test_failed_strict_hold_inside_a_phase(self):
        device = Device(M=2, B=2, mem_slack=1.0, strict_memory=True)
        with pytest.raises(MemoryBudgetExceeded):
            with device.phases.phase("load"), device.memory.hold(2):
                with device.memory.hold(1):
                    pass
        assert device.phases._stack == []
        assert device.memory.current == 0
        assert device.phases.report() == {"load": 0, "(unattributed)": 0}


class TestFreeMaterializationAttribution:
    """Regression: ``file_from_tuples_free`` must suspend counting.

    The old implementation rewound ``stats.reads/writes`` after the
    writes happened; any I/O an inner phase attributed in between was
    erased from the device total but not from the phase, driving the
    enclosing phase's exclusive total negative.
    """

    def test_free_materialization_inside_phase_is_invisible(self,
                                                            small_device):
        with small_device.phases.phase("setup"):
            small_device.file_from_tuples_free([(i,) for i in range(20)])
        assert small_device.phases.totals["setup"] == 0
        assert small_device.stats.total == 0

    def test_charged_work_inside_free_generator_stays_consistent(self):
        device = Device(M=8, B=2)

        def gen():
            # Charged I/O attributed to an inner phase *during* the
            # free materialization — the case the rewind corrupted.
            with device.phases.phase("inner"):
                device.file_from_tuples([(i,) for i in range(8)])
            yield (0,)

        with device.phases.phase("outer"):
            device.file_from_tuples_free(gen())
        report = device.phases.report()
        assert all(v >= 0 for v in report.values()), report
        assert sum(report.values()) == device.stats.total
        # Suspension makes the whole materialization free, including
        # work its input generator performs.
        assert device.stats.total == 0

    def test_free_materialization_bypasses_the_pool(self):
        from repro.em import PoolConfig

        device = Device(M=8, B=2,
                        buffer_pool=PoolConfig(frames=4))
        device.file_from_tuples_free([(i,) for i in range(8)])
        device.flush_pool()
        assert device.stats.total == 0
        assert device.pool.resident_pages == 0


class TestInstrumentation:
    def test_acyclic_join_attributes_sorts_and_semijoins(self):
        device = Device(M=8, B=2)
        inst = Instance.from_dicts(
            device,
            {"e1": ("v1", "v2"), "e2": ("v2", "v3"), "e3": ("v3", "v4")},
            {"e1": [(i, i % 3) for i in range(20)],
             "e2": [(i % 3, i % 4) for i in range(10)],
             "e3": [(i % 4, i) for i in range(20)]})
        acyclic_join(line_query(3), inst, CountingEmitter())
        rep = device.phases.report()
        assert rep.get("sort", 0) > 0
        assert sum(rep.values()) == device.stats.total

    def test_triangle_attributes_partitioning(self):
        rows = [(i, j) for i in range(6) for j in range(6)]
        device = Device(M=16, B=4)
        inst = Instance.from_dicts(
            device,
            {"e1": ("v1", "v2"), "e2": ("v1", "v3"), "e3": ("v2", "v3")},
            {"e1": rows, "e2": rows, "e3": rows})
        triangle_join(triangle_query(), inst, CountingEmitter())
        rep = device.phases.report()
        assert rep.get("partition", 0) > 0
