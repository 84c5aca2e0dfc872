"""Tests for Algorithm 2's recursion spans (the "explain" transcript)."""

from repro import Device, Instance
from repro.core import CountingEmitter, acyclic_join
from repro.obs import NULL_SPAN, SpanProfiler
from repro.query import line_query, star_query
from repro.workloads import schemas_for

from conftest import make_random_data

STEPS = ("scan", "peel_bud", "peel_island", "peel_leaf")


def traced_run(q, schemas, data, profiler):
    """Run ``acyclic_join`` under ``profiler``; return the recursion
    spans, depth-first, with the device."""
    device = Device(M=4, B=2, observers=[profiler])
    inst = Instance.from_dicts(device, schemas, data)
    acyclic_join(q, inst, CountingEmitter())
    return [s for s in profiler.iter_spans() if s.name in STEPS], device


class TestRecursionTrace:
    def test_records_leaf_peels_with_split(self):
        q = line_query(3)
        schemas = schemas_for(q)
        # one heavy value (20 >= M=4) and some light ones in e1 on v2
        data = {"e1": [(i, 0) for i in range(20)] + [(i, 1 + i % 3)
                                                     for i in range(6)],
                "e2": [(j % 4, j) for j in range(8)],
                "e3": [(j, j % 3) for j in range(8)]}
        steps, _ = traced_run(q, schemas, data, SpanProfiler())
        leafs = [s for s in steps if s.name == "peel_leaf"]
        assert leafs
        assert leafs[0].attrs == {"edge": "e1", "v": "v2", "heavy": 1,
                                  "light": 3}
        # The root is the acyclic_join span; its steps nest below it.
        assert max(s.depth for s in steps) >= 2
        assert all(c.depth == s.depth + 1
                   for s in steps for c in s.children)

    def test_star_trace_shows_bud_or_islands_downstream(self):
        q = star_query(2)
        schemas, data = make_random_data(q, 12, 3, seed=1)
        steps, _ = traced_run(q, schemas, data, SpanProfiler())
        names = {s.name for s in steps}
        assert "peel_leaf" in names
        assert "scan" in names  # base case reached
        scans = [s for s in steps if s.name == "scan"]
        assert all(s.attrs["n"] >= 0 and not s.children for s in scans)

    def test_render_is_indented_and_limited(self):
        """The transcript is the span tree: nested by depth, and a
        profiler's capacity bounds it with the overflow counted."""
        q = line_query(2)
        schemas, data = make_random_data(q, 8, 3, seed=0)
        full, _ = traced_run(q, schemas, data, SpanProfiler())
        capped = SpanProfiler(capacity=3)
        traced_run(q, schemas, data, capped)
        assert capped.span_count == 3
        assert capped.dropped > 0
        kept = list(capped.iter_spans())
        assert [s.depth for s in kept] == list(range(3))
        assert len(full) > 0

    def test_no_trace_is_default(self):
        q = line_query(2)
        schemas, data = make_random_data(q, 5, 3, seed=0)
        device = Device(M=4, B=2)
        assert device.span("peel_leaf") is NULL_SPAN
        inst = Instance.from_dicts(device, schemas, data)
        acyclic_join(q, inst, CountingEmitter())
        _, observed = traced_run(q, schemas, data, SpanProfiler())
        assert device.stats.snapshot() == observed.stats.snapshot()
