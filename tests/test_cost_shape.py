"""Measured I/O against the closed-form bound, at two scales.

The entry points here have no pinned golden stream or fitted slope of
their own, so this is their cost-shape check: on a worst-case
construction, ``device.stats.total`` stays within a constant of the
``analysis.bounds`` closed form, and the ratio does not grow when the
instance doubles.  The Õ hides log and per-page rounding factors, so
the growth check allows ``GROWTH`` of creep; a rescan per group or per
memory load would multiply the ratio by about the scale factor.
"""

import pytest

from repro import Device, Instance
from repro.analysis import bounds
from repro.core import (CountingEmitter, line5_unbalanced_join,
                        line7_cover11_join, yannakakis_em)
from repro.core.lw import lw_join, lw_query
from repro.query import line_query
from repro.workloads import (cross_product_instance, fig3_line3_instance,
                             l5_for_regime, mapping_line_instance)

#: io / bound may be at most this (largest observed: 5.75).
C = 10
#: The larger scale's ratio may be at most this times the smaller's.
GROWTH = 1.25


def _line5(s, M, B):
    # Observed io/bound at M=4, B=2: 5.75 (s=12), 4.46 (s=24).
    query, schemas, data = l5_for_regime(s, balanced=False)
    sizes = [len(data[f"e{i}"]) for i in range(1, 6)]
    return (query, schemas, data,
            lambda out: bounds.line5_unbalanced_bound(sizes, M, B))


def _line7_cover11(s, M, B):
    # The unbalanced L5 of Section 6.3 between two end relations of
    # size s; s a multiple of M keeps the end loads whole.  Observed
    # io/bound at M=4, B=2: 5.61 (s=8), 5.10 (s=16).
    schemas, data = mapping_line_instance(
        [s, 1, s, 2, 2, s, 1, s],
        ["cross", "cross", "cross", "onto", "cross", "cross", "cross"])
    sizes = [len(data[f"e{i}"]) for i in range(1, 8)]
    return (line_query(7), schemas, data,
            lambda out: bounds.line7_cover11_bound(sizes, M, B))


def _lw3(k, M, B):
    # Dense LW_3 (every relation the full k×k grid); its bound
    # (N/M)^{3/2}·M/B is the triangle's closed form.  Observed io/bound
    # at M=16, B=2: 3.58 (k=12), 4.10 (k=24).
    query = lw_query(3)
    schemas, data = cross_product_instance(
        query, {a: k for a in query.attributes})
    n = len(data["e1"])
    return (query, schemas, data,
            lambda out: bounds.triangle_bound(n, n, n, M, B))


def _yannakakis(n, M, B):
    # Figure 3's L3 (output n²).  Observed io/bound at M=8, B=2:
    # 1.87 (n=32), 1.52 (n=64).
    schemas, data = fig3_line3_instance(n, n)
    total = sum(len(rows) for rows in data.values())
    return (line_query(3), schemas, data,
            lambda out: bounds.yannakakis_em_bound(out, total, M, B))


@pytest.mark.parametrize("build, join, M, B, scales", [
    pytest.param(_line5, line5_unbalanced_join, 4, 2, (12, 24),
                 id="line5_unbalanced_join"),
    pytest.param(_line7_cover11, line7_cover11_join, 4, 2, (8, 16),
                 id="line7_cover11_join"),
    pytest.param(_lw3, lw_join, 16, 2, (12, 24), id="lw_join"),
    pytest.param(_yannakakis, yannakakis_em, 8, 2, (32, 64),
                 id="yannakakis_em"),
])
def test_io_stays_within_the_closed_form_bound(build, join, M, B, scales):
    ratios = []
    for scale in scales:
        query, schemas, data, bound = build(scale, M, B)
        device = Device(M=M, B=B)
        instance = Instance.from_dicts(device, schemas, data)
        emitter = CountingEmitter()
        join(query, instance, emitter)
        expected = bound(emitter.count)
        assert device.stats.total <= C * expected, (scale,
                                                    device.stats.total,
                                                    expected)
        ratios.append(device.stats.total / expected)
    assert ratios[1] <= GROWTH * ratios[0], ratios
