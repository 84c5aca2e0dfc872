"""Block-granular cursor APIs: same pages, same order, fewer calls.

The invariant: every block operation charges **exactly** the page I/Os
its tuple-at-a-time equivalent charges, in the same global order.  The
cursor tests check it against ``next``/``append`` loops.  With a buffer
pool attached the order is observable (it drives LRU state), so the
operators are pinned by full traced event streams in
``golden_io_streams.json``, not just totals.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from operator import itemgetter
from pathlib import Path

import pytest

from repro import Device, Instance
from repro.core import (CountingEmitter, acyclic_join, acyclic_join_best,
                        execute, full_reduce_em, line3_join,
                        nested_loop_join, sort_merge_join)
from repro.em import (PoolConfig, external_sort, group_boundaries,
                      load_light_chunks, scan_matching, split_heavy_light)
from repro.obs.tracer import Tracer
from repro.query import line_query, star_query
from repro.workloads import (schemas_for, skewed_instance,
                             star_worstcase_instance)

from conftest import rows_of


def fill(device, n, name="f"):
    f = device.new_file(name)
    with f.writer() as w:
        for i in range(n):
            w.append((i,))
    return f


def traced_device(M=16, B=4, *, pool=False, also=(), **kwargs):
    """A device observed by a tracer, then by the observers in ``also``."""
    tracer = Tracer(capacity=1_000_000)
    if pool:
        kwargs["buffer_pool"] = PoolConfig(frames=max(2, M // B),
                                           policy="lru")
    dev = Device(M=M, B=B, observers=[tracer, *also], **kwargs)
    return dev, tracer


class TestReadBlockEdges:
    def test_empty_file_reads_nothing_and_charges_nothing(self,
                                                          small_device):
        f = small_device.new_file("empty")
        f.writer().close()
        r = f.reader()
        assert r.read_block(8) == []
        assert r.read_page_block() == []
        assert r.peek_page_block() == []
        assert list(f.scan_blocks()) == []
        assert small_device.stats.reads == 0

    def test_single_partial_page(self, small_device):
        f = fill(small_device, 3)  # B=4: one partial page
        small_device.stats.reset()
        r = f.reader()
        assert r.read_block(100) == [(0,), (1,), (2,)]
        assert small_device.stats.reads == 1
        assert r.exhausted
        assert r.read_block(1) == []

    def test_zero_and_negative_n(self, small_device):
        f = fill(small_device, 4)
        small_device.stats.reset()
        r = f.reader()
        assert r.read_block(0) == []
        assert r.read_block(-1) == []
        assert small_device.stats.reads == 0

    def test_multi_page_block_charges_each_page_once(self, small_device):
        f = fill(small_device, 16)  # 4 pages
        small_device.stats.reset()
        block = f.reader().read_block(16)
        assert block == [(i,) for i in range(16)]
        assert small_device.stats.reads == 4

    def test_buffered_page_not_recharged(self, small_device):
        f = fill(small_device, 8)
        small_device.stats.reset()
        r = f.reader()
        r.next()  # charges page 0
        assert small_device.stats.reads == 1
        # Block continuing inside page 0 charges only page 1.
        assert r.read_block(7) == [(i,) for i in range(1, 8)]
        assert small_device.stats.reads == 2

    def test_block_spanning_segment_boundary_stops_at_stop(
            self, small_device):
        f = fill(small_device, 16)
        seg = f.segment(2, 6)  # straddles pages 0 and 1, stops mid-page
        small_device.stats.reset()
        r = seg.reader()
        block = r.read_block(100)
        assert block == [(2,), (3,), (4,), (5,)]
        assert small_device.stats.reads == 2  # pages 0 and 1
        assert r.exhausted

    def test_page_block_clipped_by_segment(self, small_device):
        f = fill(small_device, 16)
        seg = f.segment(5, 7)  # inside page 1 only
        r = seg.reader()
        small_device.stats.reset()
        assert r.peek_page_block() == [(5,), (6,)]
        assert small_device.stats.reads == 1
        assert r.position == 5  # peek does not consume
        assert r.read_page_block() == [(5,), (6,)]
        assert small_device.stats.reads == 1  # same buffered page
        assert r.exhausted

    def test_scan_blocks_yields_page_aligned_blocks(self, small_device):
        f = fill(small_device, 10)  # B=4: 4 + 4 + 2
        blocks = list(f.scan_blocks())
        assert [len(b) for b in blocks] == [4, 4, 2]
        assert [t for b in blocks for t in b] == [(i,) for i in range(10)]

    def test_skip_then_block_charges_landing_page_only(self,
                                                       small_device):
        f = fill(small_device, 16)
        small_device.stats.reset()
        r = f.reader()
        r.skip_to(9)  # seek is free
        assert small_device.stats.reads == 0
        assert r.read_page_block() == [(9,), (10,), (11,)]
        assert small_device.stats.reads == 1


class TestWriterBlockEdges:
    def test_append_block_counts_equal_append_loop(self):
        for n in (0, 1, 3, 4, 5, 8, 11, 16):
            d1, d2 = Device(M=16, B=4), Device(M=16, B=4)
            ts = [(i,) for i in range(n)]
            f1 = d1.new_file("a")
            with f1.writer() as w:
                for t in ts:
                    w.append(t)
            f2 = d2.new_file("a")
            with f2.writer() as w:
                w.append_block(ts)
            assert d1.stats.writes == d2.stats.writes, n
            assert rows_of(f1) == rows_of(f2)

    def test_extend_list_takes_block_path_same_counters(self):
        d1, d2 = Device(M=16, B=4), Device(M=16, B=4)
        ts = [(i,) for i in range(13)]
        f1 = d1.new_file("a")
        with f1.writer() as w:
            w.extend(iter(ts))  # generator: tuple-at-a-time path
        f2 = d2.new_file("a")
        with f2.writer() as w:
            w.extend(ts)  # list: block fast path
        assert d1.stats.writes == d2.stats.writes == 4
        assert rows_of(f1) == rows_of(f2)

    def test_append_block_tops_up_partial_buffer(self, small_device):
        f = small_device.new_file("a")
        w = f.writer()
        w.append((0,))
        small_device.stats.reset()
        w.append_block([(i,) for i in range(1, 9)])  # 9 total: 2 pages
        assert small_device.stats.writes == 2
        w.close()
        assert small_device.stats.writes == 3  # final partial page
        assert rows_of(f) == [(i,) for i in range(9)]

    def test_mixed_append_and_block_interleave(self, small_device):
        f = small_device.new_file("a")
        with f.writer() as w:
            w.append((0,))
            w.append_block([(1,), (2,)])
            w.append((3,))  # fills page 0
            w.append_block([(4,), (5,), (6,), (7,), (8,)])
        assert rows_of(f) == [(i,) for i in range(9)]
        assert small_device.stats.writes == 3


class TestColumnarStorage:
    """Values survive the row store exactly as written.

    The class name and the test names date from the columnar layout;
    the checks are now value round-trips (type and identity included)
    and aliasing: blocks a caller holds are its own lists.
    """

    def test_int_columns_pack(self, small_device):
        f = small_device.new_file("ints")
        with f.writer() as w:
            w.append_block([(1, 2), (3, 4)])
        assert rows_of(f) == [(1, 2), (3, 4)]
        assert list(f.scan()) == [(1, 2), (3, 4)]

    def test_object_columns_stay_lists(self, small_device):
        f = small_device.new_file("objs")
        with f.writer() as w:
            w.append_block([(1, "a"), (2, "b")])
        assert rows_of(f) == [(1, "a"), (2, "b")]
        assert [type(v) for t in f.scan() for v in t] == [int, str] * 2

    def test_mixed_arity_falls_back_ragged(self, small_device):
        f = small_device.new_file("ragged")
        with f.writer() as w:
            w.append((1, 2))
            w.append((1, 2, 3))
            w.append_block([(4,), (5, 6), ()])
        expected = [(1, 2), (1, 2, 3), (4,), (5, 6), ()]
        assert rows_of(f) == expected
        assert f.reader().read_block(5) == expected

    def test_huge_ints_do_not_pack(self, small_device):
        f = small_device.new_file("big")
        with f.writer() as w:
            w.append_block([(2 ** 80,), (1,), (-2 ** 80,)])
        assert rows_of(f) == [(2 ** 80,), (1,), (-2 ** 80,)]
        assert f.reader().next() == (2 ** 80,)

    def test_bools_do_not_pack_as_ints(self, small_device):
        f = small_device.new_file("bools")
        with f.writer() as w:
            w.append_block([(True,), (False,)])
        assert rows_of(f) == [(True,), (False,)]
        first, second = f.reader().read_block(2)
        assert first[0] is True and second[0] is False

    def test_sorting_a_read_block_leaves_file_unchanged(self, small_device):
        f = small_device.new_file("f")
        with f.writer() as w:
            w.append_block([(i,) for i in range(9, -1, -1)])
        chunk = f.reader().read_block(10)
        chunk.sort()
        assert chunk[0] == (0,)
        assert rows_of(f) == [(i,) for i in range(9, -1, -1)]
        page = f.reader().peek_page_block()
        page.sort()
        assert rows_of(f)[:4] == [(9,), (8,), (7,), (6,)]

    def test_clearing_an_appended_block_leaves_file_unchanged(
            self, small_device):
        f = small_device.new_file("f")
        with f.writer() as w:
            for block in ([(i,) for i in range(8)],  # two whole pages
                          [(8,), (9,)],  # a partial page, buffered
                          [(i,) for i in range(10, 16)]):  # top-up
                w.append_block(block)
                block.clear()
        assert rows_of(f) == [(i,) for i in range(16)]

    def test_mutating_peek_tuples_leaves_file_unchanged(self, small_device):
        f = fill(small_device, 6)
        seen = rows_of(f)
        seen.clear()
        segment = rows_of(f.segment(1, 4))
        segment[0] = ("x",)
        assert rows_of(f) == [(i,) for i in range(6)]
        assert list(f.scan()) == [(i,) for i in range(6)]


GOLDEN = Path(__file__).with_name("golden_io_streams.json")


def _sort_case(dev):
    f = dev.new_file("src")
    with f.writer() as w:
        for i in range(13):
            w.append((i * 7919 % 13, i))
    return len(external_sort(f, lambda t: t[0], name="sorted"))


def _star_case(petals, *, best, query=None):
    def run(dev):
        q = star_query(len(petals)) if query is None else query
        schemas, data = star_worstcase_instance(petals)
        inst = Instance.from_dicts(dev, schemas, data)
        emitter = CountingEmitter()
        if best:
            acyclic_join_best(q, inst, emitter, limit=16)
        else:
            execute(q, inst, emitter)
        return emitter.count
    return run


def _bud_case(dev):
    # test_acyclic's heavy peel that turns a sibling petal into a bud,
    # reaching _merge_semijoin.
    data = {"e0": [(0, j) for j in range(12)],
            "e1": [(i, 0) for i in range(12)],
            "e2": [(i, j) for i in range(3) for j in range(4)]}
    q = star_query(2)
    inst = Instance.from_dicts(dev, schemas_for(q), data)
    emitter = CountingEmitter()
    acyclic_join(q, inst, emitter)
    return emitter.count


#: v2 = 0 is heavy in e1 (10 >= M = 4); v2 = 1..5 are light.
LINE3_DATA = {
    "e1": [(i, 0) for i in range(10)]
          + [(i, v) for v in range(1, 6) for i in range(v % 3 + 1)],
    "e2": [(v, w) for v in range(8) for w in range(v % 4 + 1)],
    "e3": [(w, x) for w in range(4) for x in range(w % 2 + 1)],
}


def _line3_case(dev):
    q = line_query(3)
    inst = Instance.from_dicts(dev, schemas_for(q), LINE3_DATA)
    emitter = CountingEmitter()
    line3_join(q, inst, emitter)
    return emitter.count


def _reduce_case(dev, query=None):
    # e2's v2 = 6, 7 lie past e1's last key: the merge outruns its filter.
    q = line_query(3) if query is None else query
    inst = Instance.from_dicts(dev, schemas_for(q), LINE3_DATA)
    return sum(len(r) for r in full_reduce_em(q, inst).values())


def _execute_case(q, sizes, domain, *, seed):
    def run(dev):
        schemas, data = skewed_instance(q, sizes, domain, seed=seed)
        inst = Instance.from_dicts(dev, schemas, data)
        emitter = CountingEmitter()
        execute(q, inst, emitter)
        return emitter.count
    return run


def _acyclic_case(q, sizes, domain, *, seed):
    def run(dev):
        schemas, data = skewed_instance(q, sizes, domain, seed=seed,
                                        hot_fraction=0.5, hot_values=1)
        inst = Instance.from_dicts(dev, schemas, data)
        emitter = CountingEmitter()
        acyclic_join_best(q, inst, emitter)
        return emitter.count
    return run


#: b = 0 is heavy on both sides, b = 1 light on the left, b = 2 light
#: on the right; b = 3 and b = 4 join nothing.
TWOWAY_DATA = {
    "R": [(a, 0) for a in range(6)] + [(a, 1) for a in range(2)]
         + [(a, 2) for a in range(5)] + [(0, 3)],
    "S": [(0, c) for c in range(5)] + [(1, c) for c in range(5)]
         + [(2, 0), (4, 0)],
    "T": [(c, d) for c in range(3) for d in range(3)],
}
TWOWAY_SCHEMAS = {"R": ("a", "b"), "S": ("b", "c"), "T": ("c", "d")}


def _twoway_case(join, left, right):
    def run(dev):
        inst = Instance.from_dicts(dev, TWOWAY_SCHEMAS, TWOWAY_DATA)
        emitter = CountingEmitter()
        join(inst[left], inst[right], emitter)
        return emitter.count
    return run


def _loaders_case(dev):
    f = dev.file_from_tuples_free(
        sorted((v, i) for v in range(9) for i in range(v % 5 + 1)), "grp")
    key = itemgetter(0)
    groups = group_boundaries(f.whole(), key)
    _, light = split_heavy_light(groups, dev.M)
    loaded = sum(len(c) for c in load_light_chunks(f.whole(), light, dev.M))
    matched = sum(1 for _ in scan_matching(f.whole(), key, {1, 4, 7}))
    return len(groups) + loaded + matched


#: name -> (M, B, run(device) -> result count).  Together the cases
#: reach every block-path operator: the sort's run formation and merge,
#: the chunk loaders, both two-way joins, Algorithm 1's heavy and light
#: sides, the full reducer, and Algorithm 2's heavy, light and bud peels.
CASES = {
    "external_sort": (4, 2, _sort_case),
    "star2_best": (4, 2, _star_case([16, 16], best=True)),
    "star3_execute": (64, 8, _star_case([16, 16, 16], best=False)),
    "bud_heavy_peel": (4, 2, _bud_case),
    "line3_heavy_light": (4, 2, _line3_case),
    "full_reduce_L3": (4, 2, _reduce_case),
    "execute_L3": (8, 2, _execute_case(line_query(3), 30, 6, seed=1)),
    "acyclic_L4_skewed": (4, 2, _acyclic_case(line_query(4), 16, 5,
                                              seed=2)),
    "acyclic_star3_skewed": (4, 2, _acyclic_case(star_query(3), 14, 5,
                                                 seed=5)),
    "sort_merge_join": (4, 2, _twoway_case(sort_merge_join, "R", "S")),
    "nested_loop_keyed": (4, 2, _twoway_case(nested_loop_join, "R", "S")),
    "nested_loop_cross": (4, 2, _twoway_case(nested_loop_join, "R", "T")),
    "loaders": (4, 2, _loaders_case),
}


def record(name: str, pool: bool, also=(), run=None) -> dict:
    """Run one case on a traced, strict-memory device and summarize it.

    ``run`` replaces the case's own run function (same ``M``, ``B``).
    """
    M, B, case_run = CASES[name]
    run = case_run if run is None else run
    dev, tracer = traced_device(M=M, B=B, pool=pool, strict_memory=True,
                                also=also)
    results = run(dev)
    events = tracer.events()
    assert len(events) == tracer.seen, "tracer ring overflowed"
    digest = hashlib.sha256()
    for e in events:
        digest.update(f"{e.kind}|{e.file}|{e.page}\n".encode())
    return {"events": len(events), "sha256": digest.hexdigest(),
            "results": results, "memory_peak": dev.memory.peak}


class TestBlockScalarEquivalence:
    """Every operator reproduces its pinned I/O event stream.

    ``golden_io_streams.json`` was recorded while each operator still
    had a tuple-at-a-time reference path, with the block and scalar
    streams asserted equal; it pins the one remaining path to them.
    """

    @staticmethod
    def assert_matches_golden(name, pool, run=None):
        golden = json.loads(GOLDEN.read_text())
        key = f"{name}/{'pool_on' if pool else 'pool_off'}"
        assert record(name, pool, run=run) == golden[key]

    @pytest.mark.parametrize("pool", [False, True],
                             ids=["pool_off", "pool_on"])
    @pytest.mark.parametrize("name", sorted(set(CASES) - {"external_sort"}))
    def test_event_stream_matches_golden(self, name, pool):
        self.assert_matches_golden(name, pool)

    @pytest.mark.parametrize("pool", [False, True])
    def test_external_sort_event_stream_identical(self, pool):
        self.assert_matches_golden("external_sort", pool)

    @pytest.mark.parametrize("pool", [False, True],
                             ids=["pool_off", "pool_on"])
    @pytest.mark.parametrize("name", ["star3_execute", "full_reduce_L3"])
    def test_query_object_reused_matches_golden(self, name, pool):
        # A query caches its derived structure and child queries, so the
        # second run on the same object takes every cached path.
        if name == "star3_execute":
            run = _star_case([16, 16, 16], best=False, query=star_query(3))
        else:
            run = partial(_reduce_case, query=line_query(3))
        self.assert_matches_golden(name, pool, run=run)
        self.assert_matches_golden(name, pool, run=run)

    def test_sort_empty_source_synthesizes_counted_run(self):
        from repro.obs import SpanProfiler
        profiler = SpanProfiler()
        dev = Device(M=4, B=2, observers=[profiler])
        f = dev.new_file("empty")
        f.writer().close()
        out = external_sort(f, lambda t: t[0], name="sorted")
        assert len(out) == 0
        # Regression: the run count used to read 0 here even though
        # one (empty) run was synthesized and returned.
        (form,) = [s for s in profiler.iter_spans()
                   if s.name == "form_runs"]
        assert form.attrs == {"runs": 1}
        assert dev.stats.total == 0


#: The cases replayed under two hash seeds: the query engine end to
#: end, the external sort alone, and a best-branch star run.
SEED_CASES = ("execute_L3", "external_sort", "star2_best")

_SEED_SCRIPT = """\
import json
from test_em_blocks import SEED_CASES, record
print(json.dumps({f"{name}/{pool}": record(name, pool == "pool_on")
                  for name in SEED_CASES
                  for pool in ("pool_off", "pool_on")}))
"""


def test_event_streams_do_not_depend_on_the_hash_seed():
    """Run-twice determinism: the same cases in two fresh interpreters
    with different ``PYTHONHASHSEED`` values charge the same pages in
    the same order.  Iterating a set or dict of strings on a counted
    path would break this; so would wall-clock or randomness there."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests),
            os.environ.get("PYTHONPATH", "")]
    streams = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        out = subprocess.run([sys.executable, "-c", _SEED_SCRIPT],
                             cwd=tests, env=env, capture_output=True,
                             text=True, check=True)
        streams.append(json.loads(out.stdout))
    golden = json.loads(GOLDEN.read_text())
    assert streams[0] == streams[1] == {k: golden[k] for k in streams[0]}
