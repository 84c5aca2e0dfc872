"""Unit tests for the Section 2.3 chunk loaders and skew handling."""

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em import (Device, PoolConfig, group_boundaries, load_chunks,
                      load_group_chunks, load_light_chunks, scan_matching,
                      split_heavy_light)
from repro.em.file import span_pages
from repro.em.loaders import (light_chunk_reads, semijoin_right_reads,
                              take_through, take_through_reads,
                              write_semijoin)
from repro.obs.tracer import Tracer

from conftest import rows_of


def sorted_file(device, rows, name="r"):
    f = device.new_file(name)
    with f.writer() as w:
        for t in sorted(rows):
            w.append(t)
    return f


def key0(t):
    return t[0]


class TestGroupBoundaries:
    def test_groups_cover_file_in_order(self, small_device):
        rows = [(0, i) for i in range(3)] + [(1, i) for i in range(5)] \
            + [(7, 0)]
        f = sorted_file(small_device, rows)
        groups = group_boundaries(f.whole(), key0)
        assert [g.value for g in groups] == [0, 1, 7]
        assert [g.count for g in groups] == [3, 5, 1]
        assert groups[0].start == 0
        assert groups[-1].stop == len(f)
        for a, b in zip(groups, groups[1:]):
            assert a.stop == b.start

    def test_costs_one_scan(self, small_device):
        f = sorted_file(small_device, [(i // 3, i) for i in range(24)])
        small_device.stats.reset()
        group_boundaries(f.whole(), key0)
        assert small_device.stats.reads == small_device.pages(24)

    def test_empty_file(self, small_device):
        f = sorted_file(small_device, [])
        assert group_boundaries(f.whole(), key0) == []


class TestHeavyLightSplit:
    def test_threshold_is_at_least_m(self):
        device = Device(M=4, B=2)
        rows = [(0, i) for i in range(4)] + [(1, i) for i in range(3)]
        f = sorted_file(device, rows)
        groups = group_boundaries(f.whole(), key0)
        heavy, light = split_heavy_light(groups, device.M)
        assert [g.value for g in heavy] == [0]   # 4 >= M
        assert [g.value for g in light] == [1]   # 3 < M


class TestLoadChunks:
    def test_chunks_of_m_tuples(self, small_device):
        f = sorted_file(small_device, [(i,) for i in range(40)])
        chunks = list(load_chunks(f.whole(), small_device.M))
        assert [len(c) for c in chunks] == [16, 16, 8]
        assert [t for c in chunks for t in c] == [(i,) for i in range(40)]

    def test_memory_gauge_charged_during_yield(self, small_device):
        f = sorted_file(small_device, [(i,) for i in range(20)])
        for chunk in load_chunks(f.whole(), small_device.M):
            assert small_device.memory.current >= len(chunk)
        assert small_device.memory.current == 0


class TestLoadGroupChunks:
    def test_reads_only_the_group(self, small_device):
        rows = ([(0, i) for i in range(20)] + [(1, i) for i in range(20)]
                + [(2, i) for i in range(4)])
        f = sorted_file(small_device, rows)
        groups = group_boundaries(f.whole(), key0)
        small_device.stats.reset()
        chunks = list(load_group_chunks(f.whole(), groups[1],
                                        small_device.M))
        assert sum(len(c) for c in chunks) == 20
        assert all(t[0] == 1 for c in chunks for t in c)


class TestLoadLightChunks:
    def test_light_chunk_invariants(self):
        # The paper's guarantees: < 2M tuples and < M-or-so distinct
        # values per chunk; groups never split across chunks.
        device = Device(M=8, B=2)
        rows = []
        for v in range(12):
            for j in range(v % 4 + 1):   # group sizes 1..4, all < M
                rows.append((v, j))
        f = sorted_file(device, rows)
        groups = group_boundaries(f.whole(), key0)
        heavy, light = split_heavy_light(groups, device.M)
        assert not heavy
        seen = []
        for chunk in load_light_chunks(f.whole(), light, device.M):
            assert len(chunk) < 2 * device.M
            values = [t[0] for t in chunk]
            assert len(set(values)) <= device.M
            seen.extend(chunk)
            # group atomicity: a value never spans chunks
        assert seen == sorted(rows)
        all_values = [t[0] for t in seen]
        # each value forms one contiguous run across the concatenation
        runs = {v: [i for i, x in enumerate(all_values) if x == v]
                for v in set(all_values)}
        for idxs in runs.values():
            assert idxs == list(range(idxs[0], idxs[-1] + 1))

    def test_skips_heavy_groups_without_reading_them(self):
        device = Device(M=4, B=2)
        rows = [(0, i) for i in range(2)] + [(1, i) for i in range(40)] \
            + [(2, i) for i in range(2)]
        f = sorted_file(device, rows)
        groups = group_boundaries(f.whole(), key0)
        heavy, light = split_heavy_light(groups, device.M)
        assert [g.value for g in heavy] == [1]
        device.stats.reset()
        out = [t for c in load_light_chunks(f.whole(), light, device.M)
               for t in c]
        assert all(t[0] != 1 for t in out)
        # far fewer reads than the full 22-page file
        assert device.stats.reads <= 4

    def test_rejects_heavy_group(self):
        device = Device(M=2, B=2)
        rows = [(0, i) for i in range(5)]
        f = sorted_file(device, rows)
        groups = group_boundaries(f.whole(), key0)
        with pytest.raises(ValueError):
            list(load_light_chunks(f.whole(), groups, device.M))


class TestScanMatching:
    def test_filters_by_membership(self, small_device):
        f = sorted_file(small_device, [(i % 5, i) for i in range(25)])
        out = list(scan_matching(f.whole(), key0, {1, 3}))
        assert all(t[0] in (1, 3) for t in out)
        assert len(out) == 10


def _reference_semijoin(left, right, key_l, key_r):
    """The tuple-at-a-time merge: each left tuple advances the right
    cursor with a bisect inside its current page block."""
    rblock, rkeys, ri = [], [], 0
    while not left.exhausted:
        lblock = left.read_page_block()
        for t, kv in zip(lblock, map(key_l, lblock)):
            while True:
                if ri >= len(rblock):
                    if right.exhausted:
                        rblock, rkeys, ri = [], [], 0
                        break
                    rblock = right.read_page_block()
                    rkeys = list(map(key_r, rblock))
                    ri = 0
                ri = bisect_left(rkeys, kv, ri)
                if ri < len(rkeys):
                    break
            if ri < len(rblock) and rkeys[ri] == kv:
                yield t


def _traced_semijoin(lkeys, rkeys, *, M, B, loff=0, roff=0, pool=None,
                     reference):
    """Run one semijoin on a fresh traced device and return what it did.

    The inputs are segments holding ``(key, i)`` rows that start
    ``loff``/``roff`` tuples into a page and end before a filler page
    tail.  ``reference`` selects the tuple-at-a-time merge appending
    one match at a time; otherwise :func:`write_semijoin` runs.
    Returns the full event stream, the output rows, the memory peak
    and the counters.
    """
    tracer = Tracer(capacity=1_000_000)
    device = Device(M=M, B=B, observers=[tracer], buffer_pool=pool)

    def segment(keys, off, name):
        rows = ([(-1, -1)] * off + [(k, i) for i, k in enumerate(keys)]
                + [(-2, -2)] * (B - 1))
        f = device.file_from_tuples_free(rows, name)
        return f.segment(off, off + len(keys))

    left, right = segment(lkeys, loff, "left"), segment(rkeys, roff, "right")
    if reference:
        out = device.new_file("out")
        with out.writer() as w:
            for t in _reference_semijoin(left.reader(), right.reader(),
                                         key0, key0):
                w.append(t)
    else:
        out = write_semijoin(left, right, key0, key0, "out")
    device.flush_pool()
    return ([(e.kind, e.file, e.page, e.phase, e.value)
             for e in tracer.events()],
            rows_of(out), device.memory.peak, device.stats.snapshot())


def _draw_semijoin(data):
    """One pool-off semijoin case, drawn as the tuple-merge test draws
    its own: sorted left and right keys (either side may be empty, and
    the right side may run out before the left; all, some or no left
    keys match), and the machine and page offsets of
    :func:`_counted_semijoin` — B = 1, odd B and B = M, segments
    starting anywhere in a page."""
    B = data.draw(st.sampled_from([1, 2, 3, 5, 8]), label="B")
    M = data.draw(st.sampled_from([B, 4 * B]), label="M")
    domain = data.draw(st.integers(1, 20), label="domain")
    keys = st.lists(st.integers(0, domain), max_size=40).map(sorted)
    lkeys, rkeys = data.draw(keys, label="left"), data.draw(keys,
                                                            label="right")
    match = data.draw(st.sampled_from(["some", "all", "none"]),
                      label="match")
    if match == "all":
        rkeys = sorted(rkeys + lkeys)
    elif match == "none":  # even keys on the left, odd on the right
        lkeys = [2 * k for k in lkeys]
        rkeys = [2 * k + 1 for k in rkeys]
    kw = dict(M=M, B=B,
              loff=data.draw(st.integers(0, B - 1), label="loff"),
              roff=data.draw(st.integers(0, B - 1), label="roff"))
    return lkeys, rkeys, kw


def _counted_semijoin(lkeys, rkeys, *, M, B, loff, roff, observed,
                      suspended=False):
    """:func:`write_semijoin` on the segments of :func:`_traced_semijoin`,
    pool off, with or without a tracer (and optionally inside
    ``stats.suspend()``): the counters, the tracer's I/O total, the
    memory peak and the output rows."""
    tracer = Tracer(capacity=16)
    device = Device(M=M, B=B, observers=[tracer] if observed else [])
    assert device.order_seen == observed

    def segment(keys, off, name):
        rows = ([(-1, -1)] * off + [(k, i) for i, k in enumerate(keys)]
                + [(-2, -2)] * (B - 1))
        f = device.file_from_tuples_free(rows, name)
        return f.segment(off, off + len(keys))

    left, right = segment(lkeys, loff, "left"), segment(rkeys, roff, "right")
    if suspended:
        with device.stats.suspend():
            out = write_semijoin(left, right, key0, key0, "out")
    else:
        out = write_semijoin(left, right, key0, key0, "out")
    return (device.stats.reads, device.stats.writes,
            tracer.summary()["io"]["total"], device.memory.peak,
            rows_of(out))


class TestSemijoinMatches:
    @pytest.mark.parametrize("pool", [False, True],
                             ids=["pool_off", "pool_on"])
    @pytest.mark.parametrize("B", [1, 2, 3, 4, 8])
    def test_blocks_match_tuple_merge_event_for_event(self, B, pool):
        """The operator writes the same pages at the same points of the
        read sequence as a tuple-at-a-time merge appending one match at
        a time."""
        rng = random.Random(B * 2 + pool)
        config = PoolConfig(frames=3, policy="lru") if pool else None
        for _ in range(25):
            domain = rng.randrange(1, 30)
            left = sorted(rng.randrange(domain)
                          for _ in range(rng.randrange(0, 60)))
            right = sorted(rng.randrange(domain)
                           for _ in range(rng.randrange(0, 60)))
            runs = [_traced_semijoin(left, right, M=4 * B, B=B, pool=config,
                                     reference=ref) for ref in (False, True)]
            assert runs[0] == runs[1]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_tuple_merge_anywhere_in_a_page(self, data):
        """Differential test against the tuple-at-a-time merge: the same
        events (pool ones included), rows, memory peak and counters, for
        segments starting anywhere in a page, with either side empty,
        all or no left keys matching, B = 1, odd B and B = M, and no
        pool or a pool of up to 3 frames."""
        B = data.draw(st.sampled_from([1, 2, 3, 5, 8]), label="B")
        M = data.draw(st.sampled_from([B, 4 * B]), label="M")
        domain = data.draw(st.integers(1, 20), label="domain")
        keys = st.lists(st.integers(0, domain), max_size=40).map(sorted)
        lkeys, rkeys = data.draw(keys, label="left"), data.draw(keys,
                                                                label="right")
        match = data.draw(st.sampled_from(["some", "all", "none"]),
                          label="match")
        if match == "all":
            rkeys = sorted(rkeys + lkeys)
        elif match == "none":  # even keys on the left, odd on the right
            lkeys = [2 * k for k in lkeys]
            rkeys = [2 * k + 1 for k in rkeys]
        policy = data.draw(st.sampled_from([None, "lru", "clock", "mru"]),
                           label="policy")
        pool = (None if policy is None else PoolConfig(
            frames=data.draw(st.integers(1, 3), label="frames"),
            policy=policy))
        kw = dict(M=M, B=B, pool=pool,
                  loff=data.draw(st.integers(0, B - 1), label="loff"),
                  roff=data.draw(st.integers(0, B - 1), label="roff"))
        got = _traced_semijoin(lkeys, rkeys, reference=False, **kw)
        assert got == _traced_semijoin(lkeys, rkeys, reference=True, **kw)
        if match == "all":
            assert len(got[1]) == len(lkeys)
        elif match == "none":
            assert got[1] == []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_unseen_charge_order_counts_the_same(self, data):
        """With no pool and no observer the operator charges its pages
        in file order instead of the cursor merge's; the reads, writes,
        memory peak and rows are those of the traced run, which replays
        the cursor merge's order.  Inside ``stats.suspend()`` neither
        path charges anything."""
        lkeys, rkeys, kw = _draw_semijoin(data)
        unseen = _counted_semijoin(lkeys, rkeys, observed=False, **kw)
        traced = _counted_semijoin(lkeys, rkeys, observed=True, **kw)
        assert unseen[2] == 0
        assert unseen[:2] + unseen[3:] == traced[:2] + traced[3:]
        assert traced[2] == traced[0] + traced[1]
        for observed in (False, True):
            free = _counted_semijoin(lkeys, rkeys, observed=observed,
                                     suspended=True, **kw)
            assert free[:3] == (0, 0, 0)
            assert free[4] == unseen[4]

    def test_writes_matches_in_left_order(self, small_device):
        left = sorted_file(small_device, [(k, i) for i, k in
                                          enumerate([1, 2, 2, 3, 5, 8, 9])],
                           name="l")
        right = sorted_file(small_device, [(2, 0), (5, 0), (9, 0)],
                            name="r")
        out = write_semijoin(left.whole(), right.whole(), key0, key0, "out")
        assert out.name == "out"
        assert rows_of(out) == [(2, 1), (2, 2), (5, 4), (9, 6)]


def _segment_at(device, keys, rng):
    """``keys`` (sorted) as a segment starting at a random page offset."""
    off = rng.randrange(device.B)
    rows = [(-1, 0)] * off + [(k, i) for i, k in enumerate(keys)]
    f = device.file_from_tuples_free(rows)
    return f.segment(off, off + len(keys)), off


def _sorted_keys(rng, n, values):
    return sorted(rng.randrange(values) for _ in range(n))


@pytest.mark.parametrize("M,B", [(2, 1), (4, 2), (6, 3), (8, 4), (8, 8)])
class TestChargeCounts:
    """The pure charge counts beside the loaders equal what the loaders
    are charged, for segments starting anywhere in a page."""

    def test_light_chunk_reads(self, M, B):
        rng = random.Random(M * 10 + B)
        for _ in range(60):
            device = Device(M=M, B=B)
            keys = _sorted_keys(rng, rng.randrange(40), rng.randrange(1, 12))
            seg, off = _segment_at(device, keys, rng)
            _, light = split_heavy_light(group_boundaries(seg, key0), M)
            before = device.stats.snapshot()
            for _chunk in load_light_chunks(seg, light, M):
                pass
            reads = device.stats.delta_since(before).reads
            spans = [(g.start - seg.start, g.stop - seg.start)
                     for g in light]
            assert reads == light_chunk_reads(spans, off, B)

    def test_semijoin_right_reads(self, M, B):
        rng = random.Random(M * 10 + B + 1)
        for _ in range(60):
            device = Device(M=M, B=B)
            lkeys = _sorted_keys(rng, rng.randrange(20), 15)
            rkeys = _sorted_keys(rng, rng.randrange(20), 15)
            left, loff = _segment_at(device, lkeys, rng)
            right, roff = _segment_at(device, rkeys, rng)
            before = device.stats.snapshot()
            write_semijoin(left, right, key0, key0, "out")
            want = span_pages(loff, len(lkeys), B)
            if lkeys:
                want += semijoin_right_reads(rkeys, roff, lkeys[-1], B)
            assert device.stats.delta_since(before).reads == want

    def test_take_through_reads(self, M, B):
        rng = random.Random(M * 10 + B + 2)
        for _ in range(60):
            device = Device(M=M, B=B)
            keys = _sorted_keys(rng, rng.randrange(30), 20)
            seg, off = _segment_at(device, keys, rng)
            bounds = sorted(rng.randrange(22) for _ in range(rng.randint(1, 4)))
            reader = seg.reader()
            before = device.stats.snapshot()
            for vmax in bounds:
                take_through(reader, 0, vmax, {vmax})
            assert device.stats.delta_since(before).reads == \
                take_through_reads(keys, off, bounds[-1], B)
