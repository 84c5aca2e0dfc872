"""Unit and property tests for external merge sort."""

import heapq
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em import Device, PoolConfig, external_sort
from repro.em import sort as em_sort
from repro.obs.tracer import Tracer

from conftest import rows_of


def in_key_order(rows):
    """Are ``rows`` non-decreasing on their first field?"""
    return rows == sorted(rows, key=lambda t: t[0])


def make_file(device, rows):
    f = device.new_file("in")
    with f.writer() as w:
        for t in rows:
            w.append(t)
    return f


class TestExternalSort:
    def test_sorts_small_input(self, small_device):
        rows = [(i,) for i in (5, 3, 9, 1, 1, 7)]
        f = make_file(small_device, rows)
        out = external_sort(f, lambda t: t[0])
        assert rows_of(out) == sorted(rows)

    def test_sorts_multi_run_input(self):
        device = Device(M=8, B=2)
        rng = random.Random(1)
        rows = [(rng.randrange(1000), i) for i in range(200)]
        f = make_file(device, rows)
        out = external_sort(f, lambda t: t[0])
        result = rows_of(out)
        assert in_key_order(result)
        assert sorted(result) == sorted(rows)

    def test_empty_input(self, small_device):
        f = make_file(small_device, [])
        out = external_sort(f, lambda t: t[0])
        assert len(out) == 0

    def test_single_run_costs_one_read_and_write_pass(self):
        device = Device(M=64, B=4)
        rows = [(i % 7,) for i in range(64)]  # fits in one memory load
        f = device.file_from_tuples_free(rows)
        device.stats.reset()
        external_sort(f, lambda t: t[0])
        assert device.stats.reads == 16
        assert device.stats.writes == 16

    def test_io_within_sort_bound(self):
        # Õ((N/B) log_{M/B}(N/M)) with small constants.
        device = Device(M=16, B=4)
        rng = random.Random(2)
        n = 400
        f = device.file_from_tuples_free([(rng.randrange(10**6),)
                                          for _ in range(n)])
        device.stats.reset()
        external_sort(f, lambda t: t[0])
        pages = n / device.B
        fan_in = device.M // device.B - 1
        passes = 1 + math.ceil(math.log(max(2, n / device.M), fan_in))
        assert device.stats.total <= 2 * pages * (passes + 1)

    def test_sorts_segment_only(self, small_device):
        f = make_file(small_device, [(9 - i,) for i in range(10)])
        out = external_sort(f.segment(2, 7), lambda t: t[0])
        assert rows_of(out) == sorted(rows_of(f)[2:7])

    def test_is_sorted_on_segment(self, small_device):
        f = make_file(small_device, [(3,), (1,), (2,), (4,), (0,)])
        assert in_key_order(rows_of(f.segment(2, 4)))
        assert not in_key_order(rows_of(f.segment(0, 3)))
        assert rows_of(f.segment(1, 1)) == []

    def test_strict_memory_polices_run_formation(self):
        """Regression: `_form_runs` used to read the whole chunk before
        charging the gauge, so a strict budget fired only after the
        over-budget read had already been performed and charged."""
        import pytest

        from repro.em import MemoryBudgetExceeded

        device = Device(M=16, B=4, mem_slack=0.5, strict_memory=True)
        f = device.file_from_tuples_free([(i,) for i in range(32)])
        with pytest.raises(MemoryBudgetExceeded):
            external_sort(f, lambda t: t[0])
        # The budget must fire before the chunk streams in: no read
        # I/O may have been charged for the rejected run.
        assert device.stats.reads == 0

    def test_run_formation_peak_is_chunk_sized(self):
        device = Device(M=8, B=2, strict_memory=True, mem_slack=2.0)
        f = device.file_from_tuples_free([(31 - i,) for i in range(32)])
        out = external_sort(f, lambda t: t[0])
        assert in_key_order(rows_of(out))
        # Peak is the M-tuple run chunk (merge holds (fan_in+1)*B = 8
        # tuples too); under the pre-fix ordering the chunk was read
        # outside the gauge, but the charge amount itself was the same.
        assert device.memory.peak == device.M

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-50, 50), max_size=120),
           st.integers(2, 6))
    def test_property_sorted_permutation(self, values, b):
        device = Device(M=max(b, 8), B=b)
        rows = [(v, i) for i, v in enumerate(values)]
        f = device.file_from_tuples_free(rows)
        out = external_sort(f, lambda t: t[0])
        result = rows_of(out)
        assert sorted(result) == sorted(rows)
        assert in_key_order(result)


# -- tie order ----------------------------------------------------------------

def test_ties_break_by_heap_push_order():
    """Equal keys leave the merge in heap push order, not run order:
    runs ``[a, b]`` and ``[c, z]`` merge to ``a, c, b, z`` because
    ``c`` was pushed before ``a``'s successor ``b``."""
    device = Device(M=2, B=1)
    f = device.file_from_tuples_free([(5, "a"), (5, "b"), (5, "c"),
                                      (9, "z")])
    out = external_sort(f, lambda t: t[0])
    assert [t[1] for t in rows_of(out)] == ["a", "c", "b", "z"]


def _reference_merge_once(device, runs, key, name):
    """The tournament merge as first written with block reads: a heap
    of ``(key, push counter, run, tuple)`` fed from page blocks."""
    if len(runs) == 1:
        return runs[0]
    out = device.new_file(name)
    B = device.B
    with device.memory.hold((len(runs) + 1) * B):
        with out.writer() as w:
            readers = [r.reader() for r in runs]
            bufs = [[] for _ in runs]
            kbufs = [[] for _ in runs]
            bpos = [0] * len(runs)
            counter = itertools.count()
            heap = []
            for idx, rd in enumerate(readers):
                if not rd.exhausted:
                    buf = rd.read_page_block()
                    bufs[idx] = buf
                    kbufs[idx] = list(map(key, buf))
                    bpos[idx] = 1
                    heapq.heappush(heap, (kbufs[idx][0], next(counter),
                                          idx, buf[0]))
            outbuf = []
            while heap:
                _, _, idx, t = heapq.heappop(heap)
                outbuf.append(t)
                if len(outbuf) == B:
                    w.append_block(outbuf)
                    outbuf.clear()
                buf = bufs[idx]
                i = bpos[idx]
                if i < len(buf):
                    bpos[idx] = i + 1
                    heapq.heappush(heap, (kbufs[idx][i], next(counter),
                                          idx, buf[i]))
                else:
                    rd = readers[idx]
                    if not rd.exhausted:
                        buf = rd.read_page_block()
                        bufs[idx] = buf
                        kbufs[idx] = list(map(key, buf))
                        bpos[idx] = 1
                        heapq.heappush(heap, (kbufs[idx][0], next(counter),
                                              idx, buf[0]))
            if outbuf:
                w.append_block(outbuf)
    return out


def _traced_sort(rows, M, B, pool):
    """Sort ``rows`` on their first field under a tracer: the
    ``(kind, file, page)`` stream, the output and the memory peak.
    ``pool`` is a :class:`PoolConfig`, or ``True`` for an LRU pool of
    ``M // B`` frames."""
    tracer = Tracer(capacity=1_000_000)
    if pool is True:
        pool = PoolConfig(frames=M // B, policy="lru")
    device = Device(M=M, B=B, observers=[tracer], strict_memory=True,
                    buffer_pool=pool or None)
    f = device.file_from_tuples_free(rows, "src")
    out = external_sort(f, lambda t: t[0], name="sorted")
    device.flush_pool()
    events = tracer.events()
    assert len(events) == tracer.seen
    return ([(e.kind, e.file, e.page) for e in events],
            rows_of(out), device.memory.peak)


@pytest.mark.parametrize("pool", [False, True], ids=["pool_off", "pool_on"])
@pytest.mark.parametrize("B", [1, 2, 3, 4, 8])
def test_merge_matches_reference_heap_merge_on_ties(B, pool, monkeypatch):
    """Differential check of the merge against the reference heap merge
    on tie-heavy inputs, fan-in 2..15: the same I/O event stream, the
    same output order (ties included) and the same memory peak."""
    rng = random.Random(B * 2 + pool)
    for fan_in in range(2, 16):
        M = (fan_in + 1) * B
        n = rng.randrange(M * fan_in // 2, M * (fan_in + 2))
        rows = [(rng.randrange(4), i) for i in range(n)]
        got = _traced_sort(rows, M, B, pool)
        with monkeypatch.context() as m:
            m.setattr(em_sort, "_merge_once", _reference_merge_once)
            want = _traced_sort(rows, M, B, pool)
        assert got == want, f"fan-in {fan_in}, n={n}"


def _reference_traced_sort(rows, M, B, pool):
    """:func:`_traced_sort` with the heap merge in place.  (Hypothesis
    tests cannot take the function-scoped ``monkeypatch`` fixture.)"""
    saved = em_sort._merge_once
    em_sort._merge_once = _reference_merge_once
    try:
        return _traced_sort(rows, M, B, pool)
    finally:
        em_sort._merge_once = saved


@st.composite
def merge_cases(draw):
    """Sorts whose merges a heap would tie-break in every way: B = 1,
    odd B and B = M; key domains from 1 to 10⁴; a last run shorter than
    a page; up to three merge levels; no pool, or an LRU, clock or MRU
    pool with fewer frames than the fan-in; and inputs already sorted,
    as stored relations are, whose merges take the in-order path."""
    B_kind = draw(st.sampled_from(["1", "odd", "M"]))
    M = draw(st.integers(3 if B_kind == "odd" else 1, 16))
    if B_kind == "odd":
        B = draw(st.sampled_from(range(3, M + 1, 2)))
    else:
        B = 1 if B_kind == "1" else M
    fan_in = em_sort.merge_fan_in(M, B)
    full = draw(st.integers(0, min(fan_in ** 2 + 2, 40)))
    last = draw(st.one_of(st.integers(0, B - 1), st.integers(0, M - 1)))
    domain = draw(st.one_of(st.integers(1, 8), st.integers(1, 10 ** 4)))
    rows = [(draw(st.integers(0, domain - 1)), i)
            for i in range(full * M + last)]
    policy = draw(st.sampled_from([None, "lru", "clock", "mru"]))
    pool = (None if policy is None else
            PoolConfig(frames=draw(st.integers(1, max(1, fan_in - 1))),
                       policy=policy))
    if draw(st.booleans()):
        rows.sort()
    return rows, M, B, pool


@settings(max_examples=200, deadline=None)
@given(merge_cases())
def test_merge_matches_reference_heap_merge(case):
    """The closed-form merge against the heap it replaced: the same
    output order, the same tracer event stream (pool events included)
    and the same memory peak."""
    assert _traced_sort(*case) == _reference_traced_sort(*case)


# -- the charge order only a pool or an observer sees ------------------------

def _counted_sort(rows, M, B, observed):
    """Sort ``rows`` on their first field, pool off, with or without a
    tracer: the counters, the memory peak and the output."""
    observers = [Tracer(capacity=16)] if observed else []
    device = Device(M=M, B=B, observers=observers, strict_memory=True)
    assert device.order_seen == observed
    f = device.file_from_tuples_free(rows, "src")
    out = external_sort(f, lambda t: t[0], name="sorted")
    return (device.stats.reads, device.stats.writes, device.memory.peak,
            rows_of(out))


@settings(max_examples=200, deadline=None)
@given(merge_cases())
def test_unseen_charge_order_counts_the_same(case):
    """With no pool and no observer the merge charges its pages in file
    order instead of the heap's; the reads, writes, memory peak and
    output are those of the traced run, which replays the heap's."""
    rows, M, B, _ = case
    assert _counted_sort(rows, M, B, False) == _counted_sort(rows, M, B,
                                                             True)


@pytest.mark.parametrize("observed", [False, True],
                         ids=["unseen", "traced"])
def test_sort_charges_nothing_while_suspended(observed):
    """Both charge paths of the merge go through the device, which
    drops every charge inside ``stats.suspend()``."""
    tracer = Tracer(capacity=16)
    device = Device(M=4, B=2, observers=[tracer] if observed else [])
    rows = [(i % 7, i) for i in range(40)]
    f = device.file_from_tuples_free(rows)
    with device.stats.suspend():
        out = external_sort(f, lambda t: t[0])
    assert (device.stats.reads, device.stats.writes) == (0, 0)
    assert tracer.summary()["io"]["total"] == 0
    assert rows_of(out) == _counted_sort(rows, 4, 2, observed)[3]


# -- batches already in key order ---------------------------------------------

#: Runs per merge in the in-order cases; ``M = (FAN_IN + 1) * B``.
FAN_IN = 6


def _in_order_case(name, M):
    """Rows for one in-order case, and whether any merge of their sort
    must take the general (key-sorting) path."""
    if name == "lexicographic":
        # Five rows per key: run boundaries cut key groups, and the
        # input is long enough for two merge levels.
        n = M * FAN_IN + M + 3
        rows = [(i // 5, i % 5) for i in range(n)]
        assert any(rows[b - 1][0] == rows[b][0] for b in range(M, n, M))
        return rows, False
    if name == "one_key_over_whole_runs":
        # Key 5 opens mid-run 0, fills runs 1-3 and ends in run 4.
        rows = [(0, i) for i in range(2)]
        rows += [(5, i) for i in range(3 * M + 3)]
        rows += [(9, i) for i in range(M * FAN_IN - 1 - len(rows))]
        return rows, False
    if name == "strictly_increasing":
        return [(i, -i) for i in range(M * FAN_IN - 1)], False
    # In order except at the last boundary: the last run's keys reach
    # below the run before it.
    rows = [(i // 3, i) for i in range(M * (FAN_IN - 1))]
    rows += [(rows[-1][0] - 1 + i % 3, -i) for i in range(M - 1)]
    return rows, True


@pytest.mark.parametrize("pool", [False, True], ids=["pool_off", "pool_lru"])
@pytest.mark.parametrize("B", [1, 2, 3])
@pytest.mark.parametrize("case", ["lexicographic", "one_key_over_whole_runs",
                                  "strictly_increasing",
                                  "out_of_order_at_last_boundary"])
def test_in_order_batches_match_reference_heap_merge(case, B, pool,
                                                     monkeypatch):
    """Batches whose run boundaries are in key order skip the key sort
    and re-order only the tie groups at their boundaries; the heap merge
    agrees on the event stream (pool events included), the output order
    and the memory peak.  A batch out of order at one boundary takes
    the general path."""
    M = (FAN_IN + 1) * B
    assert em_sort.merge_fan_in(M, B) == FAN_IN
    rows, general = _in_order_case(case, M)
    pool = PoolConfig(frames=FAN_IN - 1, policy="lru") if pool else None
    sorted_batches = []
    with monkeypatch.context() as m:
        key_sort = em_sort._HeapOrder._sort

        def counted(self, batch):
            sorted_batches.append(len(batch))
            return key_sort(self, batch)

        m.setattr(em_sort._HeapOrder, "_sort", counted)
        got = _traced_sort(rows, M, B, pool)
    assert bool(sorted_batches) == general
    with monkeypatch.context() as m:
        m.setattr(em_sort, "_merge_once", _reference_merge_once)
        want = _traced_sort(rows, M, B, pool)
    assert got == want
    assert in_key_order(got[1])


def test_chained_ties_follow_the_reordered_predecessor():
    """A tie block's turn is set by where its predecessor left, even
    when that predecessor itself tied across runs.  M=4, B=1 merges
    runs ``[0a 1a 2a 9a] [1b 2b 9b 9b'] [2c 9c 9c' 9c"]`` at once:
    ``1b`` opens its run, so it leaves before ``1a``; ``2c`` opens its
    run and ``2b``'s predecessor left before ``2a``'s, so the 2s leave
    ``c, b, a``; the 9s then go round-robin in that order."""
    runs = [[(0, "a"), (1, "a"), (2, "a"), (9, "a")],
            [(1, "b"), (2, "b"), (9, "b"), (9, "b'")],
            [(2, "c"), (9, "c"), (9, "c'"), (9, 'c"')]]
    rows = [t for run in runs for t in run]
    got = _traced_sort(rows, 4, 1, None)
    assert got == _reference_traced_sort(rows, 4, 1, None)
    assert [f"{k}{tag}" for k, tag in got[1]] == [
        "0a", "1b", "1a", "2c", "2b", "2a",
        "9c", "9b", "9a", "9c'", "9b'", '9c"']


# -- cross-run tie pairs ------------------------------------------------------

#: Per case: the leading keys of two runs (each is padded to ``M`` rows
#: with unique larger keys, so the runs overlap and take the key sort),
#: the pair rule's branch for their pair of 5s, and whether ``b``, the
#: 5 in the later run, leaves first.
PAIR_CASES = {
    "a_opens": (([5], [1, 5]), "a_opens", False),
    "b_opens": (([1, 5], [5]), "b_opens", True),
    "pred_less": (([1, 5], [2, 5]), "pred_less", False),
    "pred_greater": (([2, 5], [1, 5]), "pred_greater", True),
    # The 1s open both runs, so the 5s' predecessors left 1a, 1b.
    "pred_equal": (([1, 5], [1, 5]), "pred_equal", False),
    # 3b opens its run and leaves before 3a, so 5b leaves before 5a.
    "pred_equal_moved": (([0, 3, 5], [3, 5]), "pred_equal_moved", True),
}


def _pair_branch(heap, a, b):
    """The branch of the pair rule that settles ``a < b``, named from
    the batch's run starts and keys, before it is settled."""
    if a in heap._bases:
        return "a_opens"
    if b in heap._bases:
        return "b_opens"
    ka, kb = heap._keys[a - 1], heap._keys[b - 1]
    if ka != kb:
        return "pred_less" if ka < kb else "pred_greater"
    if {a - 1, b - 1} & heap._moved.keys():
        return "pred_equal_moved"
    return "pred_equal"


@pytest.mark.parametrize("pool", [False, True], ids=["pool_off", "pool_lru"])
@pytest.mark.parametrize("B", [1, 2, 3])
@pytest.mark.parametrize("case", list(PAIR_CASES))
def test_cross_run_pairs_match_reference_heap_merge(case, B, pool,
                                                    monkeypatch):
    """A tie group of one tuple from each of two runs is settled by the
    pair rule, one case per branch; the heap merge agrees on the event
    stream (pool events included), the output order and the memory
    peak.  Wrapping ``_settle_pair`` shows the branch each pair takes,
    and that only equal predecessor keys ask :meth:`position`."""
    M = (FAN_IN + 1) * B
    leads, branch, swapped = PAIR_CASES[case]
    rows = []
    for lead in leads:
        keys = lead + [100 + len(rows) + j for j in range(len(lead), M)]
        rows += [(k, len(rows) + j) for j, k in enumerate(keys)]
    pool = PoolConfig(frames=FAN_IN - 1, policy="lru") if pool else None
    settled, asked = [], []
    settle_pair = em_sort._HeapOrder._settle_pair
    position = em_sort._HeapOrder.position

    def traced_pair(self, lo):
        a, b = self.order[lo:lo + 2]
        taken, before = _pair_branch(self, a, b), len(asked)
        settle_pair(self, lo)
        settled.append((self._keys[a], taken, self.order[lo] == b,
                        len(asked) > before))

    def traced_position(self, i):
        asked.append(i)
        return position(self, i)

    with monkeypatch.context() as m:
        m.setattr(em_sort._HeapOrder, "_settle_pair", traced_pair)
        m.setattr(em_sort._HeapOrder, "position", traced_position)
        got = _traced_sort(rows, M, B, pool)
    assert (5, branch, swapped, branch.startswith("pred_equal")) in settled
    assert all(fell_back == taken.startswith("pred_equal")
               for _, taken, _, fell_back in settled)
    with monkeypatch.context() as m:
        m.setattr(em_sort, "_merge_once", _reference_merge_once)
        want = _traced_sort(rows, M, B, pool)
    assert got == want
    assert in_key_order(got[1])


class _GeneralOrder(em_sort._HeapOrder):
    """The heap order with every cross-run pair settled by the general
    :meth:`_settle`."""

    def _settle_pair(self, lo):
        self._settle(lo, lo + 2)


def _merge_batches(rows, M, B):
    """``(lengths, rows)`` of every merge batch in sorting ``rows`` on
    their first field."""
    batches = []
    call = em_sort._HeapOrder.__call__

    def recording(self, batch):
        batches.append(([hi - lo for lo, hi in
                         itertools.pairwise(self._bases)], batch))
        return call(self, batch)

    em_sort._HeapOrder.__call__ = recording
    try:
        device = Device(M=M, B=B)
        external_sort(device.file_from_tuples_free(rows), lambda t: t[0])
    finally:
        em_sort._HeapOrder.__call__ = call
    return batches


@settings(max_examples=200, deadline=None)
@given(merge_cases())
def test_pair_rule_matches_general_settle(case):
    """On every merge batch, settling cross-run pairs by the pair rule
    gives the order and every index's :meth:`position` (which the
    charge replay reads whenever the order is seen) that the general
    ``_settle`` gives."""
    rows, M, B, _ = case
    for lengths, batch in _merge_batches(rows, M, B):
        fast = em_sort._HeapOrder(lambda t: t[0], lengths)
        general = _GeneralOrder(lambda t: t[0], lengths)
        assert fast(batch) == general(batch)
        assert ([fast.position(i) for i in range(len(batch))]
                == [general.position(i) for i in range(len(batch))])


@pytest.mark.parametrize("M,B", [(1, 1), (2, 1), (4, 1), (4, 2), (4, 4),
                                 (6, 3), (8, 2), (9, 3), (16, 4)])
def test_sort_io_is_what_external_sort_charges(M, B):
    """``sort_io`` counts the reads and writes ``external_sort`` is
    charged on a segment of any length starting anywhere in a page,
    up to three merge levels (n > M·fan_in²).  With a pool of fewer
    frames than the fan-in, ``hits + misses`` are its reads and, after
    a flush, the written-back pages are its writes."""
    rng = random.Random(M * 100 + B)
    fan_in = em_sort.merge_fan_in(M, B)
    for n in range(M * fan_in ** 2 + 2 * M + 4):
        for pool in (False, True):
            off = rng.randrange(B)
            config = PoolConfig(frames=max(1, fan_in - 1)) if pool else None
            device = Device(M=M, B=B, buffer_pool=config)
            f = device.file_from_tuples_free(
                [(rng.randrange(9), i) for i in range(off + n)])
            before = device.stats.snapshot()
            external_sort(f.segment(off, off + n), lambda t: t[0])
            device.flush_pool()
            cost = device.stats.delta_since(before)
            reads = cost.cache.logical_reads if pool else cost.reads
            assert (reads, cost.writes) == \
                em_sort.sort_io(n, off, M, B), f"n={n}, off={off}, {config}"
