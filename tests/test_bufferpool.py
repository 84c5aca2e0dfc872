"""Tests for the opt-in buffer pool and its replacement policies.

The pool is accounting-only (the simulated disk always holds the
tuples), so every test here is about *counts*: which accesses hit,
which evict, and — the load-bearing guarantee — that the pool-disabled
default stays byte-identical to the paper-faithful seed accounting.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_data
from repro import Device, Instance
from repro.core import CountingEmitter, execute
from repro.em import PoolConfig, make_policy
from repro.obs import Tracer
from repro.query import line_query, star_query


def pool_device(frames=2, policy="lru", M=8, B=2):
    return Device(M=M, B=B,
                  buffer_pool=PoolConfig(frames=frames, policy=policy))


class TestPoolConfig:
    def test_frames_budget(self):
        assert PoolConfig(frames=3).n_frames(M=64, B=8) == 3

    def test_tuple_budget_rounds_down_to_frames(self):
        assert PoolConfig(tuples=20).n_frames(M=64, B=8) == 2

    def test_default_budget_is_M_tuples(self):
        assert PoolConfig().n_frames(M=64, B=8) == 8

    def test_at_least_one_frame(self):
        assert PoolConfig(tuples=1).n_frames(M=64, B=8) == 1

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            PoolConfig(frames=0).n_frames(M=8, B=2)
        with pytest.raises(ValueError):
            PoolConfig(tuples=0).n_frames(M=8, B=2)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            Device(M=8, B=2, buffer_pool=PoolConfig(policy="fifo"))

    def test_make_policy_registry(self):
        assert make_policy("lru").__class__.__name__ == "LRUPolicy"
        assert make_policy("clock").__class__.__name__ == "ClockPolicy"
        assert make_policy("mru").__class__.__name__ == "MRUPolicy"


class TestEvictionOrder:
    """Policies see opaque keys, so sentinel 'files' suffice."""

    def test_lru_evicts_coldest(self):
        dev = pool_device(frames=2, policy="lru")
        pool = dev.pool
        pool.read_page("f", 0)
        pool.read_page("f", 1)
        pool.read_page("f", 0)        # hit: 0 becomes most recent
        pool.read_page("f", 2)        # evicts 1, the coldest
        assert pool.contains("f", 0) and pool.contains("f", 2)
        assert not pool.contains("f", 1)
        assert dev.stats.cache.hits == 1
        assert dev.stats.cache.evictions == 1

    def test_mru_evicts_hottest(self):
        dev = pool_device(frames=2, policy="mru")
        pool = dev.pool
        pool.read_page("f", 0)
        pool.read_page("f", 1)
        pool.read_page("f", 0)        # hit: 0 becomes most recent
        pool.read_page("f", 2)        # evicts 0, the hottest
        assert pool.contains("f", 1) and pool.contains("f", 2)
        assert not pool.contains("f", 0)

    def test_clock_second_chance_sweep(self):
        dev = pool_device(frames=2, policy="clock")
        pool = dev.pool
        pool.read_page("f", 0)
        pool.read_page("f", 1)
        # Sweep clears both reference bits, wraps, evicts page 0.
        pool.read_page("f", 2)
        assert pool.contains("f", 1) and pool.contains("f", 2)
        # Page 1's bit is clear and the hand points at it: next victim.
        pool.read_page("f", 3)
        assert pool.contains("f", 2) and pool.contains("f", 3)
        assert not pool.contains("f", 1)

    def test_hits_charge_no_io(self):
        dev = pool_device(frames=4)
        for _ in range(5):
            dev.pool.read_page("f", 0)
        assert dev.stats.reads == 1
        assert dev.stats.cache.hits == 4
        assert dev.stats.cache.misses == 1


class TestSharedDevices:
    """One pool charging several devices: the surface the server's
    shared pool stands on."""

    def test_via_routes_charges_to_accessing_device(self):
        """Cross-query accounting: the pool's anchor device stays at
        zero; the device passed as ``via`` pays (and benefits)."""
        anchor = pool_device(frames=4)
        other = Device(M=8, B=2)
        pool = anchor.pool
        pool.read_page("f", 0, via=other)   # miss: physical read
        pool.read_page("f", 0, via=other)   # hit
        pool.write_page("f", 0, via=other)  # deferred
        pool.flush(device=other)            # write-back, charged now
        assert anchor.stats.reads == 0 and anchor.stats.writes == 0
        assert anchor.stats.cache.hits == 0
        assert other.stats.reads == 1 and other.stats.writes == 1
        assert other.stats.cache.hits == 1
        assert other.stats.cache.writebacks == 1

    def test_flush_per_device_writes_only_own_dirt(self):
        anchor = pool_device(frames=4)
        a, b = Device(M=8, B=2), Device(M=8, B=2)
        pool = anchor.pool
        pool.write_page("f", 0, via=a)
        pool.write_page("g", 0, via=b)
        pool.flush(device=a)
        assert a.stats.writes == 1 and b.stats.writes == 0
        pool.flush()  # no filter: the rest goes back too
        assert b.stats.writes == 1

    @pytest.mark.parametrize("reset", ["close", "clear"])
    def test_close_and_clear_drop_every_frame(self, reset):
        pool = pool_device(frames=2).pool
        pool.read_page("f", 0)
        pool.write_page("f", 1)
        getattr(pool, reset)()
        assert pool.resident_pages == 0
        # close() writes the dirty page back first; clear() does not.
        assert pool.device.stats.writes == (reset == "close")
        for page in range(3):  # a stale policy would evict page f/0
            pool.read_page("g", page)
        assert pool.resident_pages == 2

    def test_drop_matching_spares_dirty(self):
        pool = pool_device(frames=4).pool
        pool.write_page("g", 0)       # dirty
        pool.read_page("h", 0)        # clean, droppable
        assert pool.drop_matching(lambda key: True) == 1
        assert pool.contains("g", 0) and not pool.contains("h", 0)
        assert pool.drop_matching(lambda key: True,
                                  include_dirty=True) == 1
        assert pool.resident_pages == 0


class TestDirtyPages:
    def test_writes_deferred_then_counted_exactly_once(self):
        dev = pool_device(frames=2, M=8, B=2)
        f = dev.file_from_tuples([(i,) for i in range(6)])  # 3 pages
        # Two frames: page 0 was evicted dirty (1 write-back); pages
        # 1-2 are resident dirty with their writes still deferred.
        assert dev.stats.writes == 1
        dev.flush_pool()
        assert dev.stats.writes == 3
        dev.flush_pool()              # idempotent: pages now clean
        assert dev.stats.writes == 3
        assert dev.stats.cache.writebacks == 3
        # Pages 1-2 are still resident (clean): reading them is free.
        list(f.segment(2, 6).scan())
        assert dev.stats.cache.hits == 2
        assert dev.stats.reads == 0
        # The evicted page 0 is a charged miss.
        list(f.segment(0, 2).scan())
        assert dev.stats.reads == 1

    def test_reset_stats_drops_deferred_writes(self):
        dev = pool_device(frames=4, M=8, B=2)
        dev.file_from_tuples([(i,) for i in range(4)])
        dev.reset_stats()
        dev.flush_pool()
        assert dev.stats.writes == 0
        assert dev.pool.resident_pages == 0

    def test_close_flushes_and_drops(self):
        dev = pool_device(frames=4, M=8, B=2)
        dev.file_from_tuples([(i,) for i in range(4)])  # 2 dirty pages
        dev.pool.close()
        assert dev.stats.writes == 2
        assert dev.pool.resident_pages == 0

    def test_peak_resident_pages_outlives_drops_until_reset(self):
        dev = pool_device(frames=4, M=8, B=2)
        f = dev.file_from_tuples([(i,) for i in range(6)])  # 3 pages
        assert dev.pool.peak_resident_pages == 3
        dev.flush_pool()
        assert dev.pool.drop_matching(lambda key: key[0] is f) == 3
        list(f.segment(0, 2).scan())
        assert (dev.pool.resident_pages,
                dev.pool.peak_resident_pages) == (1, 3)
        dev.reset_stats()
        assert dev.pool.peak_resident_pages == 0


class TestPoolDisabledDefault:
    def test_device_has_no_pool_by_default(self):
        dev = Device(M=8, B=2)
        assert dev.pool is None
        assert dev.pool_config is None
        dev.flush_pool()              # no-op, no error

    def test_cache_counters_stay_zero_without_pool(self):
        dev = Device(M=8, B=2)
        f = dev.file_from_tuples([(i,) for i in range(8)])
        list(f.scan())
        c = dev.stats.cache
        assert (c.hits, c.misses, c.evictions, c.writebacks) == (0, 0, 0, 0)


def _run_star(pool):
    q = star_query(2)
    schemas, data = make_random_data(q, 30, 4, seed=3)
    dev = Device(M=8, B=2, buffer_pool=pool)
    inst = Instance.from_dicts(dev, schemas, data)
    em = CountingEmitter()
    execute(q, inst, em)
    dev.flush_pool()
    return dev, em


class TestAccountingInvariants:
    def test_hits_plus_misses_equal_logical_reads(self):
        """Pool-on logical reads must equal pool-off physical reads."""
        dev_off, em_off = _run_star(None)
        dev_on, em_on = _run_star(PoolConfig(tuples=8))
        assert em_on.count == em_off.count
        c = dev_on.stats.cache
        assert c.hits + c.misses == c.logical_reads
        assert c.logical_reads == dev_off.stats.reads

    def test_writes_conserved_and_reads_never_increase(self):
        dev_off, _ = _run_star(None)
        dev_on, _ = _run_star(PoolConfig(tuples=8))
        assert dev_on.stats.writes == dev_off.stats.writes
        assert dev_on.stats.reads <= dev_off.stats.reads


@settings(max_examples=30, deadline=None)
@given(n_edges=st.integers(1, 3), size=st.integers(2, 14),
       domain=st.integers(2, 4), seed=st.integers(0, 10**6),
       policy=st.sampled_from(["lru", "clock", "mru"]))
def test_pool_disabled_counts_equal_seed_counts(n_edges, size, domain,
                                                seed, policy):
    """Property: on random small instances, the pool-off run is the
    ground truth — deterministic, and the pool-on run conserves writes,
    never reads more, and accounts every logical read as hit or miss.
    """
    q = line_query(n_edges)
    schemas, data = make_random_data(q, size, domain, seed=seed)

    def run(pool, observers=()):
        dev = Device(M=4, B=2, buffer_pool=pool, observers=observers)
        inst = Instance.from_dicts(dev, schemas, data)
        em = CountingEmitter()
        execute(q, inst, em)
        dev.flush_pool()
        return dev, em

    dev_a, em_a = run(None)
    dev_b, em_b = run(None)
    assert (dev_a.stats.reads, dev_a.stats.writes) == \
        (dev_b.stats.reads, dev_b.stats.writes)

    dev_on, em_on = run(PoolConfig(tuples=4, policy=policy))
    assert em_on.count == em_a.count
    assert dev_on.stats.writes == dev_a.stats.writes
    assert dev_on.stats.reads <= dev_a.stats.reads
    c = dev_on.stats.cache
    assert c.logical_reads == dev_a.stats.reads
    assert dev_on.stats.reads == c.misses

    # The observed pool path (notifications on) counts exactly what the
    # observer-free path counts, and the observer sees every event.
    tracer = Tracer()
    dev_obs, em_obs = run(PoolConfig(tuples=4, policy=policy), [tracer])
    assert em_obs.count == em_on.count
    assert _pool_counts(dev_obs) == _pool_counts(dev_on)
    summary = tracer.summary()
    assert (summary["io"]["reads"], summary["io"]["writes"]) == \
        (dev_on.stats.reads, dev_on.stats.writes)
    assert summary["cache"] == {
        k: v for k, v in c.as_dict().items()
        if k in ("hits", "misses", "evictions", "writebacks")}


class _PolicyModel:
    """A reference pool for one replacement policy, written apart from
    ``repro.em.policies``: LRU and MRU pick the resident page with the
    oldest or newest last use; clock keeps a ring with reference bits,
    a new page joins at the ring's end and the hand stays where the
    victim was."""

    def __init__(self, policy: str, frames: int) -> None:
        self.policy, self.frames = policy, frames
        self.dirty: dict[int, bool] = {}      # resident page -> dirty
        self.last_use: dict[int, int] = {}
        self.ring: list[int] = []
        self.ref: dict[int, bool] = {}
        self.hand = 0
        self.tick = 0
        self.hits = self.evictions = self.writebacks = 0

    def touch(self, page: int) -> None:
        self.tick += 1
        self.last_use[page] = self.tick
        self.ref[page] = True

    def victim(self) -> int:
        if self.policy == "lru":
            return min(self.dirty, key=self.last_use.__getitem__)
        if self.policy == "mru":
            return max(self.dirty, key=self.last_use.__getitem__)
        while True:
            self.hand %= len(self.ring)
            page = self.ring[self.hand]
            if not self.ref[page]:
                del self.ring[self.hand]
                return page
            self.ref[page] = False
            self.hand += 1

    def access(self, page: int, write: bool) -> None:
        if page in self.dirty:
            self.hits += not write
        else:
            if len(self.dirty) == self.frames:
                old = self.victim()
                self.evictions += 1
                self.writebacks += self.dirty.pop(old)
                del self.last_use[old], self.ref[old]
            self.dirty[page] = False
            self.ring.append(page)
        self.dirty[page] = self.dirty[page] or write
        self.touch(page)

    def flush(self) -> None:
        self.writebacks += sum(self.dirty.values())
        self.dirty = dict.fromkeys(self.dirty, False)


@pytest.mark.parametrize("policy", ["lru", "clock", "mru"])
@settings(max_examples=60, deadline=None)
@given(frames=st.integers(1, 4),
       trace=st.lists(st.tuples(st.sampled_from("rwf"),
                                st.integers(0, 7)), min_size=4, max_size=60))
def test_policies_match_reference_model(policy, frames, trace):
    """Property: under random read/write/flush traces every policy
    keeps the model's resident set, evictions and write-backs after
    each access — the victims themselves, not only their totals."""
    dev = pool_device(frames=frames, policy=policy)
    pool, cache = dev.pool, dev.stats.cache
    model = _PolicyModel(policy, frames)
    for op, page in trace:
        if op == "f":
            pool.flush()
            model.flush()
        elif op == "r":
            pool.read_page("f", page)
            model.access(page, write=False)
        else:
            pool.write_page("f", page)
            model.access(page, write=True)
        assert {p for p in range(8) if pool.contains("f", p)} == \
            set(model.dirty)
        assert (cache.hits, cache.evictions, cache.writebacks) == \
            (model.hits, model.evictions, model.writebacks)


def _pool_counts(dev):
    """Reads, writes, hits, misses, evictions and write-backs."""
    c = dev.stats.cache
    return (dev.stats.reads, dev.stats.writes, c.hits, c.misses,
            c.evictions, c.writebacks)
