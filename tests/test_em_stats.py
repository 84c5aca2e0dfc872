"""Unit tests for I/O counters, cache counters, and the memory gauge."""

import pytest

from repro.em import CacheStats, IOStats, MemoryBudgetExceeded, MemoryGauge


class TestIOStats:
    def test_starts_at_zero(self):
        s = IOStats()
        assert s.reads == 0 and s.writes == 0 and s.total == 0

    def test_total_sums_reads_and_writes(self):
        s = IOStats(reads=3, writes=5)
        assert s.total == 8

    def test_snapshot_is_independent(self):
        s = IOStats(reads=1)
        snap = s.snapshot()
        s.reads += 10
        assert snap.reads == 1 and s.reads == 11

    def test_delta_since(self):
        s = IOStats(reads=2, writes=3)
        snap = s.snapshot()
        s.reads += 5
        s.writes += 1
        d = s.delta_since(snap)
        assert d.reads == 5 and d.writes == 1

    def test_add(self):
        a = IOStats(reads=1, writes=2)
        b = IOStats(reads=10, writes=20)
        c = a + b
        assert c.reads == 11 and c.writes == 22

    def test_reset(self):
        s = IOStats(reads=7, writes=7)
        s.reset()
        assert s.total == 0

    def test_reset_zeroes_cache_section(self):
        s = IOStats()
        s.cache.hits = 3
        s.cache.misses = 2
        s.reset()
        assert s.cache.hits == 0 and s.cache.misses == 0

    def test_snapshot_copies_cache_counters(self):
        s = IOStats()
        s.cache.hits = 4
        s.cache.misses = 6
        snap = s.snapshot()
        s.cache.hits += 10
        assert snap.cache.hits == 4 and snap.cache.misses == 6
        assert snap.cache is not s.cache

    def test_delta_since_diffs_cache_counters(self):
        s = IOStats()
        s.cache.hits, s.cache.misses = 5, 5
        snap = s.snapshot()
        s.reads += 3
        s.cache.hits += 7
        s.cache.misses += 3
        s.cache.evictions += 2
        s.cache.writebacks += 1
        d = s.delta_since(snap)
        assert d.reads == 3
        assert (d.cache.hits, d.cache.misses) == (7, 3)
        assert (d.cache.evictions, d.cache.writebacks) == (2, 1)
        assert d.cache.hit_rate == 0.7

    def test_add_sums_cache_counters(self):
        a, b = IOStats(), IOStats()
        a.cache.hits, a.cache.misses = 1, 2
        b.cache.hits, b.cache.misses = 10, 20
        c = a + b
        assert (c.cache.hits, c.cache.misses) == (11, 22)

    def test_pooled_interval_measurement_reports_hit_rate(self):
        """Regression: pooled snapshot/delta used to drop the cache
        section, so any interval measured on a pooled device reported
        hits=0 and hit_rate=0.0."""
        from repro.em import Device, PoolConfig

        device = Device(M=16, B=4, buffer_pool=PoolConfig(frames=4))
        f = device.file_from_tuples_free([(i,) for i in range(16)])
        list(f.reader())                    # cold: all misses
        snap = device.stats.snapshot()
        list(f.reader())                    # warm: all hits
        d = device.stats.delta_since(snap)
        assert d.cache.hits == 4 and d.cache.misses == 0
        assert d.cache.hit_rate == 1.0
        assert d.reads == 0

    def test_suspend_freezes_counting(self):
        s = IOStats(reads=2)
        assert not s.suspended
        with s.suspend():
            assert s.suspended
            with s.suspend():       # re-entrant
                assert s.suspended
            assert s.suspended
        assert not s.suspended
        assert s.reads == 2


class TestCacheStats:
    def test_logical_reads_and_hit_rate(self):
        c = CacheStats(hits=6, misses=2)
        assert c.logical_reads == 8
        assert c.hit_rate == 0.75

    def test_hit_rate_of_idle_cache_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_as_dict_round_trip(self):
        c = CacheStats(hits=1, misses=3, evictions=2, writebacks=1)
        d = c.as_dict()
        assert d["hits"] == 1 and d["misses"] == 3
        assert d["logical_reads"] == 4 and d["hit_rate"] == 0.25

    def test_reset(self):
        c = CacheStats(hits=1, misses=1, evictions=1, writebacks=1)
        c.reset()
        assert c.as_dict()["logical_reads"] == 0


class TestMemoryGauge:
    def test_charge_and_release_track_peak(self):
        g = MemoryGauge(capacity=10)
        g.charge(4)
        g.charge(3)
        g.release(5)
        assert g.current == 2
        assert g.peak == 7

    def test_hold_context_manager(self):
        g = MemoryGauge(capacity=10)
        with g.hold(6):
            assert g.current == 6
        assert g.current == 0
        assert g.peak == 6

    def test_strict_mode_raises_beyond_slack(self):
        g = MemoryGauge(capacity=10, slack=2.0, strict=True)
        g.charge(20)  # exactly at the limit
        with pytest.raises(MemoryBudgetExceeded):
            g.charge(1)

    def test_failed_strict_hold_holds_nothing(self):
        """Regression: a refused charge used to leave ``current``
        raised, so every later hold on the device raised, even
        ``hold(0)``."""
        from repro import Device

        device = Device(M=2, B=1, strict_memory=True, mem_slack=1)
        with pytest.raises(MemoryBudgetExceeded):
            with device.memory.hold(5):
                pass
        assert device.memory.current == 0
        assert device.memory.peak == 5   # the attempt is still recorded
        with device.memory.hold(0), device.memory.hold(2):
            assert device.memory.current == 2
        assert device.memory.current == 0

    def test_non_strict_only_records(self):
        g = MemoryGauge(capacity=10, slack=1.0, strict=False)
        g.charge(1000)
        assert g.peak == 1000

    def test_negative_charge_rejected(self):
        g = MemoryGauge(capacity=10)
        with pytest.raises(ValueError):
            g.charge(-1)

    def test_over_release_rejected(self):
        g = MemoryGauge(capacity=10)
        g.charge(2)
        with pytest.raises(ValueError):
            g.release(3)

    def test_reset(self):
        g = MemoryGauge(capacity=10)
        g.charge(5)
        g.reset()
        assert g.current == 0 and g.peak == 0

    def test_limit_tracks_capacity_mutation(self):
        """Regression: mutating capacity/slack must not leave a stale
        limit behind (the old cached ``_limit`` did)."""
        g = MemoryGauge(capacity=10, slack=1.0, strict=True)
        g.capacity = 100
        g.charge(50)                  # within the recomputed limit
        assert g.current == 50
        with pytest.raises(MemoryBudgetExceeded):
            g.charge(51)

    def test_limit_tracks_slack_mutation(self):
        g = MemoryGauge(capacity=10, slack=1.0, strict=True)
        g.slack = 3.0
        g.charge(25)
        assert g.limit == 30.0
        g.slack = 1.0
        with pytest.raises(MemoryBudgetExceeded):
            g.charge(1)
