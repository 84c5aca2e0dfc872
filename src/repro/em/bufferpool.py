"""An opt-in buffer pool between page access and the simulated disk.

The paper's cost model (Aggarwal–Vitter) charges one I/O per block
transfer and assumes nothing about caching, so by default every
:class:`~repro.em.device.Device` charges each page entry directly to
:class:`~repro.em.stats.IOStats` — re-reading a hot page costs a fresh
I/O.  Real buffer-managed executions pay less: a page still resident in
memory is served for free.  ``Device(M, B, buffer_pool=PoolConfig(...))``
interposes a :class:`BufferPool` so that gap can be *measured* per query
class (see ``benchmarks/bench_bufferpool_gap.py``) without disturbing
the paper-faithful default.

Semantics:

* a **read** of a resident page is a *hit* (no I/O); a miss charges one
  read and admits the page;
* a **write** (a flushed writer page) is admitted *dirty* and charged
  only when the page is evicted or the pool is flushed — each written
  page is written back exactly once, so with a final :meth:`flush` the
  write count equals the pool-off write count and all savings are read
  hits;
* :meth:`flush` writes back all dirty pages; call it (or
  ``device.flush_pool()``) at the end of a run so counts are
  deterministic and comparable.

Counters live in ``device.stats.cache`` (hits / misses / evictions /
write-backs) and satisfy ``hits + misses == logical page reads``, where
the logical count is exactly what the pool-off configuration charges.

Cross-query sharing (``repro.server``)
--------------------------------------

A pool can also back *several* devices at once — the service's shared
pool, where hot relations are read once and hit from cache across
queries and machine shapes.  Two extensions make that sound without disturbing the
single-device accounting above:

* every access may name the device doing the work (``via=``); hits,
  misses, evictions and write-backs are charged to *that* device's
  counters, so each device's :class:`~repro.em.stats.IOStats` stays
  byte-identical to what it alone caused (omitting ``via`` charges the
  pool's own device — the historical behavior);
* dirty frames remember which device dirtied them, so
  ``flush(device=...)`` writes back only one device's deferred writes,
  charged to that device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, TYPE_CHECKING

from repro.em.policies import ReplacementPolicy, make_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.em.device import Device


@dataclass(frozen=True)
class PoolConfig:
    """Configuration for an opt-in buffer pool.

    The frame budget is given either in ``tuples`` (a fraction of the
    device's ``M``, the paper-natural unit; rounded down to whole
    frames) or directly in page ``frames``.  With neither set, the
    budget defaults to ``M`` tuples.
    """

    tuples: int | None = None
    frames: int | None = None
    policy: str = "lru"

    def n_frames(self, M: int, B: int) -> int:
        """Resolve the frame budget in pages for a given machine."""
        if self.frames is not None:
            if self.frames < 1:
                raise ValueError(f"frames must be >= 1, got {self.frames}")
            return self.frames
        budget = self.tuples if self.tuples is not None else M
        if budget < 1:
            raise ValueError(f"tuples must be >= 1, got {budget}")
        return max(1, budget // B)


class _Frame:
    """One resident page: dirtiness and who dirtied it.

    Frames start clean; the pool marks them dirty.
    """

    __slots__ = ("dirty", "dirtied_by")

    def __init__(self) -> None:
        self.dirty = False
        self.dirtied_by: "Device | None" = None


class BufferPool:
    """A fixed budget of page frames with a pluggable eviction policy.

    Pages are keyed by ``(file, page_number)``; the pool never stores
    tuple data (the simulated disk already holds it) — it tracks
    residency so the device can charge hits nothing.
    """

    def __init__(self, device: "Device", config: PoolConfig) -> None:
        self.device = device
        self.config = config
        self.n_frames = config.n_frames(device.M, device.B)
        self.policy: ReplacementPolicy = make_policy(config.policy)
        self._frames: dict[tuple[Hashable, int], _Frame] = {}
        #: The most frames ever resident at once (cleared by
        #: :meth:`clear`, like ``MemoryGauge.peak`` by a reset).
        self.peak_resident_pages = 0

    # -- introspection -------------------------------------------------

    @property
    def cache(self):
        """The device's cache counters (reset with ``reset_stats``)."""
        return self.device.stats.cache

    def contains(self, f: Hashable, page: int) -> bool:
        """Is the page currently resident?"""
        return (f, page) in self._frames

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    @property
    def resident_tuples(self) -> int:
        """Upper bound on memory held by the pool, in tuples."""
        return len(self._frames) * self.device.B

    # -- page access (called by Device.charge_read / charge_write) -----
    #
    # One call per page: hit, miss, admission and eviction happen inline
    # (a dirty victim goes through _write_back, which flush shares).
    # The charged device's observers are notified only when it has any;
    # the counters move the same way either way, and observed runs see
    # the events in the same order.

    def read_page(self, f: Hashable, page: int,
                  via: "Device | None" = None) -> None:
        """Account one logical page read: a hit or a charged miss.

        ``via`` is the device doing the access (defaults to the pool's
        own); its counters receive the hit/miss, the physical read and
        any eviction.
        """
        dev = self.device if via is None else via
        stats = dev.stats
        key = (f, page)
        frames = self._frames
        if key in frames:
            stats.cache.hits += 1
            if dev.observers:
                dev._notify_cache("hit", f, page)
            self.policy.on_access(key)
            return
        stats.cache.misses += 1
        if dev.observers:
            dev._notify_cache("miss", f, page)
            dev._record_read(f, page)
        else:
            stats.reads += 1
        if len(frames) < self.n_frames:
            frames[key] = _Frame()
            if len(frames) > self.peak_resident_pages:
                self.peak_resident_pages = len(frames)
        else:
            # The victim's frame (clean after write-back) is reused for
            # the new page.
            victim = self.policy.victim()
            frame = frames.pop(victim)
            stats.cache.evictions += 1
            if dev.observers:
                dev._notify_cache("eviction", victim[0], victim[1])
            if frame.dirty:
                self._write_back(victim, frame)
            frames[key] = frame
        self.policy.on_insert(key)

    def write_page(self, f: Hashable, page: int,
                   via: "Device | None" = None) -> None:
        """Account one logical page write, deferred until write-back."""
        dev = self.device if via is None else via
        key = (f, page)
        frames = self._frames
        frame = frames.get(key)
        if frame is None:
            if len(frames) < self.n_frames:
                frame = frames[key] = _Frame()
                if len(frames) > self.peak_resident_pages:
                    self.peak_resident_pages = len(frames)
            else:
                victim = self.policy.victim()
                frame = frames.pop(victim)
                dev.stats.cache.evictions += 1
                if dev.observers:
                    dev._notify_cache("eviction", victim[0], victim[1])
                if frame.dirty:
                    self._write_back(victim, frame)
                frames[key] = frame
            self.policy.on_insert(key)
        else:
            self.policy.on_access(key)
        frame.dirty = True
        frame.dirtied_by = dev

    # -- lifecycle -----------------------------------------------------

    def flush(self, device: "Device | None" = None) -> None:
        """Write back dirty pages (pages stay resident, clean).

        With ``device`` given, only pages *dirtied by* that device are
        written back, charged to it — so one device flushing its
        deferred writes cannot pay for (or expose) another's.  Without,
        every dirty page is written back, each charged to the device
        that dirtied it (the pool's own device when unrecorded).
        """
        for key, frame in self._frames.items():
            if not frame.dirty:
                continue
            if device is not None and frame.dirtied_by is not device:
                continue
            self._write_back(key, frame)

    def close(self) -> None:
        """Flush, then drop every frame."""
        self.flush()
        self.clear()

    def clear(self) -> None:
        """Drop every frame *without* write-back.

        Only for ``Device.reset_stats``: deferred writes would otherwise
        leak into the zeroed counters.
        """
        self._frames.clear()
        self.policy.clear()
        self.peak_resident_pages = 0

    def drop_matching(self, pred: Callable[[tuple[Hashable, int]], bool],
                      *, include_dirty: bool = False) -> int:
        """Forget resident frames whose key satisfies ``pred``.

        No write-back is performed (flush first if the deferred writes
        matter); dirty frames are skipped unless ``include_dirty``.
        Used by the service's pool views to
        retire private (temp-file) frames and a replaced generation's
        frames without touching the pages other queries share.
        """
        dropped = 0
        for key in [k for k in self._frames if pred(k)]:
            if self._frames[key].dirty and not include_dirty:
                continue
            del self._frames[key]
            self.policy.remove(key)
            dropped += 1
        return dropped

    # -- internals -----------------------------------------------------

    def _write_back(self, key: tuple[Hashable, int], frame: _Frame) -> None:
        """Write one dirty frame back, charged to the device that
        dirtied it; the frame stays resident, clean."""
        dev = frame.dirtied_by or self.device
        if dev.observers:
            dev._record_write(key[0], key[1])
            dev.stats.cache.writebacks += 1
            dev._notify_cache("writeback", key[0], key[1])
        else:
            dev.stats.writes += 1
            dev.stats.cache.writebacks += 1
        frame.dirty = False
        frame.dirtied_by = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BufferPool(frames={self.n_frames}, "
                f"policy={self.config.policy!r}, "
                f"resident={len(self._frames)})")
