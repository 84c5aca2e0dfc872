"""I/O and memory accounting for the simulated external-memory machine.

The external-memory (EM) model of Aggarwal and Vitter has a main memory
holding ``M`` items and a disk accessed in blocks of ``B`` items; the cost
of an algorithm is the number of block transfers (I/Os).  The paper
reasons exclusively about this count, so the accounting here is the
ground truth every benchmark in this repository reports.

Two cost meters live in this module:

* :class:`IOStats` counts page reads and page writes.  A "page" is a
  block of ``B`` tuples; partial pages cost a full I/O, matching the
  model.
* :class:`MemoryGauge` tracks the number of tuples currently held
  resident by the running algorithm and the peak over the run.  The
  paper assumes a memory of ``c * M`` for a sufficiently large constant
  ``c`` (Section 1.1), so the gauge enforces ``current <= slack * M``
  rather than a hard ``M``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from types import TracebackType
from typing import TYPE_CHECKING, Iterator

from repro.obs.spans import ObservedSpan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.em.device import Device
    from repro.obs.observer import Observer


class MemoryBudgetExceeded(RuntimeError):
    """Raised when an algorithm holds more than ``slack * M`` tuples."""


@dataclass
class CacheStats:
    """Buffer-pool counters (all zero while the pool is disabled).

    ``hits + misses`` equals the number of *logical* page reads — the
    count the pool-off configuration would have charged as physical
    reads.  ``writebacks`` counts dirty pages written back on eviction
    or flush; each written page is written back exactly once.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def logical_reads(self) -> int:
        """Logical page reads: what pool-off accounting would charge."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of logical reads served without an I/O."""
        return self.hits / self.logical_reads if self.logical_reads else 0.0

    def as_dict(self) -> dict[str, object]:
        """Counters plus derived rates, for reports and ``--json``."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "writebacks": self.writebacks,
                "logical_reads": self.logical_reads,
                "hit_rate": round(self.hit_rate, 4)}

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0

    def copy(self) -> "CacheStats":
        """An independent copy (snapshots must not alias the live one)."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          evictions=self.evictions,
                          writebacks=self.writebacks)

    def delta_since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter-wise difference against an earlier snapshot."""
        return CacheStats(hits=self.hits - earlier.hits,
                          misses=self.misses - earlier.misses,
                          evictions=self.evictions - earlier.evictions,
                          writebacks=self.writebacks - earlier.writebacks)

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses,
                          evictions=self.evictions + other.evictions,
                          writebacks=self.writebacks + other.writebacks)


@dataclass
class IOStats:
    """Mutable counter of block transfers.

    Attributes
    ----------
    reads:
        Number of pages transferred from disk to memory.
    writes:
        Number of pages transferred from memory to disk.
    cache:
        Buffer-pool counters; all zero unless the device opts into a
        :class:`~repro.em.bufferpool.BufferPool`.
    suspended:
        Nesting depth of :meth:`suspend`; truthy while counting is
        suspended.  A plain attribute, since the device tests it on
        every page charge.

    While :meth:`suspend` is active the device charges nothing — used
    for free input materialization, where rewinding the counters
    afterwards (the old implementation) would corrupt the exclusive
    attribution of any open :class:`PhaseTracker` phase.
    """

    reads: int = 0
    writes: int = 0
    cache: CacheStats = field(default_factory=CacheStats, compare=False)
    suspended: int = field(default=0, init=False, repr=False,
                           compare=False)

    @property
    def total(self) -> int:
        """Total block transfers, the cost measure of the EM model."""
        return self.reads + self.writes

    @contextlib.contextmanager
    def suspend(self) -> Iterator[None]:
        """Suspend all charging for the enclosed scope (re-entrant)."""
        self.suspended += 1
        try:
            yield
        finally:
            self.suspended -= 1

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters.

        The cache section is deep-copied: a snapshot taken on a pooled
        device must not alias (and silently track) the live counters.
        """
        return IOStats(reads=self.reads, writes=self.writes,
                       cache=self.cache.copy())

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Return the I/Os incurred since ``earlier`` was snapshotted.

        Includes the cache counters, so pooled interval measurements
        report their true hit rate rather than a constant zero.
        """
        return IOStats(reads=self.reads - earlier.reads,
                       writes=self.writes - earlier.writes,
                       cache=self.cache.delta_since(earlier.cache))

    def reset(self) -> None:
        """Zero all counters, including the cache section."""
        self.reads = 0
        self.writes = 0
        self.cache.reset()

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(reads=self.reads + other.reads,
                       writes=self.writes + other.writes,
                       cache=self.cache + other.cache)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"IOStats(reads={self.reads}, writes={self.writes}, total={self.total})"


class PhaseTracker:
    """Attributes I/O to named phases ("sort", "semijoin", …).

    Phases nest; each phase's total counts only the I/O not claimed by
    an inner phase (exclusive attribution), so the per-phase totals plus
    the unattributed remainder always sum to the device total.  Library
    code tags its heavyweight operations; callers may add their own
    phases around application logic::

        with device.phases.phase("partition"):
            ...

    ``totals`` maps label → I/Os; :meth:`report` adds the remainder.
    Each phase is announced to the device's observers
    (``on_phase_enter`` / ``on_phase_exit``) and opened as a
    ``kind="phase"`` span on each of them, the span ``device.span``
    would open.
    """

    def __init__(self, device: "Device") -> None:
        self._device = device
        self._stats = device.stats
        self._observers = device.observers
        self.totals: dict[str, int] = {}
        self._stack: list[list[int]] = []
        # I/O total when the tracker was last reset: the remainder in
        # report() is measured from here, so a long-lived device (a
        # query service's) can zero its phase view per query without
        # rewinding the monotone counters.
        self._origin: int = 0

    def phase(self, label: str) -> "_Phase":
        """A scope attributing its I/O to ``label`` (see the class doc)."""
        return _Phase(self, label)

    def report(self) -> dict[str, int]:
        """Per-phase I/O plus the unattributed remainder."""
        out = dict(sorted(self.totals.items()))
        out["(unattributed)"] = (self._stats.total - self._origin
                                 - sum(self.totals.values()))
        return out

    def reset(self) -> None:
        self.totals.clear()
        self._stack.clear()
        self._origin = self._stats.total


@dataclass
class MemoryGauge:
    """Tracks tuples held resident in (simulated) main memory.

    Algorithms wrap memory-resident structures in :meth:`hold` so that
    tests can assert the paper's memory budget is respected.  The gauge
    is advisory by default (``strict=False``) because constant factors
    differ between the abstract algorithms and a faithful executable
    rendering; benchmarks and tests flip ``strict`` on with a generous
    ``slack``.
    """

    capacity: int
    slack: float = 8.0
    strict: bool = False
    current: int = 0
    peak: int = 0
    # The owning device's observer list; told of every new peak.
    observers: list["Observer"] = field(default_factory=list,
                                        repr=False, compare=False)

    @property
    def limit(self) -> float:
        """The enforced budget ``slack * capacity``.

        Recomputed on access so mutating ``capacity`` or ``slack`` after
        construction cannot leave a stale limit behind.
        """
        return self.slack * self.capacity

    def charge(self, n: int) -> None:
        """Record ``n`` additional resident tuples.

        In strict mode a charge past the limit raises and leaves
        ``current`` as it was (``peak`` still records the attempt), so
        a failed :meth:`hold` holds nothing.
        """
        if n < 0:
            raise ValueError(f"cannot charge a negative amount: {n}")
        current = self.current + n
        if current > self.peak:
            self.peak = current
            for o in self.observers:
                o.on_mem_peak(current)
        if self.strict and current > self.limit:
            raise MemoryBudgetExceeded(
                f"holding {current} tuples exceeds "
                f"slack*M = {self.limit:.0f} (M={self.capacity})")
        self.current = current

    def release(self, n: int) -> None:
        """Record ``n`` resident tuples being dropped."""
        if n < 0:
            raise ValueError(f"cannot release a negative amount: {n}")
        self.current -= n
        if self.current < 0:
            raise ValueError("released more tuples than were held")

    def hold(self, n: int) -> "_Hold":
        """Context manager charging ``n`` tuples for the enclosed scope."""
        return _Hold(self, n)

    def reset(self) -> None:
        """Zero the gauge (does not change capacity or slack)."""
        self.current = 0
        self.peak = 0


class _Phase:
    """One :meth:`PhaseTracker.phase` scope.

    Entering pushes the phase's ``[start, child I/O]`` entry, announces
    the phase to the device's observers and, while there are any,
    opens a ``kind="phase"`` :class:`~repro.obs.spans.ObservedSpan`.
    Leaving, also on an exception, closes that span, pops the entry,
    adds the exclusive I/O to the label's total and the inclusive I/O
    to the enclosing phase's children, then announces the exit.
    """

    __slots__ = ("_tracker", "_label", "_entry", "_span")

    def __init__(self, tracker: PhaseTracker, label: str) -> None:
        self._tracker = tracker
        self._label = label
        self._entry: list[int] = []
        self._span: ObservedSpan | None = None

    def __enter__(self) -> None:
        tracker = self._tracker
        self._entry = [tracker._stats.total, 0]
        tracker._stack.append(self._entry)
        for o in tracker._observers:
            o.on_phase_enter(self._label)
        if tracker._observers:
            span = ObservedSpan(tracker._device, self._label, "phase", {})
            try:
                span.open_on_observers()
            except BaseException:
                self._pop()
                raise
            self._span = span

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        try:
            if self._span is not None:
                self._span.close_on_observers()
        finally:
            self._pop()

    def _pop(self) -> None:
        tracker = self._tracker
        stack = tracker._stack
        stack.pop()
        delta = tracker._stats.total - self._entry[0]
        exclusive = delta - self._entry[1]
        totals = tracker.totals
        totals[self._label] = totals.get(self._label, 0) + exclusive
        if stack:
            stack[-1][1] += delta
        for o in tracker._observers:
            o.on_phase_exit(self._label, exclusive)


class _Hold:
    """One :meth:`MemoryGauge.hold` scope: charge ``n`` tuples on
    entry, release them on exit, also on an exception."""

    __slots__ = ("_gauge", "_n")

    def __init__(self, gauge: MemoryGauge, n: int) -> None:
        self._gauge = gauge
        self._n = n

    def __enter__(self) -> None:
        self._gauge.charge(self._n)

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self._gauge.release(self._n)
