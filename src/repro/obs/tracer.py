"""The event observer: a ring buffer of device events plus totals.

A :class:`Tracer` on a :class:`~repro.em.device.Device`'s observer
list stores a ring-buffered stream of
:class:`~repro.obs.events.TraceEvent` records and keeps exact totals
of what it saw: I/O per file and per phase, cache events and the
memory peak.  The totals count every event, so they stay exact when
the buffer (``capacity`` events; the oldest are overwritten) is full.
The tracer never mutates a counter, so traced and untraced runs have
byte-identical I/O statistics (asserted by
``tests/test_seed_io_counts.py``).

Phases nest; a charge counts toward the innermost open phase only
(exclusive attribution), so the per-phase totals plus
:data:`UNATTRIBUTED` equal ``device.phases.report()``.  The inclusive
view — a phase's I/O with its children's — is a phase span's ``io``
in :class:`~repro.obs.spans.SpanProfiler`.
"""

from __future__ import annotations

import collections
import json

from repro.obs.events import TraceEvent
from repro.obs.observer import Observer

#: Phase label for I/O charged outside any open phase.  Matches the
#: remainder key of :meth:`repro.em.stats.PhaseTracker.report`.
UNATTRIBUTED = "(unattributed)"

#: Singular event kind -> the plural counter key ``CacheStats`` uses.
_CACHE_KEY = {"hit": "hits", "miss": "misses", "eviction": "evictions",
              "writeback": "writebacks"}


class Tracer(Observer):
    """Ring-buffered trace of device events with exact totals."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: collections.deque[TraceEvent] = collections.deque(
            maxlen=capacity)
        self._seen = 0
        self._phase_stack: list[str] = []
        # file / phase label -> [reads, writes]
        self._per_file: dict[str, list[int]] = {}
        self._per_phase: dict[str, list[int]] = {}
        self._cache = {k: 0 for k in _CACHE_KEY.values()}
        self._mem_peak = 0

    # -- Observer hooks --------------------------------------------------

    def on_read(self, file: str, page: int) -> None:
        self._charge(0, "read", file, page)

    def on_write(self, file: str, page: int) -> None:
        self._charge(1, "write", file, page)

    def on_cache(self, kind: str, file: str, page: int) -> None:
        self._cache[_CACHE_KEY[kind]] += 1
        self._store(kind, file, page, self._phase())

    def on_phase_enter(self, label: str) -> None:
        self._phase_stack.append(label)
        self._store("phase_enter", phase=label)

    def on_phase_exit(self, label: str, exclusive_io: int) -> None:
        if self._phase_stack and self._phase_stack[-1] == label:
            self._phase_stack.pop()
        self._store("phase_exit", phase=label, value=exclusive_io)

    def on_mem_peak(self, peak: int) -> None:
        self._mem_peak = max(self._mem_peak, peak)
        self._store("mem_peak", value=peak)

    # -- inspection and export ----------------------------------------

    def events(self) -> list[TraceEvent]:
        """The currently buffered events, oldest first."""
        return list(self._buffer)

    @property
    def seen(self) -> int:
        """Total events observed (including overwritten ones)."""
        return self._seen

    def summary(self) -> dict:
        """Exact totals plus buffer bookkeeping, JSON-ready.

        Phases and files are sorted by name.
        """
        reads = sum(r for r, _ in self._per_file.values())
        writes = sum(w for _, w in self._per_file.values())
        return {
            "events": {"seen": self._seen,
                       "stored": len(self._buffer),
                       "overwritten": self._seen - len(self._buffer),
                       "capacity": self.capacity},
            "io": _row(reads, writes),
            "per_phase": {k: _row(*v) for k, v in
                          sorted(self._per_phase.items())},
            "per_file": {k: _row(*v) for k, v in
                         sorted(self._per_file.items())},
            "cache": dict(self._cache),
            "memory": {"peak": self._mem_peak},
        }

    def export_jsonl(self, path) -> int:
        """Write the buffered events as JSON Lines; return the count."""
        events = self.events()
        # host-side JSONL export, not simulated-device I/O
        with open(path, "w", encoding="utf-8") as fh:
            for e in events:
                fh.write(json.dumps(e.as_dict(), sort_keys=False))
                fh.write("\n")
        return len(events)

    def reset(self) -> None:
        """Drop all events and zero the totals (keeps the capacity)."""
        self._buffer.clear()
        self._seen = 0
        self._phase_stack.clear()
        self._per_file.clear()
        self._per_phase.clear()
        self._cache = {k: 0 for k in self._cache}
        self._mem_peak = 0

    # -- internals -----------------------------------------------------

    def _phase(self) -> str | None:
        return self._phase_stack[-1] if self._phase_stack else None

    def _charge(self, i: int, kind: str, file: str, page: int) -> None:
        """Count one read (``i=0``) or write (``i=1``) and store it."""
        phase = self._phase()
        self._per_file.setdefault(file, [0, 0])[i] += 1
        self._per_phase.setdefault(
            UNATTRIBUTED if phase is None else phase, [0, 0])[i] += 1
        self._store(kind, file, page, phase)

    def _store(self, kind: str, file: str | None = None,
               page: int | None = None, phase: str | None = None,
               value: int | None = None) -> None:
        self._buffer.append(
            TraceEvent(self._seen, kind, file, page, phase, value))
        self._seen += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Tracer(seen={self._seen}, stored={len(self._buffer)}, "
                f"capacity={self.capacity})")


def _row(reads: int, writes: int) -> dict:
    return {"reads": reads, "writes": writes, "total": reads + writes}
