"""Structured trace events emitted by the simulated device.

Every event is cheap metadata — a kind, the file/page it touched, the
phase it was attributed to — never tuple contents, so tracing full
benchmark runs stays inexpensive.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Physical block transfers — the paper's cost measure.
IO_KINDS = frozenset({"read", "write"})

#: Buffer-pool lifecycle (only seen on pooled devices).
CACHE_KINDS = frozenset({"hit", "miss", "eviction", "writeback"})

#: Phase attribution markers from :class:`~repro.em.stats.PhaseTracker`.
PHASE_KINDS = frozenset({"phase_enter", "phase_exit"})

#: Memory-gauge peak growth.
MEM_KINDS = frozenset({"mem_peak"})

EVENT_KINDS = IO_KINDS | CACHE_KINDS | PHASE_KINDS | MEM_KINDS


@dataclass(frozen=True)
class TraceEvent:
    """One device event.

    Attributes
    ----------
    seq:
        Monotone sequence number across *all* events the tracer saw
        (an exported trace whose first ``seq`` is not 0 lost its
        oldest events to the ring buffer).
    kind:
        One of :data:`EVENT_KINDS`.
    file:
        File name for I/O and cache events.
    page:
        Page number within ``file`` for I/O and cache events.
    phase:
        Innermost open phase at emission time (I/O and cache events),
        or the phase's own label (``phase_enter`` / ``phase_exit``).
    value:
        ``phase_exit``: the phase's exclusive I/O; ``mem_peak``: the
        new peak in tuples.
    """

    seq: int
    kind: str
    file: str | None = None
    page: int | None = None
    phase: str | None = None
    value: int | None = None

    def as_dict(self) -> dict:
        """Compact dict for JSONL export (``None`` fields omitted)."""
        out = {"seq": self.seq, "kind": self.kind}
        if self.file is not None:
            out["file"] = self.file
        if self.page is not None:
            out["page"] = self.page
        if self.phase is not None:
            out["phase"] = self.phase
        if self.value is not None:
            out["value"] = self.value
        return out
