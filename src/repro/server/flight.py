"""The query flight recorder: one lifecycle record per query.

The measurement substrate observes *devices* (tracer, spans, metrics);
nothing so far observed a *query*.  A :class:`FlightRecorder` on the
:class:`~repro.server.service.QueryService` closes that gap: every
query executed through a session — including the ones admission
rejects — leaves a structured :class:`FlightRecord` with
its arrival/grant/finish timeline, admission outcome (wait time,
quota), owner-attributed pool cache deltas,
per-phase I/O, peak memory, and result count.

Like every observer in this tree the recorder is strictly passive: it
copies counter deltas the session already computed, it never charges
the device, so I/O counters are byte-identical with recording on or
off (``benchmarks/bench_service_throughput.py`` pins this next to the
pool baselines).

Records live in a bounded ring (``collections.deque``): the newest
``capacity`` records are kept, and — like the tracer's trace-loss
reporting — the recorder counts what it *saw* separately from what it
*stored*, so a truncated history is never mistaken for a complete one
(``seen == stored + overwritten`` always holds).  Queries slower than
``slow_ms`` are additionally flagged and counted: the slow-query log
under heavy traffic.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field

#: Lifecycle outcomes a record can report.
STATUSES = ("ok", "rejected", "error")


@dataclass(frozen=True)
class FlightRecord:
    """Everything one query experienced, end to end."""

    id: int
    session: str
    owner: str                     #: admission owner (tenant)
    query: str
    instance: str
    status: str                    #: one of :data:`STATUSES`
    arrival_unix: float            #: wall-clock arrival (epoch seconds)
    wait_ms: float                 #: admission wait
    run_ms: float                  #: execution after the grant
    total_ms: float                #: arrival to finish
    admission: dict = field(default_factory=dict)
    machine: dict = field(default_factory=dict)
    shape: str = ""
    algorithm: str = ""
    results: int = 0
    io: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    peak_mem: int = 0
    cache: dict | None = None      #: owner-attributed pool deltas
    slow: bool = False
    error: str | None = None

    def summary(self) -> dict:
        """The compact row ``GET /debug/queries`` lists."""
        return {"id": self.id, "session": self.session,
                "owner": self.owner, "status": self.status,
                "query": self.query, "shape": self.shape,
                "results": self.results,
                "io_total": self.io.get("total", 0),
                "wait_ms": self.wait_ms, "total_ms": self.total_ms,
                "slow": self.slow}

    def as_dict(self) -> dict:
        """The full record ``GET /debug/queries/<id>`` returns."""
        out = {"id": self.id, "session": self.session,
               "owner": self.owner, "query": self.query,
               "instance": self.instance, "status": self.status,
               "arrival_unix": round(self.arrival_unix, 6),
               "wait_ms": self.wait_ms, "run_ms": self.run_ms,
               "total_ms": self.total_ms,
               "admission": dict(self.admission),
               "machine": dict(self.machine),
               "shape": self.shape, "algorithm": self.algorithm,
               "results": self.results, "io": dict(self.io),
               "phases": dict(self.phases), "peak_mem": self.peak_mem,
               "slow": self.slow}
        if self.cache is not None:
            out["cache"] = dict(self.cache)
        if self.error is not None:
            out["error"] = self.error
        return out


class FlightRecorder:
    """Bounded ring of the newest query lifecycle records.

    ``slow_ms`` is the slow-query threshold: records whose ``total_ms``
    meets it are flagged ``slow`` and counted (``stats()["slow"]``).
    ``clock`` is injectable for tests.
    """

    def __init__(self, capacity: int = 256,
                 slow_ms: float | None = None, *,
                 clock=time.time) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        self.capacity = capacity
        self.slow_ms = slow_ms
        self.clock = clock
        self._records: deque[FlightRecord] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self.seen = 0
        self.slow_count = 0

    # -- recording -----------------------------------------------------

    def record(self, **fields) -> FlightRecord:
        """Build, number, and store one record; returns it.

        Accepts every :class:`FlightRecord` field except ``id`` and
        ``slow`` (assigned here).
        """
        slow = (self.slow_ms is not None
                and fields.get("total_ms", 0.0) >= self.slow_ms)
        rec = FlightRecord(id=next(self._ids), slow=slow, **fields)
        self._records.append(rec)
        self.seen += 1
        if slow:
            self.slow_count += 1
        return rec

    # -- inspection ----------------------------------------------------

    @property
    def stored(self) -> int:
        return len(self._records)

    @property
    def overwritten(self) -> int:
        """Records the ring has dropped to make room (loss honesty)."""
        return self.seen - len(self._records)

    def records(self, n: int | None = None, *,
                slow_only: bool = False) -> list[FlightRecord]:
        """The newest ``n`` stored records, newest first."""
        out = list(self._records)
        out.reverse()
        if slow_only:
            out = [r for r in out if r.slow]
        return out if n is None else out[:max(0, n)]

    def get(self, record_id: int) -> FlightRecord | None:
        for rec in self._records:
            if rec.id == record_id:
                return rec
        return None

    def stats(self) -> dict[str, object]:
        """Ring accounting: what was seen vs what is still readable."""
        stored = len(self._records)
        return {"capacity": self.capacity, "seen": self.seen,
                "stored": stored,
                "overwritten": self.seen - stored,
                "slow_ms": self.slow_ms, "slow": self.slow_count}

    def __len__(self) -> int:
        return self.stored

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FlightRecorder(seen={self.seen}, "
                f"stored={self.stored}, capacity={self.capacity})")
