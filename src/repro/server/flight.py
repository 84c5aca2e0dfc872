"""The query flight recorder: the newest per-query records, kept.

The measurement substrate observes *devices* (tracer, spans, metrics);
nothing so far observed a *query*.  A :class:`FlightRecorder` on the
:class:`~repro.server.service.QueryService` closes that gap: every
query executed through a session — including the ones admission
rejects and the ones that fail — hands its finished
:class:`~repro.server.session.QueryResult` to :meth:`FlightRecorder.
record`, which numbers it (``flight_id``), flags it ``slow`` and keeps
it.  There is no second schema: the record ``GET /debug/queries/<id>``
returns is the document the ``POST /query`` reply was, minus any
collected ``rows`` (the ring keeps what a query experienced, not its
output).

Like every observer in this tree the recorder is strictly passive: it
keeps counter deltas the session already computed, it never charges
the device, so I/O counters are byte-identical with recording on or
off (``benchmarks/bench_service_throughput.py`` pins this next to the
pool baselines).

Records live in a bounded ring (``collections.deque``): the newest
``capacity`` records are kept, and — like the tracer's trace-loss
reporting — the recorder counts what it *saw* separately from what it
*stored*, so a truncated history is never mistaken for a complete one
(``seen == stored + overwritten`` always holds).  Queries whose
``wall_ms`` reaches ``slow_ms`` are additionally flagged and counted:
the slow-query log under heavy traffic.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.session import QueryResult


class FlightRecorder:
    """Bounded ring of the newest query records.

    ``slow_ms`` is the slow-query threshold: records whose ``wall_ms``
    meets it are flagged ``slow`` and counted (``stats()["slow"]``).
    """

    def __init__(self, capacity: int = 256,
                 slow_ms: float | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        self.capacity = capacity
        self.slow_ms = slow_ms
        self._records: deque[QueryResult] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self.seen = 0
        self.slow_count = 0

    # -- recording -----------------------------------------------------

    def record(self, result: QueryResult) -> QueryResult:
        """Number, flag and store one finished query; returns it with
        ``flight_id`` and ``slow`` set (and its ``rows``, which the
        stored copy drops)."""
        slow = (self.slow_ms is not None
                and result.wall_s * 1e3 >= self.slow_ms)
        rec = dataclasses.replace(result, flight_id=next(self._ids),
                                  slow=slow)
        self._records.append(rec if rec.rows is None
                             else dataclasses.replace(rec, rows=None))
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
                slow_only: bool = False) -> list[QueryResult]:
        """The newest ``n`` stored records, newest first."""
        out = list(self._records)
        out.reverse()
        if slow_only:
            out = [r for r in out if r.slow]
        return out if n is None else out[:max(0, n)]

    def get(self, flight_id: int) -> QueryResult | None:
        for rec in self._records:
            if rec.flight_id == flight_id:
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
