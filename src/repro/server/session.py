"""What a query reports, and the names queries run under.

A :class:`QueryResult` is one query end to end, in solo-run-comparable
units: the ``POST /query`` reply and the flight record are both this
one document.  A rejected or failed query gets one too (``status``
``"rejected"``/``"error"``, its ``error`` text, no results or I/O).

A :class:`Session` is only a name on a
:class:`~repro.server.service.QueryService`: the default tenant its
queries are admitted under, and a count of the queries it ran.  The
machine state a query runs on — the device per ``(M, B)``, its view of
the shared pool, the materialized instance — belongs to the service
and serves every session alike, so keeping a session costs one small
object and reopening one costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.hypergraph import JoinQuery
    from repro.server.service import QueryService


class SessionClosed(RuntimeError):
    """The session was closed; open a new one."""


@dataclass(frozen=True)
class QueryResult:
    """One query, end to end: what it did, in solo-run-comparable
    units, and how it fared.  The ``POST /query`` reply and the flight
    record are both this one document (:meth:`as_dict`)."""

    query: str
    instance: str
    session: str
    owner: str                     #: admission owner (tenant)
    status: str                    #: "ok", "rejected" or "error"
    machine: dict
    arrival_unix: float            #: wall-clock arrival (epoch seconds)
    admission: dict = field(default_factory=dict)
    shape: str = ""
    algorithm: str = ""
    results: int = 0
    io: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    peak_mem: int = 0
    cache: dict | None = None      #: owner-attributed pool deltas
    wall_s: float = 0.0            #: arrival to finish
    run_s: float = 0.0             #: grant to finish
    error: str | None = None
    rows: list | None = field(default=None, repr=False)
    #: set by the flight recorder (None with recording off).
    flight_id: int | None = None
    slow: bool = False

    def as_dict(self) -> dict:
        out = {"query": self.query, "instance": self.instance,
               "session": self.session, "owner": self.owner,
               "status": self.status,
               "arrival_unix": round(self.arrival_unix, 6),
               "shape": self.shape, "algorithm": self.algorithm,
               "results": self.results, "io": self.io,
               "phases": self.phases, "peak_mem": self.peak_mem,
               "machine": self.machine, "admission": self.admission,
               "wall_ms": round(self.wall_s * 1e3, 3),
               "run_ms": round(self.run_s * 1e3, 3), "slow": self.slow}
        if self.cache is not None:
            out["cache"] = self.cache
        if self.error is not None:
            out["error"] = self.error
        if self.flight_id is not None:
            out["flight_id"] = self.flight_id
        if self.rows is not None:
            out["rows"] = [{edge: list(t) for edge, t in r.items()}
                           for r in self.rows]
        return out

    def summary(self) -> dict:
        """The compact row ``GET /debug/queries`` lists."""
        return {"id": self.flight_id, "session": self.session,
                "owner": self.owner, "status": self.status,
                "query": self.query, "shape": self.shape,
                "results": self.results,
                "io_total": self.io.get("total", 0),
                "wait_ms": self.admission.get("wait_ms", 0.0),
                "wall_ms": round(self.wall_s * 1e3, 3),
                "slow": self.slow}


class Session:
    """A named client of a :class:`~repro.server.service.QueryService`.

    Each query runs to completion before the next starts.  The session
    stays open while the service's registry maps its name to it:
    :meth:`~repro.server.service.QueryService.close_session` or closing
    the service closes it.
    """

    __slots__ = ("_service", "name", "queries")

    def __init__(self, service: "QueryService", name: str) -> None:
        self._service = service
        self.name = name
        self.queries = 0

    @property
    def closed(self) -> bool:
        return self._service._sessions.get(self.name) is not self

    def execute(self, query: "JoinQuery | str", **kwargs) -> QueryResult:
        """Run one query to completion under this session's name
        (keywords as :meth:`~repro.server.service.QueryService.execute`;
        ``tenant`` defaults to the name)."""
        if self.closed:
            raise SessionClosed(f"session {self.name!r} is closed")
        result = self._service._run(self.name, query, **kwargs)
        self.queries += 1
        return result

    def stats(self) -> dict[str, object]:
        return {"name": self.name, "queries": self.queries}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Session({self.name!r}, queries={self.queries}, "
                f"closed={self.closed})")
