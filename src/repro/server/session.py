"""One client's connection: parse → classify → plan → execute, isolated.

A :class:`Session` owns its own :class:`~repro.em.device.Device` per
``(M, B)`` machine shape, so its :class:`~repro.em.stats.IOStats`,
phase attribution and memory gauge are *its own*: the counters a query
reports through a session are byte-identical to a solo ``repro run`` of
the same query (asserted against the pinned ``BENCH_table1.json`` in
``tests/test_server.py``).  What the service shares across sessions —
catalog rows, pool frames, the admission budget — never shows up in a
session's counters except as cache hits it genuinely earned.

Per query the session:

1. parses the text (or accepts a ready :class:`JoinQuery`) and checks
   it against the catalog entry's layouts;
2. declares its planner-estimated memory need to the admission
   controller, which rejects it when it exceeds the budget or the
   tenant's share of it;
3. materializes the instance onto its device (cached per catalog
   generation — uncharged, inputs pre-exist in the model);
4. runs :func:`repro.core.planner.execute` and, when pooled, retires
   the query's working set (flush + drop of private frames);
5. releases the grant and reports a :class:`QueryResult` built from
   counter deltas, so a long-lived session reports each query as if it
   were the device's first.

A rejected or failed query gets a :class:`QueryResult` too (``status``
``"rejected"``/``"error"``, its ``error`` text, no results or I/O); a
query that fails before step 2 (unparseable text, an unknown instance
or relation, a layout mismatch) keeps an empty ``admission`` entry.
Every outcome's record goes to the service's flight recorder, and the
exception still reaches the caller.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.emit import CollectingEmitter, CountingEmitter
from repro.core.planner import estimate_memory_need, execute
from repro.data.instance import Instance
from repro.query.hypergraph import JoinQuery
from repro.query.parse import format_query, parse_query_and_layouts
from repro.server.admission import AdmissionRejected
from repro.server.pool import shared_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.em.device import Device
    from repro.server.catalog import CatalogEntry
    from repro.server.pool import PoolView
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
    """A named connection to a :class:`~repro.server.service.
    QueryService`.  Each query runs to completion before the next
    starts; sessions keep devices and instance caches between
    queries."""

    def __init__(self, service: "QueryService", name: str) -> None:
        self._service = service
        self.name = name
        self._devices: dict[tuple[int, int], "Device"] = {}
        self._views: dict[tuple[int, int], "PoolView"] = {}
        # (instance, generation, M, B) -> materialized Instance
        self._instances: dict[tuple[str, int, int, int], Instance] = {}
        self.queries = 0
        self.closed = False

    # -- the query path ------------------------------------------------

    def execute(self, query: "JoinQuery | str", *,
                instance: str = "default", M: int | None = None,
                B: int | None = None, collect: bool = False,
                reduce_first: bool = True,
                tenant: str | None = None) -> QueryResult:
        """Run one query to completion.

        ``tenant`` names the admission owner for quota accounting; it
        defaults to the session name, so one-shot HTTP sessions can
        still share a tenant's quota by declaring it explicitly.
        """
        if self.closed:
            raise SessionClosed(f"session {self.name!r} is closed")
        svc = self._service
        arrival = time.time()
        t0 = time.perf_counter()
        M = svc.default_query_M if M is None else M
        B = svc.B if B is None else B
        head = QueryResult(
            query=query if isinstance(query, str) else format_query(query),
            instance=instance, session=self.name,
            owner=self.name if tenant is None else tenant, status="ok",
            machine={"M": M, "B": B}, arrival_unix=arrival)
        entry = None
        try:
            try:
                if isinstance(query, str):
                    q, layouts = parse_query_and_layouts(query)
                else:
                    q, layouts = query, None
                entry = svc.catalog.acquire(instance)
                self._check_layouts(q, layouts, entry)
                need = estimate_memory_need(q, M=M, B=B)
            except Exception as exc:
                self._finish(dataclasses.replace(head, status="error",
                                                 error=str(exc)), t0)
                raise
            wait0 = time.perf_counter()
            try:
                grant = svc.admission.acquire(need, owner=head.owner)
            except AdmissionRejected as exc:
                self._finish(
                    dataclasses.replace(head, status="rejected",
                                        error=str(exc)),
                    t0, need, wait0)
                raise
            wait_s = time.perf_counter() - wait0
            try:
                result = self._run(head, q, entry, collect,
                                   reduce_first)
            except Exception as exc:
                self._finish(
                    dataclasses.replace(head, status="error",
                                        error=str(exc)),
                    t0, need, wait0, wait_s)
                raise
            finally:
                svc.admission.release(grant)
        finally:
            if entry is not None:
                svc.catalog.release(entry)
        self.queries += 1
        result = self._finish(result, t0, need, wait0, wait_s)
        svc._observe(result)
        return result

    def _finish(self, result: QueryResult, t0: float,
                need: int | None = None, wait0: float = 0.0,
                wait_s: float | None = None) -> QueryResult:
        """Stamp the timings and admission entry (need, wait, verdict,
        quota) every outcome shares, and hand the finished record to
        the flight recorder.  ``need=None``: the query failed before
        admission, which leaves the entry empty; ``wait_s=None``:
        admission took until now (a rejection)."""
        svc = self._service
        now = time.perf_counter()
        stamps: dict = {"wall_s": now - t0}
        if need is not None:
            if wait_s is None:
                wait_s = now - wait0
            admission: dict = {
                "need": need, "wait_ms": round(wait_s * 1e3, 3),
                "outcome": ("rejected" if result.status == "rejected"
                            else "granted")}
            quota = svc.admission.quota_for(result.owner)
            if quota is not None:
                admission["quota"] = quota.as_dict()
            stamps.update(admission=admission,
                          run_s=max(0.0, now - wait0 - wait_s))
        result = dataclasses.replace(result, **stamps)
        return result if svc.flight is None else svc.flight.record(result)

    def _run(self, head: QueryResult, q: JoinQuery,
             entry: "CatalogEntry", collect: bool,
             reduce_first: bool) -> QueryResult:
        M, B = head.machine["M"], head.machine["B"]
        device = self._device(M, B)
        inst = self._materialize(entry, device, head.instance)
        view = self._views.get((M, B))
        # Per-query isolation on a long-lived device: zero the phase and
        # memory trackers (query-scoped by definition) and diff the
        # monotone I/O counters against a snapshot.  reset_stats() is
        # deliberately NOT used: it would wipe the service-shared
        # metrics registry and any pooled residency mid-flight.
        device.phases.reset()
        device.memory.reset()
        before = device.stats.snapshot()
        emitter = CollectingEmitter() if collect else CountingEmitter()
        report = execute(q, inst, emitter, reduce_first=reduce_first)
        if view is not None:
            with device.phases.phase("pool-flush"):
                view.end_query()
        delta = device.stats.delta_since(before)
        cache = delta.cache.as_dict() if view is not None else None
        return dataclasses.replace(
            head, shape=report.shape, algorithm=report.algorithm,
            results=emitter.count,
            io={"reads": delta.reads, "writes": delta.writes,
                "total": delta.reads + delta.writes,
                "reduce": {"reads": report.reduce_reads,
                           "writes": report.reduce_writes},
                "join": {"reads": report.reads, "writes": report.writes}},
            phases=device.phases.report(),
            peak_mem=device.memory.peak,
            cache=cache,
            rows=emitter.results if collect else None)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Flush and drop this session's pool footprint."""
        if self.closed:
            return
        self.closed = True
        for view in self._views.values():
            view.close()
        for device in self._devices.values():
            device.detach_pool()
        self._views.clear()
        self._devices.clear()
        self._instances.clear()

    def stats(self) -> dict[str, object]:
        return {"name": self.name, "queries": self.queries,
                "closed": self.closed,
                "devices": [{"M": M, "B": B,
                             "io": dev.stats.total}
                            for (M, B), dev in self._devices.items()],
                "cached_instances": len(self._instances)}

    # -- internals -----------------------------------------------------

    def _device(self, M: int, B: int) -> "Device":
        from repro.em.device import Device

        device = self._devices.get((M, B))
        if device is None:
            # No shared registry on session devices: service-level
            # aggregation happens once per query in
            # QueryService._observe.
            device = Device(M=M, B=B)
            shared = self._service.pool
            if shared is not None and shared.B == B:
                view = shared.view(device, owner=self.name)
                device.attach_pool(view)
                self._views[(M, B)] = view
            self._devices[(M, B)] = device
        return device

    def _materialize(self, entry: "CatalogEntry",
                     device: "Device", instance: str) -> Instance:
        key = (instance, entry.generation, device.M, device.B)
        inst = self._instances.get(key)
        if inst is None:
            inst = Instance.from_dicts(device, entry.layouts, entry.rows)
            view = self._views.get((device.M, device.B))
            if view is not None:
                for rel in entry.layouts:
                    view.share(
                        inst[rel].data.file,
                        shared_label(instance, entry.generation,
                                     device.B, rel))
            self._instances[key] = inst
        return inst

    @staticmethod
    def _check_layouts(q: JoinQuery,
                       layouts: dict[str, tuple[str, ...]] | None,
                       entry: "CatalogEntry") -> None:
        from repro.server.catalog import CatalogError
        for rel in q.edge_names:
            have = entry.layouts.get(rel)
            if have is None:
                raise CatalogError(
                    f"query uses relation {rel!r} but instance "
                    f"{entry.name!r} holds {sorted(entry.layouts)}")
            want = (layouts[rel] if layouts is not None
                    else q.edges[rel])
            if set(want) != set(have):
                raise CatalogError(
                    f"relation {rel!r}: query names attributes "
                    f"{sorted(want)} but the loaded layout is {have}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Session({self.name!r}, queries={self.queries}, "
                f"closed={self.closed})")
