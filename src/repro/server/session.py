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


def _admission_doc(svc: "QueryService", owner: str, need: int,
                   wait_s: float, outcome: str) -> dict:
    """A query's ``admission`` entry: need, wait, verdict, quota."""
    doc: dict = {"need": need, "wait_ms": round(wait_s * 1e3, 3),
                 "outcome": outcome}
    quota = svc.admission.quota_for(owner)
    if quota is not None:
        doc["quota"] = quota.as_dict()
    return doc


class SessionClosed(RuntimeError):
    """The session was closed; open a new one."""


@dataclass(frozen=True)
class QueryResult:
    """Everything one query did, in solo-run-comparable units."""

    query: str
    instance: str
    session: str
    shape: str
    algorithm: str
    results: int
    io: dict
    phases: dict
    peak_mem: int
    machine: dict
    admission: dict
    cache: dict | None = None
    wall_s: float = 0.0
    rows: list | None = field(default=None, repr=False)
    #: id of this query's flight record (None with recording off).
    flight_id: int | None = None

    def as_dict(self) -> dict:
        out = {"query": self.query, "instance": self.instance,
               "session": self.session, "shape": self.shape,
               "algorithm": self.algorithm, "results": self.results,
               "io": self.io, "phases": self.phases,
               "peak_mem": self.peak_mem, "machine": self.machine,
               "admission": self.admission,
               "wall_ms": round(self.wall_s * 1e3, 3)}
        if self.cache is not None:
            out["cache"] = self.cache
        if self.flight_id is not None:
            out["flight_id"] = self.flight_id
        if self.rows is not None:
            out["rows"] = [{edge: list(t) for edge, t in r.items()}
                           for r in self.rows]
        return out


class Session:
    """A named connection to a :class:`~repro.server.service.
    QueryService`.  Each query runs to completion before the next
    starts; sessions keep devices, instance caches and pins between
    queries."""

    def __init__(self, service: "QueryService", name: str) -> None:
        self._service = service
        self.name = name
        self._devices: dict[tuple[int, int], "Device"] = {}
        self._views: dict[tuple[int, int], "PoolView"] = {}
        # (instance, generation, M, B) -> materialized Instance
        self._instances: dict[tuple[str, int, int, int], Instance] = {}
        self._pinned: list[tuple[object, object, int]] = []
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
        flight = svc.flight
        owner = self.name if tenant is None else tenant
        arrival = time.time() if flight is not None else 0.0
        t0 = time.perf_counter()
        if isinstance(query, str):
            text = query
            q, layouts = parse_query_and_layouts(text)
        else:
            q, layouts = query, None
            text = format_query(q)
        M = svc.default_query_M if M is None else M
        B = svc.B if B is None else B
        entry = svc.catalog.acquire(instance)
        try:
            self._check_layouts(q, layouts, entry)
            need = estimate_memory_need(q, M=M, B=B)
            wait0 = time.perf_counter()
            try:
                grant = svc.admission.acquire(need, owner=owner)
            except AdmissionRejected as exc:
                self._record_flight(
                    svc, owner=owner, text=text, instance=instance,
                    status="rejected", arrival=arrival, t0=t0,
                    wait0=wait0, M=M, B=B, need=need, error=str(exc))
                raise
            wait_s = time.perf_counter() - wait0
            try:
                result = self._run(q, text, entry, instance, M, B,
                                   collect, reduce_first)
            except Exception as exc:
                self._record_flight(
                    svc, owner=owner, text=text, instance=instance,
                    status="error", arrival=arrival, t0=t0, wait0=wait0,
                    M=M, B=B, need=need, wait_s=wait_s, error=str(exc))
                raise
            finally:
                svc.admission.release(grant)
        finally:
            svc.catalog.release(entry)
        self.queries += 1
        admission = _admission_doc(svc, owner, need, wait_s, "granted")
        result = dataclasses.replace(
            result, wall_s=time.perf_counter() - t0, admission=admission)
        if flight is not None:
            rec = flight.record(
                session=self.name, owner=owner, query=text,
                instance=instance, status="ok", arrival_unix=arrival,
                wait_ms=admission["wait_ms"],
                run_ms=round((time.perf_counter() - wait0 - wait_s)
                             * 1e3, 3),
                total_ms=round(result.wall_s * 1e3, 3),
                admission=admission, machine=result.machine,
                shape=result.shape, algorithm=result.algorithm,
                results=result.results, io=result.io,
                phases=result.phases, peak_mem=result.peak_mem,
                cache=result.cache)
            result = dataclasses.replace(result, flight_id=rec.id)
        svc._observe(result)
        return result

    def _record_flight(self, svc: "QueryService", *, owner: str,
                       text: str, instance: str, status: str,
                       arrival: float, t0: float, wait0: float,
                       M: int, B: int, need: int, wait_s: float = 0.0,
                       error: str | None = None) -> None:
        """Record a query that never produced a :class:`QueryResult`
        (admission rejection or execution error)."""
        flight = svc.flight
        if flight is None:
            return
        now = time.perf_counter()
        outcome = "granted"
        if status == "rejected":
            wait_s = now - wait0
            outcome = status
        admission = _admission_doc(svc, owner, need, wait_s, outcome)
        flight.record(
            session=self.name, owner=owner, query=text,
            instance=instance, status=status, arrival_unix=arrival,
            wait_ms=admission["wait_ms"],
            run_ms=round(max(0.0, now - wait0 - wait_s) * 1e3, 3),
            total_ms=round((now - t0) * 1e3, 3), admission=admission,
            machine={"M": M, "B": B}, error=error)

    def _run(self, q: JoinQuery, text: str,
             entry: "CatalogEntry", instance: str, M: int, B: int,
             collect: bool, reduce_first: bool) -> QueryResult:
        device = self._device(M, B)
        inst = self._materialize(entry, device, instance)
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
        return QueryResult(
            query=text, instance=instance, session=self.name,
            shape=report.shape, algorithm=report.algorithm,
            results=emitter.count,
            io={"reads": delta.reads, "writes": delta.writes,
                "total": delta.reads + delta.writes,
                "reduce": {"reads": report.reduce_reads,
                           "writes": report.reduce_writes},
                "join": {"reads": report.reads, "writes": report.writes}},
            phases=device.phases.report(),
            peak_mem=device.memory.peak,
            machine={"M": M, "B": B},
            admission={},
            cache=cache,
            rows=emitter.results if collect else None)

    # -- pinning hot relations ----------------------------------------

    def pin_relation(self, relation: str, *, instance: str = "default",
                     M: int | None = None,
                     B: int | None = None) -> int:
        """Pin every page of a base relation into the shared pool.

        Faulting the pages in charges this session's counters (honest
        I/O); afterwards the pages cannot be evicted until
        :meth:`unpin_relation` or session close.  Returns the number of
        pages pinned.  Requires the service to run with a shared pool.
        """
        if self.closed:
            raise SessionClosed(f"session {self.name!r} is closed")
        svc = self._service
        M = svc.default_query_M if M is None else M
        B = svc.B if B is None else B
        device = self._device(M, B)
        view = self._views.get((M, B))
        if view is None:
            raise RuntimeError(
                "pin_relation needs a shared pool "
                "(service started with pool_frames=0)")
        entry = svc.catalog.acquire(instance)
        try:
            inst = self._materialize(entry, device, instance)
            segment = inst[relation].data
            f = segment.file
            pages = segment.n_pages
            for page in range(pages):
                view.pin(f, page)
                self._pinned.append((view, f, page))
            return pages
        finally:
            svc.catalog.release(entry)

    def unpin_relation(self, relation: str, *,
                       instance: str = "default") -> int:
        """Release this session's pins on a relation's pages."""
        remaining, dropped = [], 0
        for view, f, page in self._pinned:
            name = getattr(f, "name", None)
            if name == relation:
                view.unpin(f, page)
                dropped += 1
            else:
                remaining.append((view, f, page))
        self._pinned = remaining
        return dropped

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Flush and drop this session's pool footprint; its pins only."""
        if self.closed:
            return
        self.closed = True
        self._pinned.clear()
        for view in self._views.values():
            view.close()  # releases exactly this session's pins
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
