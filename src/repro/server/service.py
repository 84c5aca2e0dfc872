"""The engine: catalog + admission + shared pool + machine state.

A :class:`QueryService` is what ``repro serve`` keeps alive between
requests.  It owns the pieces individual runs would otherwise rebuild:

* the :class:`~repro.server.catalog.Catalog` of loaded instances (CSV
  parsed once, served to every query);
* the :class:`~repro.server.admission.AdmissionController` checking
  each query's memory need against the budget ``M``;
* optionally one :class:`~repro.server.pool.SharedPool` of page frames
  that every query hits (``pool_frames > 0``);
* one :class:`~repro.em.device.Device` per ``(M, B)`` machine shape in
  use — with the pool on and a matching ``B``, the device charges
  through its :class:`~repro.server.pool.PoolView` — and one
  materialized :class:`~repro.data.instance.Instance` per ``(instance,
  M, B)`` at the catalog's current generation.  The model charges
  nothing for inputs and the algorithms only read them, so one copy
  serves every query, whatever its session;
* a :class:`~repro.obs.metrics.MetricsRegistry` aggregating
  service-wide instruments for the ``/metrics`` exposition;
* a :class:`~repro.server.flight.FlightRecorder` keeping the newest
  query records (``GET /debug/queries``); pass ``flight_records=0`` to
  turn recording off — I/O counters are byte-identical either way (the
  recorder only keeps the records the queries already built).

Sessions (:class:`~repro.server.session.Session`) are names: a default
tenant and a query count.  Replacing an instance
(``replace=True``) is the one place a generation goes stale: its
materialized copies are dropped, and with them, through the views,
its ``shared/{instance}@g{n}/…`` frames.

Every query runs to completion on the calling thread.  The win of a
long-lived service is amortization, not parallel compute: instances
materialize once service-wide and hot pages hit the shared pool.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Mapping

from repro.core.emit import CollectingEmitter, CountingEmitter
from repro.core.planner import estimate_memory_need, execute
from repro.data.instance import Instance
from repro.em.device import Device
from repro.obs.export import to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.query.hypergraph import JoinQuery
from repro.query.parse import format_query, parse_query_and_layouts
from repro.server.admission import (AdmissionController,
                                    AdmissionRejected, Quota)
from repro.server.catalog import Catalog, CatalogEntry, CatalogError
from repro.server.flight import FlightRecorder
from repro.server.pool import PoolView, SharedPool, shared_label
from repro.server.session import QueryResult, Session


#: The first character of every session name the service mints; a
#: client may re-join such a session but never create one.
MINTED_PREFIX = "~"


class ServiceError(RuntimeError):
    """Service-level misuse (unknown session, closed service, ...)."""


class QueryService:
    """A long-lived, multi-session query engine over one machine."""

    def __init__(self, *, M: int = 4096, B: int = 64,
                 default_query_M: int | None = None,
                 pool_frames: int = 0, pool_policy: str = "lru",
                 metrics: MetricsRegistry | None = None,
                 flight_records: int = 256,
                 slow_query_ms: float | None = None,
                 default_quota: Quota | None = None,
                 fitted: Mapping | None = None,
                 ) -> None:
        if B < 1 or M < B:
            raise ValueError(f"need 1 <= B <= M, got M={M}, B={B}")
        self.M = M
        self.B = B
        # What a query gets when it does not ask for a machine size.
        # Defaults to the full budget — solo-run semantics.
        self.default_query_M = M if default_query_M is None \
            else default_query_M
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.catalog = Catalog()
        self.admission = AdmissionController(M, default_quota=default_quota)
        self.flight = (FlightRecorder(flight_records,
                                      slow_ms=slow_query_ms)
                       if flight_records else None)
        #: parsed BENCH_fitted.json document (or None): what
        #: :meth:`explain` predicts against.
        self.fitted = dict(fitted) if fitted is not None else None
        self.pool = (SharedPool(frames=pool_frames, policy=pool_policy,
                                B=B)
                     if pool_frames else None)
        self._sessions: dict[str, Session] = {}
        self._session_ids = itertools.count(1)
        self._devices: dict[tuple[int, int], Device] = {}
        # (instance, generation, M, B) -> materialized Instance
        self._instances: dict[tuple[str, int, int, int], Instance] = {}
        self._serve_crash: str | None = None
        self.closed = False

    # -- data ----------------------------------------------------------

    def load_tables(self, name: str, tables: Mapping[str, object], *,
                    replace: bool = False, delimiter: str = ",",
                    header: bool = True):
        """Load ``{relation: csv path}`` into the catalog as ``name``."""
        return self._retire_stale(self.catalog.load_csv(
            name, tables, replace=replace, delimiter=delimiter,
            header=header))

    def add_instance(self, name: str,
                     layouts: Mapping[str, tuple[str, ...]],
                     rows: Mapping[str, list[tuple]], *,
                     replace: bool = False):
        """Register an in-memory dataset (tests, generators)."""
        return self._retire_stale(
            self.catalog.add(name, layouts, rows, replace=replace))

    def _retire_stale(self, entry: CatalogEntry) -> CatalogEntry:
        """``entry`` now serves its name: drop the materialized copies
        of older generations, and through the views their shared pool
        frames."""
        for key in [k for k in self._instances
                    if k[0] == entry.name and k[1] != entry.generation]:
            inst = self._instances.pop(key)
            view = self._devices[key[2:]].pool
            if view is not None:
                view.forget(inst[rel].data.file for rel in inst)
        return entry

    # -- sessions ------------------------------------------------------

    def session(self, name: str | None = None) -> Session:
        """Open (or re-join) a named session.

        Without a name a fresh one is minted.  Re-joining a live
        session by name is how stateless protocols (HTTP) keep a
        connection: same name, same tenant, one query count.

        Minted names start with ``~`` (:data:`MINTED_PREFIX`) and only
        the service creates them, so an unnamed session or a one-shot
        query never shares a name (or a flight record's ``session``)
        with a client's session.
        """
        self._require_open()
        if name is None:
            name = self._fresh_name()
        elif name.startswith(MINTED_PREFIX) and name not in self._sessions:
            raise ServiceError(
                f"session name {name!r}: names starting with "
                f"{MINTED_PREFIX!r} are minted by the service")
        session = self._sessions.get(name)
        if session is None:
            session = self._sessions[name] = Session(self, name)
        return session

    def _fresh_name(self) -> str:
        """A session name no client can take; each is minted once."""
        return f"{MINTED_PREFIX}s{next(self._session_ids)}"

    def close_session(self, name: str) -> None:
        if self._sessions.pop(name, None) is None:
            raise ServiceError(f"no session named {name!r}")

    def sessions(self) -> list[str]:
        return sorted(self._sessions)

    # -- execution -----------------------------------------------------

    def execute(self, query, *, session: str | None = None,
                **kwargs) -> QueryResult:
        """One query (keywords as :meth:`_run`): through a named
        session, or one-shot under a fresh name that is not kept."""
        if session is not None:
            return self.session(session).execute(query, **kwargs)
        self._require_open()
        return self._run(self._fresh_name(), query, **kwargs)

    def _run(self, session: str, query: "JoinQuery | str", *,
             instance: str = "default", M: int | None = None,
             B: int | None = None, collect: bool = False,
             reduce_first: bool = True,
             tenant: str | None = None) -> QueryResult:
        """The query path, for every session.  ``M``/``B`` default to
        ``default_query_M`` and ``B``; ``tenant``, the admission owner,
        to the session name.

        1. parse the text (or accept a ready :class:`JoinQuery`) and
           check it against the catalog entry's layouts;
        2. declare the planner-estimated memory need to admission,
           which rejects it when it exceeds the budget or the tenant's
           share of it;
        3. run :func:`repro.core.planner.execute` on the ``(M, B)``
           device and its materialized copy of the instance
           (:meth:`_execute`);
        4. release the grant and report a :class:`QueryResult` built
           from counter deltas, so every query reports as if it were
           the device's first.

        Every outcome's record goes to the flight recorder.  A query
        that fails before step 2 (unparseable text, an unknown
        instance or relation, a layout mismatch) keeps an empty
        ``admission`` entry, and its exception still reaches the
        caller.
        """
        arrival = time.time()
        t0 = time.perf_counter()
        M = self.default_query_M if M is None else M
        B = self.B if B is None else B
        head = QueryResult(
            query=query if isinstance(query, str) else format_query(query),
            instance=instance, session=session,
            owner=session if tenant is None else tenant, status="ok",
            machine={"M": M, "B": B}, arrival_unix=arrival)
        entry = None
        try:
            try:
                if isinstance(query, str):
                    q, layouts = parse_query_and_layouts(query)
                else:
                    q, layouts = query, None
                entry = self.catalog.acquire(instance)
                _check_layouts(q, layouts, entry)
                need = estimate_memory_need(q, M=M, B=B)
            except Exception as exc:
                self._finish(dataclasses.replace(head, status="error",
                                                 error=str(exc)), t0)
                raise
            wait0 = time.perf_counter()
            try:
                grant = self.admission.acquire(need, owner=head.owner)
            except AdmissionRejected as exc:
                self._finish(
                    dataclasses.replace(head, status="rejected",
                                        error=str(exc)),
                    t0, need, wait0)
                raise
            wait_s = time.perf_counter() - wait0
            try:
                result = self._execute(head, q, entry, collect,
                                       reduce_first)
            except Exception as exc:
                self._finish(
                    dataclasses.replace(head, status="error",
                                        error=str(exc)),
                    t0, need, wait0, wait_s)
                raise
            finally:
                self.admission.release(grant)
        finally:
            if entry is not None:
                self.catalog.release(entry)
        result = self._finish(result, t0, need, wait0, wait_s)
        self._observe(result)
        return result

    def _finish(self, result: QueryResult, t0: float,
                need: int | None = None, wait0: float = 0.0,
                wait_s: float | None = None) -> QueryResult:
        """Stamp the timings and admission entry (need, wait, verdict,
        quota) every outcome shares, and hand the finished record to
        the flight recorder.  ``need=None``: the query failed before
        admission, which leaves the entry empty; ``wait_s=None``:
        admission took until now (a rejection)."""
        now = time.perf_counter()
        stamps: dict = {"wall_s": now - t0}
        if need is not None:
            if wait_s is None:
                wait_s = now - wait0
            admission: dict = {
                "need": need, "wait_ms": round(wait_s * 1e3, 3),
                "outcome": ("rejected" if result.status == "rejected"
                            else "granted")}
            quota = self.admission.quota_for(result.owner)
            if quota is not None:
                admission["quota"] = quota.as_dict()
            stamps.update(admission=admission,
                          run_s=max(0.0, now - wait0 - wait_s))
        result = dataclasses.replace(result, **stamps)
        return result if self.flight is None else self.flight.record(result)

    def _execute(self, head: QueryResult, q: JoinQuery,
                 entry: CatalogEntry, collect: bool,
                 reduce_first: bool) -> QueryResult:
        device = self.device(head.machine["M"], head.machine["B"])
        inst = self._materialize(entry, device)
        view = device.pool
        # Per-query isolation on a long-lived device: zero the phase and
        # memory trackers (query-scoped by definition) and diff the
        # monotone I/O counters against a snapshot.  reset_stats() is
        # deliberately NOT used: it would drop pooled residency
        # mid-flight.
        device.phases.reset()
        device.memory.reset()
        before = device.stats.snapshot()
        emitter = CollectingEmitter() if collect else CountingEmitter()
        try:
            report = execute(q, inst, emitter, reduce_first=reduce_first)
        except BaseException:
            if view is not None:
                # A failed query's deferred writes die with it; they
                # must not be charged to the next query on the device.
                view.clear()
            raise
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

    # -- machine state -------------------------------------------------

    def device(self, M: int, B: int) -> Device:
        """The device queries on an ``(M, B)`` machine run on, made on
        first use; with the pool on and a matching ``B`` it charges
        through its own :class:`~repro.server.pool.PoolView`."""
        device = self._devices.get((M, B))
        if device is None:
            # No shared registry on query devices: service-level
            # aggregation happens once per query in _observe.
            device = self._devices[(M, B)] = Device(M=M, B=B)
            if self.pool is not None and self.pool.B == B:
                device.attach_pool(PoolView(self.pool, device))
        return device

    def _materialize(self, entry: CatalogEntry,
                     device: Device) -> Instance:
        """The instance's one copy on ``device`` at the entry's
        generation, materialized (uncharged) on first use."""
        key = (entry.name, entry.generation, device.M, device.B)
        inst = self._instances.get(key)
        if inst is None:
            inst = Instance.from_dicts(device, entry.layouts, entry.rows)
            if device.pool is not None:
                for rel in entry.layouts:
                    device.pool.share(
                        inst[rel].data.file,
                        shared_label(entry.name, entry.generation,
                                     device.B, rel))
            self._instances[key] = inst
            self.metrics.counter("service.materializations").inc()
        return inst

    def note_server_crash(self, exc: BaseException) -> None:
        """The HTTP serve thread died: make it visible in ``/stats``."""
        self._serve_crash = repr(exc)
        self.metrics.counter("service.serve_crashes").inc()

    # -- fairness ------------------------------------------------------

    def set_quota(self, owner: str, *, max_share: float | None = None):
        """Cap one tenant's share of the budget (``None`` clears the
        quota).  Owners default to session names; HTTP clients can
        pool sessions under one owner via ``tenant``."""
        return self.admission.set_quota(owner, max_share=max_share)

    # -- explain -------------------------------------------------------

    def explain(self, query, *, session: str | None = None,
                instance: str = "default", **kwargs):
        """Run one query and pair it with its Table-1 prediction.

        Returns ``(QueryResult, ExplainReport)``.  The prediction side
        needs a fitted-constants document (the service's ``fitted``);
        without one the report carries the reason instead.
        """
        from repro.analysis.predict import ExplainReport
        from repro.analysis.predict import explain as predict_explain
        from repro.query.parse import parse_query_and_layouts

        # The session parses first, so a bad query leaves its record.
        result = self.execute(query, session=session,
                              instance=instance, **kwargs)
        q = (parse_query_and_layouts(query)[0]
             if isinstance(query, str) else query)
        if self.fitted is None:
            return result, ExplainReport(
                prediction=None,
                reason=("no fitted-constants document loaded; generate "
                        "one with 'repro fit --all --write-fitted' and "
                        "start the service with it"),
                measured_io=result.io["total"],
                measured_phases=dict(result.phases))
        entry = self.catalog.acquire(instance)
        try:
            sizes = {rel: len(entry.rows[rel]) for rel in q.edge_names}
        finally:
            self.catalog.release(entry)
        report = predict_explain(
            q, sizes, result.machine["M"], result.machine["B"],
            result.io["total"], result.phases, self.fitted)
        return result, report

    # -- observability -------------------------------------------------

    def _observe(self, result: QueryResult) -> None:
        """Fold one finished query into the service-wide registry."""
        m = self.metrics
        m.counter("service.queries").inc()
        m.counter("service.results").inc(result.results)
        m.counter("service.io_read_pages").inc(result.io["reads"])
        m.counter("service.io_write_pages").inc(result.io["writes"])
        m.histogram("service.query_wall_ms").observe(
            max(0.0, result.wall_s * 1e3))
        m.histogram("service.admission_wait_ms").observe(
            max(0.0, float(result.admission.get("wait_ms", 0.0))))
        m.counter(f"service.shape.{result.shape}").inc()

    def refresh_metrics(self) -> MetricsRegistry:
        """Update the point-in-time gauges, return the registry."""
        m = self.metrics
        m.gauge("catalog.entries").set(len(self.catalog.names()))
        m.gauge("service.sessions").set(len(self._sessions))
        if self.pool is not None:
            # The gauge's max is the pool's own peak, which a scrape
            # between two fills would miss.
            pool = self.pool.pool
            g = m.gauge("pool.resident_pages")
            g.set(pool.resident_pages)
            g.max = max(g.max, pool.peak_resident_pages)
        if self.flight is not None:
            fs = self.flight.stats()
            m.gauge("flight.records_seen").set(fs["seen"])
            m.gauge("flight.records_stored").set(fs["stored"])
            m.gauge("flight.slow_queries").set(fs["slow"])
        return m

    def prometheus(self) -> str:
        """The ``/metrics`` payload."""
        return to_prometheus(self.refresh_metrics())

    def stats(self) -> dict[str, object]:
        """The ``/stats`` payload: one JSON view of the whole engine."""
        return {
            "machine": {"M": self.M, "B": self.B,
                        "default_query_M": self.default_query_M},
            "admission": self.admission.snapshot(),
            "catalog": self.catalog.info(),
            "pool": None if self.pool is None else self.pool.stats(),
            "sessions": [s.stats() for s in self._sessions.values()],
            "devices": [{"M": M, "B": B, "io": dev.stats.total,
                         "pooled": dev.pool is not None}
                        for (M, B), dev in self._devices.items()],
            "materialized": [{"instance": name, "generation": gen,
                              "M": M, "B": B}
                             for name, gen, M, B in self._instances],
            "flight": None if self.flight is None
            else self.flight.stats(),
            "errors": {"serve_crash": self._serve_crash},
        }

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._sessions.clear()
        self._instances.clear()
        self._devices.clear()
        if self.pool is not None:
            self.pool.close()

    def _require_open(self) -> None:
        if self.closed:
            raise ServiceError("the service is closed")

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"QueryService(M={self.M}, B={self.B}, "
                f"sessions={len(self._sessions)}, "
                f"pool={'on' if self.pool else 'off'})")


def _check_layouts(q: JoinQuery,
                   layouts: dict[str, tuple[str, ...]] | None,
                   entry: CatalogEntry) -> None:
    for rel in q.edge_names:
        have = entry.layouts.get(rel)
        if have is None:
            raise CatalogError(
                f"query uses relation {rel!r} but instance "
                f"{entry.name!r} holds {sorted(entry.layouts)}")
        want = layouts[rel] if layouts is not None else q.edges[rel]
        if set(want) != set(have):
            raise CatalogError(
                f"relation {rel!r}: query names attributes "
                f"{sorted(want)} but the loaded layout is {have}")
