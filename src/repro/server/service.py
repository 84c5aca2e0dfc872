"""The engine: catalog + admission + shared pool + session registry.

A :class:`QueryService` is what ``repro serve`` keeps alive between
requests.  It owns the pieces individual runs would otherwise rebuild:

* the :class:`~repro.server.catalog.Catalog` of loaded instances (CSV
  parsed once, served to every session);
* the :class:`~repro.server.admission.AdmissionController` checking
  each query's memory need against the budget ``M``;
* optionally one :class:`~repro.server.pool.SharedPool` of page frames
  that all sessions hit (``pool_frames > 0``);
* a :class:`~repro.obs.metrics.MetricsRegistry` aggregating
  service-wide instruments for the ``/metrics`` exposition;
* a :class:`~repro.server.flight.FlightRecorder` keeping the newest
  query records (``GET /debug/queries``); pass ``flight_records=0`` to
  turn recording off — I/O counters are byte-identical either way (the
  recorder only keeps the records the sessions already built).

Every query runs to completion on the calling thread.  The win of a
long-lived service is amortization, not parallel compute: instances
materialize once per session and hot pages hit the shared pool.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from repro.obs.export import to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.server.admission import AdmissionController, Quota
from repro.server.catalog import Catalog
from repro.server.flight import FlightRecorder
from repro.server.pool import SharedPool
from repro.server.session import QueryResult, Session


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
                                B=B, metrics=self.metrics)
                     if pool_frames else None)
        self._sessions: dict[str, Session] = {}
        self._session_ids = itertools.count(1)
        self._serve_crash: str | None = None
        self.closed = False

    # -- data ----------------------------------------------------------

    def load_tables(self, name: str, tables: Mapping[str, object], *,
                    replace: bool = False, delimiter: str = ",",
                    header: bool = True):
        """Load ``{relation: csv path}`` into the catalog as ``name``."""
        return self.catalog.load_csv(name, tables, replace=replace,
                                     delimiter=delimiter, header=header)

    def add_instance(self, name: str,
                     layouts: Mapping[str, tuple[str, ...]],
                     rows: Mapping[str, list[tuple]], *,
                     replace: bool = False):
        """Register an in-memory dataset (tests, generators)."""
        return self.catalog.add(name, layouts, rows, replace=replace)

    # -- sessions ------------------------------------------------------

    def session(self, name: str | None = None) -> Session:
        """Open (or re-join) a named session.

        Without a name a fresh one is minted.  Re-joining an existing
        live session by name is how stateless protocols (HTTP) keep a
        connection: same devices, same instance caches.
        """
        self._require_open()
        if name is not None:
            live = self._sessions.get(name)
            if live is not None and not live.closed:
                return live
        if name is None:
            name = f"s{next(self._session_ids)}"
        session = Session(self, name)
        self._sessions[name] = session
        return session

    def close_session(self, name: str) -> None:
        session = self._sessions.pop(name, None)
        if session is None:
            raise ServiceError(f"no session named {name!r}")
        session.close()

    def sessions(self) -> list[str]:
        return sorted(self._sessions)

    # -- execution -----------------------------------------------------

    def execute(self, query, *, session: str | None = None,
                **kwargs) -> QueryResult:
        """One query: through a named session, or one-shot."""
        if session is not None:
            return self.session(session).execute(query, **kwargs)
        s = self.session()
        try:
            return s.execute(query, **kwargs)
        finally:
            self.close_session(s.name)

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
            m.gauge("pool.resident_pages").set(
                self.pool.pool.resident_pages)
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
            "flight": None if self.flight is None
            else self.flight.stats(),
            "errors": {"serve_crash": self._serve_crash},
        }

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for s in self._sessions.values():
            s.close()
        self._sessions.clear()
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
