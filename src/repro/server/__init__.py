"""The long-lived query service: the paper's model as a multi-tenant engine.

The cost model charges every algorithm against one memory budget ``M``
and one block size ``B``.  A one-shot CLI run owns that machine alone;
this package serves many sessions from it, one query at a time, each
run to completion:

* :mod:`repro.server.catalog` — load an instance once, serve many
  queries (ref-counting, generations);
* :mod:`repro.server.admission` — a stateless size check: a query's
  planner-estimated need must fit the budget ``M`` (or its tenant's
  share of it), or it is refused at once;
* :mod:`repro.server.pool` — one cross-query buffer pool, with each
  device's charges routed to its own :class:`~repro.em.stats.IOStats`;
* :mod:`repro.server.session` — the :class:`QueryResult` each query
  reports (solo-run byte identity) and sessions, which are names;
* :mod:`repro.server.flight` — the query flight recorder: one bounded
  ring of the sessions' :class:`QueryResult` records behind
  ``/debug/queries``;
* :mod:`repro.server.service` — the engine tying those together: it
  owns one device per ``(M, B)`` and one materialized copy per
  instance and machine, and runs parse → classify → plan → execute;
* :mod:`repro.server.http` — ``/metrics`` (Prometheus text), ``/query``
  (JSON) and friends, behind ``repro serve``.
"""

from repro.server.admission import (AdmissionController, AdmissionError,
                                    AdmissionRejected, Grant, Quota)
from repro.server.catalog import Catalog, CatalogEntry, CatalogError
from repro.server.flight import FlightRecorder
from repro.server.http import ServiceServer, make_server, start_http_server
from repro.server.pool import PoolView, SharedPool
from repro.server.service import QueryService, ServiceError
from repro.server.session import QueryResult, Session, SessionClosed

__all__ = [
    "AdmissionController", "AdmissionError", "AdmissionRejected",
    "Grant", "Quota",
    "Catalog", "CatalogEntry", "CatalogError",
    "FlightRecorder",
    "SharedPool", "PoolView",
    "Session", "SessionClosed", "QueryResult",
    "QueryService", "ServiceError",
    "ServiceServer", "make_server", "start_http_server",
]
