"""The service's live surface: stdlib HTTP, JSON in, JSON out.

Routes (all rooted at the bind address of ``repro serve``):

* ``GET /metrics`` — the Prometheus text exposition of the service
  registry (:func:`repro.obs.export.metrics_payload`), gauges refreshed
  at scrape time;
* ``GET /healthz`` — liveness;
* ``GET /stats`` — the full engine view (admission, catalog, pool,
  sessions, devices, materialized instances) as JSON;
* ``GET /catalog`` — loaded instances;
* ``GET /debug/queries`` — newest flight records (compact rows;
  ``?n=`` caps the count, ``?slow=1`` filters to slow queries), plus
  the ring's seen/stored/overwritten accounting so a truncated history
  is visible as such;
* ``GET /debug/queries/<id>`` — one full flight record: the same
  document ``POST /query`` replied with (``<id>`` is its
  ``flight_id``), without ``rows``;
* ``POST /query`` — run one query.  Body::

      {"query": "e1(v1,v2), e2(v2,v3), e3(v3,v4)",
       "instance": "default",          // catalog name
       "M": 8, "B": 2,                 // per-query machine (optional)
       "session": "alice",             // sticky session (optional)
       "tenant": "team-a",             // admission owner (optional)
       "collect": false}               // include result rows

  Every query runs on the service's devices and materialized
  instances; ``session`` only names the default tenant and the query
  count it accrues (without it, a one-shot name starting with ``~`` is
  minted; a client's ``session`` may not start with ``~``).  With
  ``?explain=1`` the response gains an ``"explain"`` key: predicted vs
  measured I/O per phase from the service's fitted Table-1 constants
  (or the reason no prediction applies).

One thread serves every connection, and each query runs to completion
before the next request is read: :class:`ServiceServer` is the stdlib
``HTTPServer`` accept loop.  A client that stalls mid-request is
dropped after :attr:`_Handler.timeout` seconds, so it cannot hold the
loop for longer than that.

Every non-2xx reply is a typed JSON document with an ``error``: a
malformed body (``query``, ``session`` or ``instance`` not a string;
``session`` starting with ``~``; ``M``/``B`` not integers ``>= 1``,
or ``B > M``; ``collect`` not a boolean) and unknown
queries/instances are 400; a memory need over the
global budget or the tenant's share is 422 (no retry will help);
anything unexpected inside the engine is 500, never a dropped
connection.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.obs.export import metrics_payload
from repro.query.parse import QueryParseError
from repro.server.admission import AdmissionRejected
from repro.server.catalog import CatalogError
from repro.server.service import MINTED_PREFIX, QueryService


class ServiceServer(HTTPServer):
    """One HTTP front end bound to one :class:`QueryService`."""

    def __init__(self, addr: tuple[str, int],
                 service: QueryService) -> None:
        super().__init__(addr, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server: ServiceServer

    #: Seconds a socket read may block before the connection is
    #: dropped: a silent or half-sent request must not stall the
    #: single serving thread.
    timeout = 5.0

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass  # the service reports through /metrics, not stderr

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, doc) -> None:
        # Compact: any ``indent`` makes json fall back to its pure-Python
        # encoder, which costs more than the rest of a small reply.
        body = json.dumps(doc, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    # -- routes --------------------------------------------------------

    def do_GET(self):  # noqa: N802 - http.server API
        service = self.server.service
        parts = urlsplit(self.path)
        path, query = parts.path, parse_qs(parts.query)
        if path == "/metrics":
            self._send(200, metrics_payload(service.refresh_metrics()),
                       "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/healthz":
            self._json(200, {"ok": not service.closed})
        elif path == "/stats":
            self._json(200, service.stats())
        elif path == "/catalog":
            self._json(200, service.catalog.info())
        elif path == "/debug/queries" or path.startswith("/debug/queries/"):
            self._debug_queries(service, path, query)
        else:
            self._json(404, {"error": f"unknown path {path!r}",
                             "routes": ["/metrics", "/healthz", "/stats",
                                        "/catalog", "/debug/queries",
                                        "/debug/queries/<id>",
                                        "POST /query"]})

    def _debug_queries(self, service, path: str, query: dict) -> None:
        flight = service.flight
        if flight is None:
            self._json(404, {"error": "flight recording is off "
                                      "(service flight_records=0)"})
            return
        tail = path[len("/debug/queries"):].strip("/")
        if tail:
            try:
                record_id = int(tail)
            except ValueError:
                self._json(400, {"error": f"bad record id {tail!r}"})
                return
            rec = flight.get(record_id)
            if rec is None:
                self._json(404, {
                    "error": f"no flight record {record_id} (kept: "
                             f"newest {flight.capacity}; "
                             f"{flight.overwritten} overwritten)"})
            else:
                self._json(200, rec.as_dict())
            return
        try:
            n = int(query["n"][0]) if "n" in query else None
        except ValueError:
            self._json(400, {"error": f"bad n={query['n'][0]!r}"})
            return
        slow_only = query.get("slow", ["0"])[0] not in ("0", "", "false")
        records = flight.records(n, slow_only=slow_only)
        self._json(200, {**flight.stats(),
                         "returned": len(records),
                         "records": [r.summary() for r in records]})

    def do_POST(self):  # noqa: N802 - http.server API
        parts = urlsplit(self.path)
        if parts.path != "/query":
            self._json(404, {"error": "POST only to /query"})
            return
        explain = parse_qs(parts.query).get(
            "explain", ["0"])[0] not in ("0", "", "false")
        service = self.server.service
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:
                # rfile.read(-1) would block until the client hangs up.
                raise ValueError(f"negative Content-Length {length}")
            req = json.loads(self.rfile.read(length) or b"{}")
            kwargs = _query_kwargs(req, service)
        except (TypeError, ValueError, json.JSONDecodeError) as exc:
            self._json(400, {"error": f"bad request body: {exc}"})
            return
        report = None
        try:
            if explain:
                result, report = service.explain(
                    req["query"], session=req.get("session"), **kwargs)
            else:
                result = service.execute(
                    req["query"], session=req.get("session"), **kwargs)
        except AdmissionRejected as exc:
            self._json(422, {"error": str(exc), "kind": "rejected"})
        except (QueryParseError, CatalogError) as exc:
            # Only errors provably caused by the request map to 400;
            # anything else is the engine's fault and must say so
            # (a bare KeyError here used to masquerade as a client
            # error, and an unexpected exception dropped the
            # connection mid-response).
            self._json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - deliberate catch-all
            self._json(500, {"error": f"{type(exc).__name__}: {exc}",
                             "kind": "internal"})
        else:
            doc = result.as_dict()
            if report is not None:
                doc["explain"] = report.as_dict()
            self._json(200, doc)


def _query_kwargs(req, service: QueryService) -> dict:
    """Check a ``POST /query`` body; the execute keyword arguments.

    Raises ``ValueError`` naming the first malformed field, so bad
    input is a 400 here rather than a 500 from deep in the engine.
    """
    if not isinstance(req, dict) or "query" not in req:
        raise ValueError('the body needs a "query" field')
    if not isinstance(req["query"], str):
        raise ValueError('"query" must be a string')
    for key in ("session", "instance"):
        if not isinstance(req.get(key), (str, type(None))):
            raise ValueError(f'"{key}" must be a string')
    if (req.get("session") or "").startswith(MINTED_PREFIX):
        raise ValueError(f'"session" must not start with '
                         f'{MINTED_PREFIX!r} (the service mints those)')
    kwargs = {"instance": req.get("instance", "default"),
              "collect": req.get("collect", False)}
    if not isinstance(kwargs["collect"], bool):
        raise ValueError('"collect" must be true or false')
    for key in ("M", "B"):
        value = req.get(key)
        if value is None:
            continue
        if (not isinstance(value, int) or isinstance(value, bool)
                or value < 1):
            raise ValueError(f'"{key}" must be an integer >= 1, '
                             f'got {value!r}')
        kwargs[key] = value
    M = kwargs.get("M", service.default_query_M)
    B = kwargs.get("B", service.B)
    if B > M:
        raise ValueError(f"block size B={B} cannot exceed memory M={M}")
    if req.get("tenant") is not None:
        kwargs["tenant"] = str(req["tenant"])
    return kwargs


def make_server(service: QueryService, host: str = "127.0.0.1",
                port: int = 8707) -> ServiceServer:
    """Bind (``port=0`` picks a free one) without starting to serve."""
    return ServiceServer((host, port), service)


def start_http_server(service: QueryService, host: str = "127.0.0.1",
                      port: int = 0) -> ServiceServer:
    """Bind and serve on a daemon thread (tests, embedding).

    Returns the server; ``server_port`` holds the bound port and
    ``shutdown()`` stops the loop.  While it serves, that thread runs
    the queries: other threads should only read the service, or touch
    it between requests.
    """
    server = make_server(service, host, port)

    def _serve() -> None:
        try:
            server.serve_forever()
        except Exception as exc:  # noqa: BLE001 - surfaced via /stats
            # A dead serve loop with no symptom is the worst failure
            # mode a daemon thread has; park the reason where stats()
            # reports it, then let the thread die loudly.
            service.note_server_crash(exc)
            raise

    thread = threading.Thread(target=_serve, name="repro-serve",
                              daemon=True)
    thread.start()
    return server
