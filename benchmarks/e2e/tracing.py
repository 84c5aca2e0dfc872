"""Outside-in layer tracing: spans around each layer's public calls.

The tracer never edits ``repro``.  :meth:`Tracer.install` replaces a
fixed set of public functions and methods (:data:`LAYERS`) with timing
wrappers: a module-level function is replaced *by identity* in every
``repro.*`` module that imported it, a method on its class.  Each call
opens a span ``(id, layer, start, end, parent, query id)`` on a
per-thread stack; a generator is timed per ``next()``, so a loader's
span covers exactly the work its consumer pulled.  A layer's self time
is its spans' durations minus the part their child spans cover.

I/O is counted by wrapping ``Device.charge_read`` / ``charge_write``:
a charge made while ``stats.suspended`` is false is added to the
innermost open span of the calling thread.  Charges on the throw-away
devices of :func:`repro.core.acyclic.clone_instance` (Algorithm 2's
best-branch trial runs) are left out, so the per-layer sum equals the
logical charges of the query's own device.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import weakref

#: layer -> the public callables timed as that layer, as
#: ``(module, "function")`` or ``(module, "Class.method")``.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "query": [("repro.query.parse", "parse_query_and_layouts"),
              ("repro.query.shapes", "classify_shape"),
              ("repro.query.hypergraph", "require_berge_acyclic")],
    "data": [("repro.data.instance", "Instance.from_dicts")],
    "core.planner": [("repro.core.planner", "execute")],
    "core.reducer": [("repro.core.reducer_em", "full_reduce_em")],
    "core.join": [("repro.core.line7", "line_join_auto"),
                  ("repro.core.acyclic", "acyclic_join_best"),
                  ("repro.core.acyclic", "acyclic_join"),
                  ("repro.core.twoway", "sort_merge_join")],
    "em.sort": [("repro.em.sort", "external_sort")],
    "em.loaders": [("repro.em.loaders", "group_boundaries"),
                   ("repro.em.loaders", "load_chunks"),
                   ("repro.em.loaders", "load_light_chunks"),
                   ("repro.em.loaders", "scan_matching")],
    "em.pool": [("repro.server.pool", "PoolView.read_page"),
                ("repro.server.pool", "PoolView.write_page"),
                ("repro.server.pool", "PoolView.end_query")],
    "server.session": [("repro.server.session", "Session.execute")],
    "server.admission": [("repro.server.admission",
                          "AdmissionController.acquire"),
                         ("repro.server.admission",
                          "AdmissionController.release")],
    "server.catalog": [("repro.server.catalog", "Catalog.acquire"),
                       ("repro.server.catalog", "Catalog.release")],
    "server.flight": [("repro.server.flight", "FlightRecorder.record")],
    "server.http": [("repro.server.http", "ServiceServer.finish_request")],
}

#: Full span records are kept for this many queries (ids 0..n-1); all
#: other spans only feed the per-layer totals, which keeps a run's
#: memory flat however many pool calls it makes.
KEEP_QUERIES = 10

SPAN_FIELDS = ["id", "layer", "start_s", "end_s", "parent", "query",
               "io", "self_ms"]


class _Span:
    __slots__ = ("id", "layer", "parent", "qid", "start", "io", "child")

    def __init__(self, id_: int, layer: str, parent: int | None,
                 qid: int | None) -> None:
        self.id = id_
        self.layer = layer
        self.parent = parent
        self.qid = qid
        self.io = 0
        self.child = 0.0
        self.start = 0.0


class Tracer:
    """Span recorder and per-layer aggregator (see the module doc).

    ``qid`` tags root spans with the query the benchmark is timing
    (``None`` outside a timed query).  With ``number_roots`` every root
    span gets the next query id instead — the server side, where each
    request is one query.
    """

    def __init__(self, *, number_roots: bool = False) -> None:
        self.qid: int | None = None
        self._number_roots = number_roots
        self._root_ids = itertools.count()
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[dict] = []
        self._ignored: weakref.WeakSet = weakref.WeakSet()
        self._restore: list[tuple[object, str, object, bool]] = []
        self.spans: list[list] = []
        self.t0 = time.perf_counter()

    # -- per-thread state ------------------------------------------------

    def _state(self) -> dict:
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "layers": {}, "timed_self_s": 0.0,
                  "timed_io": 0, "root_s": 0.0, "loose_io": 0,
                  "survival": [0, 0]}
            self._local.st = st
            self._threads.append(st)  # list.append is atomic
        return st

    def _enter(self, layer: str, count: bool) -> _Span:
        st = self._state()
        stack = st["stack"]
        if stack:
            top = stack[-1]
            span = _Span(next(self._ids), layer, top.id, top.qid)
        else:
            qid = next(self._root_ids) if self._number_roots else self.qid
            span = _Span(next(self._ids), layer, None, qid)
        agg = st["layers"].get(layer)
        if agg is None:
            agg = st["layers"][layer] = [0.0, 0, 0]
        if count:
            agg[1] += 1
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: _Span) -> None:
        end = time.perf_counter()
        st = self._local.st
        stack = st["stack"]
        stack.pop()
        dur = end - span.start
        own = dur - span.child
        agg = st["layers"][span.layer]
        agg[0] += own
        agg[2] += span.io
        if stack:
            stack[-1].child += dur
        if span.qid is not None:
            st["timed_self_s"] += own
            st["timed_io"] += span.io
            if not stack:
                st["root_s"] += dur
            if span.qid < KEEP_QUERIES:
                self.spans.append([span.id, span.layer,
                                   span.start - self.t0, end - self.t0,
                                   span.parent, span.qid, span.io,
                                   own * 1e3])

    def _charge(self, device) -> None:
        if device.stats.suspended or device in self._ignored:
            return
        stack = self._state()["stack"]
        if stack:
            stack[-1].io += 1
        else:
            self._local.st["loose_io"] += 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def timed_next(it):
                while True:
                    span = tracer._enter(layer, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(span)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st = tracer._state()
                agg = st["layers"].setdefault(layer, [0.0, 0, 0])
                agg[1] += 1
                return timed_next(fn(*args, **kwargs))
            return gen_wrapper

        if layer == "core.reducer":
            @functools.wraps(fn)
            def reducer_wrapper(query, instance, *args, **kwargs):
                span = tracer._enter(layer, True)
                try:
                    out = fn(query, instance, *args, **kwargs)
                finally:
                    tracer._exit(span)
                survival = tracer._state()["survival"]
                survival[0] += sum(len(r) for r in instance.values())
                survival[1] += sum(len(r) for r in out.values())
                return out
            return reducer_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._enter(layer, True)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every callable in :data:`LAYERS` and the charge hooks."""
        from repro.core import acyclic
        from repro.em.device import Device

        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = inspect.getattr_static(cls, meth)
                    if isinstance(raw, classmethod):
                        self._set(cls, meth,
                                  classmethod(self._wrap(layer,
                                                         raw.__func__)))
                    else:
                        self._set(cls, meth, self._wrap(layer, raw))
                    continue
                fn = getattr(module, path)
                wrapped = self._wrap(layer, fn)
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "repro"
                                           or name.startswith("repro.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, wrapped)

        tracer = self
        for meth in ("charge_read", "charge_write"):
            orig = getattr(Device, meth)

            def charge(device, f, page, _orig=orig):
                tracer._charge(device)
                _orig(device, f, page)
            self._set(Device, meth, charge)

        orig_clone = acyclic.clone_instance

        def clone_instance(*args, **kwargs):
            dev, inst = orig_clone(*args, **kwargs)
            tracer._ignored.add(dev)
            return dev, inst
        self._set(acyclic, "clone_instance", clone_instance)

    def uninstall(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._restore:
            owner, attr, value, had = self._restore.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Totals over all threads, JSON-ready (see :func:`per_query`)."""
        layers: dict[str, list] = {}
        out = {"timed_self_s": 0.0, "timed_io": 0, "root_s": 0.0,
               "loose_io": 0, "survival": [0, 0]}
        for st in self._threads:
            for layer, (own, calls, io) in st["layers"].items():
                acc = layers.setdefault(layer, [0.0, 0, 0])
                acc[0] += own
                acc[1] += calls
                acc[2] += io
            for key in ("timed_self_s", "timed_io", "root_s", "loose_io"):
                out[key] += st[key]
            out["survival"][0] += st["survival"][0]
            out["survival"][1] += st["survival"][1]
        out["layers"] = layers
        out["span_fields"] = SPAN_FIELDS
        out["spans"] = sorted(self.spans)
        return out


def per_query(summary: dict, n_queries: int, factor: float) -> dict:
    """Per-layer ``self_ms`` (calibrated by ``factor``), ``calls`` and
    ``io`` per query, for every layer of :data:`LAYERS`."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        own, calls, io = summary["layers"].get(layer, (0.0, 0, 0))
        out[f"{layer}.self_ms"] = own * 1e3 * factor / n_queries
        out[f"{layer}.calls"] = calls / n_queries
        out[f"{layer}.io"] = io / n_queries
    tuples_in, tuples_out = summary["survival"]
    out["core.reducer.survival"] = (tuples_out / tuples_in
                                    if tuples_in else 0.0)
    return out
