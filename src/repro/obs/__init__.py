"""Observability for the simulated EM machine: observers and baselines.

The paper's sole cost measure is the number of block transfers
(Aggarwal–Vitter; see PAPERS.md), so the one metric worth tracing is
where those transfers come from.  This subpackage provides:

* :class:`Observer` — the hooks a device calls on everything in its
  ``observers`` list (physical read/write, cache hit/miss/eviction/
  write-back, phase enter/exit, span open/close, memory-peak growth,
  reset), all no-ops by default;
* :class:`TraceEvent` — one structured record per device event;
* :class:`Tracer` — an observer keeping a ring buffer of events plus
  exact per-file, per-phase, cache and memory totals, with JSONL
  export;
* :class:`SpanProfiler` — an observer recording hierarchical spans
  (algorithm → phase → operator) that snapshot the device counters at
  entry/exit and carry what the operator saw as attributes (a sort's
  run count, a leaf peel's heavy/light split, how many plans a
  best-branch run priced), with a Chrome-trace/Perfetto exporter
  (:mod:`~repro.obs.export`);
* :class:`MetricsRegistry` — named counters/gauges/histograms, the
  service's ``/metrics`` store, rendered by :func:`to_prometheus`
  (the engine itself writes none);
* :mod:`~repro.obs.baseline` — pinned benchmark baselines
  (``BENCH_table1.json``) and the drift comparator CI runs.

Observe a device with ``Device(M, B, observers=[Tracer()])`` or
``device.observe(o)``, stop with ``device.unobserve(o)``.  With
nothing observing (the default) every counter stays byte-identical to
the bare accounting — observers watch charges, they never make them.
"""

from repro.obs.baseline import (compare_baselines, load_baseline,
                                write_baseline)
from repro.obs.events import (CACHE_KINDS, EVENT_KINDS, IO_KINDS,
                              TraceEvent)
from repro.obs.export import (metrics_payload, to_chrome_trace,
                              to_prometheus, write_chrome_trace)
from repro.obs.metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                               MetricsRegistry)
from repro.obs.observer import Observer
from repro.obs.spans import (NULL_SPAN, SPAN_KINDS, ProfiledEmitter,
                             Span, SpanProfiler)
from repro.obs.tracer import UNATTRIBUTED, Tracer

__all__ = [
    "Observer", "TraceEvent", "EVENT_KINDS", "IO_KINDS", "CACHE_KINDS",
    "Tracer", "UNATTRIBUTED",
    "write_baseline", "load_baseline", "compare_baselines",
    "Span", "SpanProfiler", "ProfiledEmitter", "NULL_SPAN", "SPAN_KINDS",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "to_chrome_trace", "write_chrome_trace", "to_prometheus",
    "metrics_payload",
]
