"""Exporters: Chrome trace-event (Perfetto) JSON and Prometheus text.

Both formats are deliberately boring: the Chrome trace-event flavor is
the JSON array-of-events form ``chrome://tracing`` and
https://ui.perfetto.dev load directly, and the Prometheus flavor is
the line-oriented text exposition format, so standard tooling consumes
profiles of the simulated machine with no adapters.
"""

from __future__ import annotations

import json
import re

from repro.obs.metrics import Gauge, Histogram

#: pid/tid the single-threaded simulation reports in trace events.
TRACE_PID = 1
TRACE_TID = 1

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def chrome_trace_events(profiler) -> list[dict]:
    """The profiler's span tree as Chrome trace-event dicts.

    One complete-duration (``"ph": "X"``) event per recorded span,
    timestamped in microseconds relative to the profiler's origin —
    the fields (``name``, ``cat``, ``ph``, ``ts``, ``dur``, ``pid``,
    ``tid``, ``args``) are exactly what the Perfetto / Chrome trace
    viewers expect.
    """
    events = []
    for span in profiler.iter_spans():
        if not span.closed:
            continue
        args = {"io_reads": span.reads, "io_writes": span.writes,
                "io_total": span.io, "io_exclusive": span.exclusive_io,
                "tuples": span.tuples,
                "mem_peak_exit": span.mem_peak1}
        cache = span.cache_delta()
        if any(cache.values()):
            args["cache"] = cache
        if span.attrs:
            args.update({f"attr_{k}": v for k, v in span.attrs.items()})
        events.append({
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "ts": round((span.t0 - profiler.origin) * 1e6, 3),
            "dur": round(span.wall_s * 1e6, 3),
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "args": args,
        })
    return events


def to_chrome_trace(profiler) -> dict:
    """The full trace document (``traceEvents`` envelope)."""
    return {
        "traceEvents": chrome_trace_events(profiler),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro span profiler",
            "span_count": profiler.span_count,
            "dropped_spans": profiler.dropped,
        },
    }


def write_chrome_trace(path, profiler) -> int:
    """Write the Perfetto-loadable JSON; return the event count."""
    doc = to_chrome_trace(profiler)
    # host-side trace export, not simulated-device I/O
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return len(doc["traceEvents"])


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Sanitize a dotted instrument name into a Prometheus metric name."""
    return f"{prefix}_{_NAME_RE.sub('_', name)}"


def to_prometheus(registry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters become ``counter`` samples, gauges a ``gauge`` plus a
    ``_max`` companion, histograms the standard cumulative
    ``_bucket{le=...}`` / ``_sum`` / ``_count`` triple.
    """
    lines: list[str] = []
    for inst in sorted(registry.instruments(), key=lambda i: i.name):
        name = prometheus_name(inst.name)
        if isinstance(inst, Histogram):
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(inst.buckets, inst.counts):
                cumulative += count
                lines.append(
                    f'{name}_bucket{{le="{_le(bound)}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {inst.count}')
            lines.append(f"{name}_sum {_num(inst.sum)}")
            lines.append(f"{name}_count {inst.count}")
        elif isinstance(inst, Gauge):
            lines.append(f"# TYPE {name} gauge")
            d = inst.as_dict()
            lines.append(f"{name} {_num(d['value'])}")
            lines.append(f"{name}_max {_num(d['max'])}")
        else:
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_num(inst.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_payload(registry) -> bytes:
    """The ``/metrics`` response body: ``registry`` as exposition text."""
    return to_prometheus(registry).encode("utf-8")


def _le(bound: float) -> str:
    return str(int(bound)) if float(bound).is_integer() else repr(bound)


def _num(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)
