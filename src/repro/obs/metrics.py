"""Counters, gauges, and histograms: the service's ``/metrics`` store.

A :class:`MetricsRegistry` is a flat namespace of named instruments
(``service.queries``, ``service.query_wall_ms``,
``pool.resident_pages``, …) that
:class:`~repro.server.service.QueryService` folds finished queries
into and :func:`~repro.obs.export.to_prometheus` renders.  The engine
itself writes no metrics: what a run did is recorded as attributes on
the spans its operators open (see :mod:`repro.obs.spans`).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

#: Power-of-two upper bounds covering 1 tuple .. 1 Mi tuples; the last
#: (overflow) bucket is implicit (+inf).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(2 ** k for k in range(21))


class Counter:
    """A monotone count (events, tuples, passes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def as_dict(self) -> dict[str, int]:
        return {"value": self.value}


class Gauge:
    """A spot value plus the extremes it reached (pool residency, …)."""

    __slots__ = ("name", "value", "max", "min", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max = float("-inf")
        self.min = float("inf")
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def as_dict(self) -> dict[str, float]:
        if not self.updates:
            return {"value": 0, "max": 0, "min": 0, "updates": 0}
        return {"value": self.value, "max": self.max, "min": self.min,
                "updates": self.updates}


class Histogram:
    """Fixed-bucket distribution (run lengths, group sizes, …).

    ``buckets`` are increasing upper bounds; an observation lands in
    the first bucket whose bound is ``>= value`` (one implicit overflow
    bucket catches the rest).
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"buckets must be non-empty and increasing: {bounds}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, object]:
        # Only non-empty buckets, keyed by upper bound (stringified so
        # the dict is JSON-ready); "+inf" is the overflow bucket.
        labels = [_fmt_bound(b) for b in self.buckets] + ["+inf"]
        return {"count": self.count, "sum": self.sum,
                "mean": round(self.mean, 4),
                "buckets": {label: c for label, c in
                            zip(labels, self.counts) if c}}


def _fmt_bound(b: float) -> str:
    return str(int(b)) if float(b).is_integer() else repr(b)


class MetricsRegistry:
    """A live namespace of instruments, created lazily by name."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, buckets)
        return h

    def instruments(self) -> Iterable[Counter | Gauge | Histogram]:
        yield from self._counters.values()
        yield from self._gauges.values()
        yield from self._histograms.values()

    def as_dict(self) -> dict[str, object]:
        """All instruments, JSON-ready, sorted by name."""
        return {
            "counters": {k: v.as_dict() for k, v in
                         sorted(self._counters.items())},
            "gauges": {k: v.as_dict() for k, v in
                       sorted(self._gauges.items())},
            "histograms": {k: v.as_dict() for k, v in
                           sorted(self._histograms.items())},
        }
