"""Hierarchical spans: who spent the I/O, over what wall time.

A :class:`SpanProfiler` on a :class:`~repro.em.device.Device`'s
observer list records a tree of **spans** (algorithm → phase →
operator).  Each span snapshots the device's
:class:`~repro.em.stats.IOStats` (reads, writes, and the cache
counters), the :class:`~repro.em.stats.MemoryGauge` peak, the wall
clock, and the profiler's tuples-produced counter at entry and exit,
so its *deltas* say exactly what that region of the run cost.  Like
every observer, the profiler is strictly read-only: profiled and
unprofiled runs have byte-identical I/O statistics.

Spans come from three places:

* algorithms and operators call ``device.span(name, kind)`` — a
  context manager that is a shared no-op (:data:`NULL_SPAN`) when
  nothing observes the device, and otherwise an :class:`ObservedSpan`
  that opens the span on every observer;
* every :class:`~repro.em.stats.PhaseTracker` phase opens a
  ``kind="phase"`` :class:`ObservedSpan` while the device has
  observers, which is what nests
  operator spans under the algorithm phases they run in;
* :class:`ProfiledEmitter` wraps an emitter so emitted results tick
  the profiler's tuple counter, giving every span its tuples-produced
  delta.

The profiler holds no device of its own: each span is opened on the
device that announces it, so one profiler can observe a fresh device
per measurement (``repro fit`` does).

Attribution mirrors :class:`~repro.em.stats.PhaseTracker`: a span's
``io`` delta includes its children; ``exclusive_io`` subtracts them,
so summing ``exclusive_io`` over the whole tree plus the profiler's
unattributed remainder reconstructs ``stats.total`` exactly
(``tests/test_spans.py`` pins this).
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Any, Callable, Iterator

from repro.obs.observer import Observer


class Span:
    """One profiled region with entry/exit snapshots."""

    __slots__ = ("name", "kind", "attrs", "children", "depth", "dropped",
                 "t0", "t1", "reads0", "writes0", "reads1", "writes1",
                 "cache0", "cache1", "mem_peak0", "mem_peak1",
                 "tuples0", "tuples1", "_owner")

    def __init__(self, profiler: "SpanProfiler", name: str, kind: str,
                 attrs: dict | None, depth: int) -> None:
        self.name = name
        self.kind = kind
        self.attrs = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.depth = depth
        self.dropped = False
        self.t1 = None
        self._owner = profiler

    # -- in-flight annotation (also provided by NULL_SPAN) -------------

    def set(self, key: str, value: Any) -> None:
        """Attach one key/value annotation to this span."""
        self.attrs[key] = value

    def add_tuples(self, n: int = 1) -> None:
        """Report ``n`` results produced inside this span."""
        self._owner.add_tuples(n)

    # -- derived deltas (valid after close) ----------------------------

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    @property
    def wall_s(self) -> float:
        return (self.t1 or self.t0) - self.t0

    @property
    def reads(self) -> int:
        return self.reads1 - self.reads0

    @property
    def writes(self) -> int:
        return self.writes1 - self.writes0

    @property
    def io(self) -> int:
        """Block transfers inside this span, children included."""
        return self.reads + self.writes

    @property
    def exclusive_io(self) -> int:
        """This span's I/O not claimed by a recorded child span."""
        return self.io - sum(c.io for c in self.children)

    @property
    def tuples(self) -> int:
        """Results produced (via :class:`ProfiledEmitter`) in scope."""
        return self.tuples1 - self.tuples0

    def cache_delta(self) -> dict:
        return {k: self.cache1[k] - self.cache0[k] for k in self.cache0}

    def as_dict(self) -> dict:
        """JSON-ready subtree rooted at this span."""
        out = {
            "name": self.name,
            "kind": self.kind,
            "wall_ms": round(self.wall_s * 1e3, 3),
            "io": {"reads": self.reads, "writes": self.writes,
                   "total": self.io, "exclusive": self.exclusive_io},
            "cache": self.cache_delta(),
            "tuples": self.tuples,
            "mem_peak": {"enter": self.mem_peak0, "exit": self.mem_peak1},
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"io={self.io}" if self.closed else "open"
        return f"Span({self.name!r}, kind={self.kind!r}, {state})"


class _NullSpan:
    """The shared span handed out when nothing observes the device."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def add_tuples(self, n: int = 1) -> None:
        pass


#: Reusable, re-entrant no-op span (``device.span`` returns it when
#: the device has no observers).
NULL_SPAN = _NullSpan()

#: Span kinds, outermost first — purely descriptive, not enforced.
SPAN_KINDS = ("algorithm", "phase", "operator")


class ObservedSpan:
    """``device.span`` while the device has observers.

    Entering (:meth:`open_on_observers`) opens the span on every
    observer; leaving (:meth:`close_on_observers`) closes it on the
    same observers in reverse order, so an observer added or removed
    inside the span never sees half of it.  :meth:`set` and
    :meth:`add_tuples` reach every handle an observer returned.
    """

    __slots__ = ("_device", "_name", "_kind", "_attrs", "_opened")

    def __init__(self, device, name: str, kind: str, attrs: dict) -> None:
        self._device = device
        self._name = name
        self._kind = kind
        self._attrs = attrs
        self._opened: list[tuple[Any, Any]] = []

    def __enter__(self) -> "ObservedSpan":
        self.open_on_observers()
        return self

    def __exit__(self, *exc) -> bool:
        self.close_on_observers()
        return False

    def open_on_observers(self) -> None:
        device = self._device
        self._opened = [
            (o, o.on_span_open(device, self._name, self._kind,
                               self._attrs))
            for o in device.observers]

    def close_on_observers(self) -> None:
        for o, handle in reversed(self._opened):
            o.on_span_close(self._device, handle)

    def set(self, key: str, value: Any) -> None:
        for _, handle in self._opened:
            if handle is not None:
                handle.set(key, value)

    def add_tuples(self, n: int = 1) -> None:
        for _, handle in self._opened:
            if handle is not None:
                handle.add_tuples(n)


class SpanProfiler(Observer):
    """The observer that turns a device's spans into a tree.

    ``capacity`` bounds the number of *recorded* spans: once reached,
    further spans still open and close (keeping nesting well-formed and
    the counters untouched) but are not stored; ``dropped`` counts
    them, so a truncated profile is never mistaken for a complete one.
    """

    def __init__(self, capacity: int = 65536,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        # The device the latest span opened on: summary()'s total.
        self._device = None
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.tuples_produced = 0
        self.span_count = 0
        self.dropped = 0
        self.origin = clock()

    def add_tuples(self, n: int = 1) -> None:
        self.tuples_produced += n

    # -- span lifecycle (Observer hooks) -------------------------------

    def on_span_open(self, device, name: str, kind: str = "operator",
                     attrs: dict | None = None) -> Span:
        """Open a span on ``device``, nested under the innermost one."""
        self._device = device
        parent = self._stack[-1] if self._stack else None
        span = Span(self, name, kind, attrs, depth=len(self._stack))
        stats = device.stats
        span.reads0 = stats.reads
        span.writes0 = stats.writes
        span.cache0 = _cache_dict(stats.cache)
        span.mem_peak0 = device.memory.peak
        span.tuples0 = self.tuples_produced
        span.t0 = self._clock()
        if (self.span_count >= self.capacity
                or (parent is not None and parent.dropped)):
            span.dropped = True
            self.dropped += 1
        else:
            self.span_count += 1
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
        self._stack.append(span)
        return span

    def on_span_close(self, device, span: Span) -> None:
        """Close ``span``; it must be the innermost open one."""
        if not self._stack or self._stack[-1] is not span:
            open_name = self._stack[-1].name if self._stack else None
            raise RuntimeError(
                f"span {span.name!r} is not the innermost open span "
                f"(innermost is {open_name!r})")
        self._stack.pop()
        stats = device.stats
        span.t1 = self._clock()
        span.reads1 = stats.reads
        span.writes1 = stats.writes
        span.cache1 = _cache_dict(stats.cache)
        span.mem_peak1 = device.memory.peak
        span.tuples1 = self.tuples_produced

    # -- inspection ----------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first, parents before children."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    @property
    def attributed_io(self) -> int:
        """I/O covered by the recorded root spans."""
        return sum(s.io for s in self.roots if s.closed)

    def summary(self) -> dict:
        """The whole span tree plus reconciliation totals, JSON-ready.

        ``total_io`` is the I/O of the device the latest span opened
        on; ``unattributed_io`` is the part of it charged outside
        every recorded root span, so recorded exclusive I/O plus it
        equals ``stats.total`` when one device was profiled.
        """
        total = self._device.stats.total if self._device else 0
        return {
            "spans": [s.as_dict() for s in self.roots if s.closed],
            "span_count": self.span_count,
            "dropped": self.dropped,
            "tuples_produced": self.tuples_produced,
            "total_io": total,
            "attributed_io": self.attributed_io,
            "unattributed_io": total - self.attributed_io,
        }

    def check_reset(self) -> None:
        """Refuse to reset while a span is open."""
        if self._stack:
            raise RuntimeError(
                f"cannot reset with {len(self._stack)} span(s) open "
                f"(innermost {self._stack[-1].name!r})")

    def reset(self) -> None:
        """Drop all spans and zero the counters (keeps the knobs)."""
        self.check_reset()
        self.roots.clear()
        self.tuples_produced = 0
        self.span_count = 0
        self.dropped = 0
        self.origin = self._clock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SpanProfiler(spans={self.span_count}, "
                f"dropped={self.dropped}, open={len(self._stack)})")


def _cache_dict(cache) -> dict:
    return {"hits": cache.hits, "misses": cache.misses,
            "evictions": cache.evictions, "writebacks": cache.writebacks}


class ProfiledEmitter:
    """Emitter wrapper ticking the profiler's tuple counter per emit.

    Everything else (``count``, ``results``, ``checksum``, …) is
    delegated to the wrapped emitter, so it is a drop-in replacement
    anywhere an :class:`~repro.core.emit.Emitter` is expected.
    """

    def __init__(self, inner, profiler: SpanProfiler) -> None:
        self._inner = inner
        self._owner = profiler

    def emit(self, result) -> None:
        self._owner.add_tuples(1)
        self._inner.emit(result)

    def emit_block(self, results) -> None:
        """Tick once per result, then delegate the whole block.

        Defined explicitly (not via ``__getattr__``) so block emits
        cannot bypass the tuple counter by reaching the inner emitter's
        ``emit_block`` directly.
        """
        results = results if isinstance(results, list) else list(results)
        self._owner.add_tuples(len(results))
        self._deliver(results)

    def emit_product(self, base, factors) -> None:
        """Tick once per result of a factorized block, then delegate it.

        Defined explicitly for the same reason as :meth:`emit_block`.
        An inner emitter without ``emit_product`` gets the block
        expanded in order, last factor varying fastest.
        """
        self._owner.add_tuples(math.prod(len(ts) for _, ts in factors))
        inner_product = getattr(self._inner, "emit_product", None)
        if inner_product is not None:
            inner_product(base, factors)
            return
        edges = [e for e, _ in factors]
        results = []
        for combo in itertools.product(*(ts for _, ts in factors)):
            r = dict(base)
            r.update(zip(edges, combo))
            results.append(r)
        self._deliver(results)

    def _deliver(self, results: list) -> None:
        inner_bulk = getattr(self._inner, "emit_block", None)
        if inner_bulk is not None:
            inner_bulk(results)
        else:
            emit = self._inner.emit
            for r in results:
                emit(r)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
