"""The simulated external-memory machine.

A :class:`Device` bundles the model parameters ``M`` (memory size, in
tuples) and ``B`` (block size, in tuples) with the global
:class:`~repro.em.stats.IOStats` counter and
:class:`~repro.em.stats.MemoryGauge`.  Every on-disk structure
(:class:`~repro.em.file.EMFile`) is created through a device so that all
I/O performed anywhere in an algorithm is charged to one place.

Typical use::

    dev = Device(M=1024, B=32)
    f = dev.new_file("R1")
    with f.writer() as w:
        for t in tuples:
            w.append(t)
    print(dev.stats.total)
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.em.bufferpool import BufferPool, PoolConfig
from repro.em.stats import IOStats, MemoryGauge, PhaseTracker
from repro.obs.metrics import NULL_METRICS
from repro.obs.spans import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.em.file import EMFile


class Device:
    """A simulated disk plus its I/O and memory accounting.

    Parameters
    ----------
    M:
        Main-memory capacity in tuples.  The paper assumes a memory of
        ``c*M`` for a constant ``c``; see :class:`MemoryGauge`.
    B:
        Block (page) size in tuples.  Transferring one block costs one
        I/O regardless of how full it is.
    mem_slack:
        Multiple of ``M`` the memory gauge tolerates before (in strict
        mode) raising :class:`~repro.em.stats.MemoryBudgetExceeded`.
    strict_memory:
        When true, exceeding the slacked budget raises instead of only
        being recorded in ``memory.peak``.
    buffer_pool:
        ``None`` (the default) preserves the paper-faithful accounting:
        every page entry is a fresh I/O.  Pass a
        :class:`~repro.em.bufferpool.PoolConfig` to interpose a
        :class:`~repro.em.bufferpool.BufferPool` so hot pages hit in
        cache; counters appear in ``stats.cache``.
    tracer:
        An optional :class:`~repro.obs.tracer.Tracer` observing every
        charge (physical I/O, cache events, phases, memory peaks).
        Purely passive: with or without a tracer, every counter is
        byte-identical.
    profiler:
        An optional :class:`~repro.obs.spans.SpanProfiler`; spans
        opened through :meth:`span` (and by every
        :class:`~repro.em.stats.PhaseTracker` phase) snapshot the
        counters at entry/exit.  Passive like the tracer.
    metrics:
        An optional :class:`~repro.obs.metrics.MetricsRegistry`.
        Without one the device carries the shared
        :data:`~repro.obs.metrics.NULL_METRICS` sink, so instrumented
        code updates metrics unconditionally at near-zero cost.

    The hot operators run block-at-a-time over the columnar cursor APIs
    of :mod:`repro.em.file`, charging the page I/Os a tuple-at-a-time
    loop would, in the same order; ``tests/golden_io_streams.json``
    pins those event streams.
    """

    def __init__(self, M: int, B: int, *, mem_slack: float = 8.0,
                 strict_memory: bool = False,
                 buffer_pool: PoolConfig | None = None,
                 tracer=None, profiler=None, metrics=None) -> None:
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        if B < 1:
            raise ValueError(f"B must be >= 1, got {B}")
        if B > M:
            raise ValueError(f"block size B={B} cannot exceed memory M={M}")
        self.M = M
        self.B = B
        self.stats = IOStats()
        self.memory = MemoryGauge(capacity=M, slack=mem_slack,
                                  strict=strict_memory)
        self.phases = PhaseTracker(self.stats)
        self.pool_config = buffer_pool
        self.pool = (None if buffer_pool is None
                     else BufferPool(self, buffer_pool))
        self._name_counter = itertools.count()
        self.tracer = None
        self.profiler = None
        self.metrics = NULL_METRICS
        if tracer is not None:
            self.attach_tracer(tracer)
        if profiler is not None:
            self.attach_profiler(profiler)
        if metrics is not None:
            self.attach_metrics(metrics)

    # -- observability -----------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Wire ``tracer`` into every accounting hook of this device."""
        self.tracer = tracer
        self.phases._tracer = tracer
        self.memory._tracer = tracer

    def detach_tracer(self) -> None:
        """Stop observing; counters are unaffected either way."""
        self.tracer = None
        self.phases._tracer = None
        self.memory._tracer = None

    def attach_profiler(self, profiler) -> None:
        """Wire ``profiler`` in: :meth:`span` records, phases emit spans."""
        self.profiler = profiler
        profiler.attach(self)
        self.phases._profiler = profiler

    def detach_profiler(self) -> None:
        """Stop profiling; counters are unaffected either way."""
        if self.profiler is not None:
            self.profiler.detach()
        self.profiler = None
        self.phases._profiler = None

    def attach_metrics(self, metrics) -> None:
        """Make ``metrics`` the registry instrumented code populates."""
        self.metrics = metrics

    def detach_metrics(self) -> None:
        """Swap back to the shared no-op metrics sink."""
        self.metrics = NULL_METRICS

    def attach_pool(self, pool) -> None:
        """Route this device's page charges through an external pool.

        ``pool`` must expose the charging surface of
        :class:`~repro.em.bufferpool.BufferPool` (``read_page`` /
        ``write_page`` / ``flush`` / ``clear``) — in practice a server
        session's view of a shared cross-query pool.  Replaces any
        constructor-owned pool; ``pool_config`` still describes only
        the latter.
        """
        self.pool = pool

    def detach_pool(self) -> None:
        """Charge directly again (the paper-faithful default)."""
        self.pool = None

    def span(self, name: str, kind: str = "operator", **attrs):
        """A profiled span, or the shared no-op when profiling is off.

        Instrumented code uses this unconditionally::

            with device.span("merge", fan_in=k):
                ...

        which costs one attribute check when no profiler is attached.
        """
        if self.profiler is None:
            return NULL_SPAN
        return self.profiler.span(name, kind, **attrs)

    @staticmethod
    def _file_label(f) -> str:
        """Display name for a file-like key (pool keys are Hashable)."""
        return getattr(f, "name", None) or str(f)

    # -- I/O charging (called by readers and writers) ----------------

    def charge_read(self, f: "EMFile", page: int) -> None:
        """Charge one logical page read, routed through the pool if any."""
        if self.stats.suspended:
            return
        if self.pool is not None:
            self.pool.read_page(f, page)
        else:
            self._record_read(f, page)

    def charge_write(self, f: "EMFile", page: int) -> None:
        """Charge one logical page write (deferred when pooled)."""
        if self.stats.suspended:
            return
        if self.pool is not None:
            self.pool.write_page(f, page)
        else:
            self._record_write(f, page)

    def _record_read(self, f, page: int) -> None:
        """Count one *physical* page read (the model's unit of cost).

        Every ``stats.reads`` increment in the codebase goes through
        here, so an attached tracer sees exactly the charged I/Os.
        """
        self.stats.reads += 1
        if self.tracer is not None:
            self.tracer.on_read(self._file_label(f), page)

    def _record_write(self, f, page: int) -> None:
        """Count one *physical* page write (see :meth:`_record_read`)."""
        self.stats.writes += 1
        if self.tracer is not None:
            self.tracer.on_write(self._file_label(f), page)

    def _notify_cache(self, kind: str, f, page: int) -> None:
        """Forward a pool event (hit/miss/eviction/writeback) if traced."""
        if self.tracer is not None:
            self.tracer.on_cache(kind, self._file_label(f), page)

    def flush_pool(self) -> None:
        """Write back deferred dirty pages; a no-op without a pool.

        Call at the end of a measured run so I/O totals are
        deterministic and comparable with the pool-off configuration.
        """
        if self.pool is not None:
            self.pool.flush()

    def new_file(self, name: str | None = None) -> "EMFile":
        """Create an empty on-disk file managed by this device."""
        from repro.em.file import EMFile

        if name is None:
            name = f"tmp{next(self._name_counter)}"
        return EMFile(self, name)

    # em-cost: N/B -- one write per page of the materialized tuples
    def file_from_tuples(self, tuples, name: str | None = None) -> "EMFile":
        """Materialize ``tuples`` on disk, charging the write I/Os."""
        f = self.new_file(name)
        with f.writer() as w:
            # em-loop-bound: N -- one iteration per materialized tuple
            for t in tuples:
                w.append(t)
        return f

    def file_from_tuples_free(self, tuples, name: str | None = None) -> "EMFile":
        """Materialize ``tuples`` on disk *without* charging I/Os.

        Used to set up benchmark inputs: the paper's model charges for
        the algorithm's work, not for the pre-existing input relations.
        Counting is *suspended* for the duration (not rewound after the
        fact): rewinding would erase I/O an open
        :class:`~repro.em.stats.PhaseTracker` phase already attributed,
        driving its exclusive total negative.
        """
        with self.stats.suspend():
            return self.file_from_tuples(tuples, name)

    def pages(self, n_tuples: int) -> int:
        """Number of pages occupied by ``n_tuples`` tuples."""
        return -(-n_tuples // self.B)

    def reset_stats(self) -> None:
        """Zero the I/O counters, phase totals, and the memory gauge.

        A buffer pool is emptied without write-back: its deferred
        writes belong to the history being discarded.
        """
        self.stats.reset()
        self.memory.reset()
        self.phases.reset()
        if self.pool is not None:
            self.pool.clear()
        if self.tracer is not None:
            self.tracer.reset()
        if self.profiler is not None:
            self.profiler.reset()
        self.metrics.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device(M={self.M}, B={self.B}, io={self.stats.total})"
