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
from typing import Iterable

from repro.em.bufferpool import BufferPool, PoolConfig
from repro.em.file import EMFile
from repro.em.stats import IOStats, MemoryGauge, PhaseTracker
from repro.obs.observer import Observer
from repro.obs.spans import NULL_SPAN, ObservedSpan


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
    observers:
        Initial :class:`~repro.obs.observer.Observer` list (e.g. a
        :class:`~repro.obs.tracer.Tracer` and a
        :class:`~repro.obs.spans.SpanProfiler`).  Each sees every
        physical charge, cache event, phase, span and memory peak;
        :meth:`observe` and :meth:`unobserve` change the list later.
        Purely passive: with or without observers, every counter is
        byte-identical.

    The hot operators run block-at-a-time over the block cursor APIs
    of :mod:`repro.em.file`, charging the page I/Os a tuple-at-a-time
    loop would, in the same order; ``tests/golden_io_streams.json``
    pins those event streams.
    """

    def __init__(self, M: int, B: int, *, mem_slack: float = 8.0,
                 strict_memory: bool = False,
                 buffer_pool: PoolConfig | None = None,
                 observers: Iterable[Observer] = ()) -> None:
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        if B < 1:
            raise ValueError(f"B must be >= 1, got {B}")
        if B > M:
            raise ValueError(f"block size B={B} cannot exceed memory M={M}")
        self.M = M
        self.B = B
        # Mutated in place only: the gauge and the phase tracker share
        # this list object.
        self.observers: list[Observer] = list(observers)
        self.stats = IOStats()
        self.memory = MemoryGauge(capacity=M, slack=mem_slack,
                                  strict=strict_memory,
                                  observers=self.observers)
        self.phases = PhaseTracker(self)
        self.pool_config = buffer_pool
        self.pool = (None if buffer_pool is None
                     else BufferPool(self, buffer_pool))
        self._name_counter = itertools.count()

    # -- observability -----------------------------------------------

    def observe(self, observer: Observer) -> None:
        """Add ``observer``; it sees every event from now on."""
        self.observers.append(observer)

    def unobserve(self, observer: Observer) -> None:
        """Remove ``observer``; counters are unaffected either way."""
        self.observers.remove(observer)

    def attach_pool(self, pool) -> None:
        """Route this device's page charges through an external pool.

        ``pool`` must expose the charging surface of
        :class:`~repro.em.bufferpool.BufferPool` (``read_page`` /
        ``write_page`` / ``flush`` / ``clear``) — in practice a server
        device's view of a shared cross-query pool.  Replaces any
        constructor-owned pool; ``pool_config`` still describes only
        the latter.
        """
        self.pool = pool

    def detach_pool(self) -> None:
        """Charge directly again (the paper-faithful default)."""
        self.pool = None

    def span(self, name: str, kind: str = "operator", **attrs):
        """A span every observer sees, or the shared no-op without any.

        Instrumented code uses this unconditionally::

            with device.span("merge", fan_in=k):
                ...

        which costs one truthiness check when nothing observes.
        """
        if not self.observers:
            return NULL_SPAN
        return ObservedSpan(self, name, kind, attrs)

    @staticmethod
    def _file_label(f) -> str:
        """Display name for a file-like key (pool keys are Hashable)."""
        return getattr(f, "name", None) or str(f)

    # -- I/O charging (called by readers and writers) ----------------

    @property
    def order_seen(self) -> bool:
        """Can anything tell one order of the page charges from another?

        With no pool and no observer a charge only adds one to
        ``stats.reads`` or ``stats.writes``, so the same charges in any
        order leave every counter identical.  A buffer pool (its hits,
        misses and evictions) or an observer (the event stream) sees
        the order.  Operators that compute a cursor's exact charge
        order (the sort's merge, :func:`~repro.em.loaders.write_semijoin`)
        replay it only when this is true, and otherwise charge the same
        pages in file order.
        """
        return self.pool is not None or bool(self.observers)

    def charge_read(self, f: "EMFile", page: int) -> None:
        """Charge one logical page read, routed through the pool if any."""
        if self.stats.suspended:
            return
        if self.pool is not None:
            self.pool.read_page(f, page)
        elif self.observers:
            self._record_read(f, page)
        else:
            self.stats.reads += 1

    def charge_write(self, f: "EMFile", page: int) -> None:
        """Charge one logical page write (deferred when pooled)."""
        if self.stats.suspended:
            return
        if self.pool is not None:
            self.pool.write_page(f, page)
        elif self.observers:
            self._record_write(f, page)
        else:
            self.stats.writes += 1

    def _record_read(self, f, page: int) -> None:
        """Count one *physical* page read (the model's unit of cost).

        Every physical read an observer or a pool can see is counted
        here, so observers see exactly the charged I/Os; only
        :meth:`charge_read` with no pool and no observer adds to
        ``stats.reads`` itself.
        """
        self.stats.reads += 1
        if self.observers:
            label = self._file_label(f)
            for o in self.observers:
                o.on_read(label, page)

    def _record_write(self, f, page: int) -> None:
        """Count one *physical* page write (see :meth:`_record_read`)."""
        self.stats.writes += 1
        if self.observers:
            label = self._file_label(f)
            for o in self.observers:
                o.on_write(label, page)

    def _notify_cache(self, kind: str, f, page: int) -> None:
        """Forward a pool event (hit/miss/eviction/writeback)."""
        if self.observers:
            label = self._file_label(f)
            for o in self.observers:
                o.on_cache(kind, label, page)

    def flush_pool(self) -> None:
        """Write back deferred dirty pages; a no-op without a pool.

        Call at the end of a measured run so I/O totals are
        deterministic and comparable with the pool-off configuration.
        """
        if self.pool is not None:
            self.pool.flush()

    def new_file(self, name: str | None = None) -> "EMFile":
        """Create an empty on-disk file managed by this device."""
        if name is None:
            name = f"tmp{next(self._name_counter)}"
        return EMFile(self, name)

    def file_from_tuples(self, tuples, name: str | None = None) -> "EMFile":
        """Materialize ``tuples`` on disk, charging the write I/Os."""
        f = self.new_file(name)
        with f.writer() as w:
            w.extend(tuples)
        return f

    def file_from_tuples_free(self, tuples, name: str | None = None) -> "EMFile":
        """Materialize ``tuples`` on disk *without* charging I/Os.

        Used to set up benchmark inputs: the paper's model charges for
        the algorithm's work, not for the pre-existing input relations.
        A list becomes the file's rows as is (the file keeps it, so the
        caller hands over a list nothing else changes); any other
        iterable is drained into one while counting is suspended.
        Counting is *suspended* for the duration (not rewound after the
        fact): rewinding would erase I/O an open
        :class:`~repro.em.stats.PhaseTracker` phase already attributed,
        driving its exclusive total negative.
        """
        f = self.new_file(name)
        with self.stats.suspend():
            f.fill_sealed(tuples if isinstance(tuples, list)
                          else list(tuples))
        return f

    def pages(self, n_tuples: int) -> int:
        """Number of pages occupied by ``n_tuples`` tuples."""
        return -(-n_tuples // self.B)

    def reset_stats(self) -> None:
        """Zero the I/O counters, phase totals, and the memory gauge.

        A buffer pool is emptied without write-back: its deferred
        writes belong to the history being discarded.  Observers are
        reset too; if one refuses (a profiler with a span still open),
        nothing is changed.
        """
        for o in self.observers:
            o.check_reset()
        self.stats.reset()
        self.memory.reset()
        self.phases.reset()
        if self.pool is not None:
            self.pool.clear()
        for o in self.observers:
            o.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device(M={self.M}, B={self.B}, io={self.stats.total})"
