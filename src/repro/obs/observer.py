"""The one attach point: what a device tells the things watching it.

A :class:`~repro.em.device.Device` keeps a single list,
``device.observers``.  Every physical read and write, buffer-pool
event, phase boundary, span and memory peak is announced to each
observer on it, in list order.  Observers watch charges; they never
make one, so every counter is byte-identical with or without them.

Add one with ``Device(M, B, observers=[o])`` or ``device.observe(o)``
and remove it with ``device.unobserve(o)``.  With the list empty, a
charge costs one truthiness check.
"""

from __future__ import annotations

from typing import Any


class Observer:
    """Base class of everything on ``device.observers``.

    Every hook is a no-op, so a subclass overrides only what it needs.
    ``file`` is the file's display name and ``page`` its page number.
    """

    def on_read(self, file: str, page: int) -> None:
        """One physical page read was charged."""

    def on_write(self, file: str, page: int) -> None:
        """One physical page write was charged."""

    def on_cache(self, kind: str, file: str, page: int) -> None:
        """A buffer-pool ``hit``, ``miss``, ``eviction`` or ``writeback``."""

    def on_phase_enter(self, label: str) -> None:
        """A :class:`~repro.em.stats.PhaseTracker` phase opened."""

    def on_phase_exit(self, label: str, exclusive_io: int) -> None:
        """A phase closed; ``exclusive_io`` excludes nested phases."""

    def on_mem_peak(self, peak: int) -> None:
        """The memory gauge reached a new peak (in tuples)."""

    def on_span_open(self, device: Any, name: str, kind: str,
                     attrs: dict | None) -> Any:
        """A span opened on ``device``; return a handle or ``None``.

        A non-``None`` handle is passed back to :meth:`on_span_close`
        and must offer ``set(key, value)`` and ``add_tuples(n)``.
        """
        return None

    def on_span_close(self, device: Any, handle: Any) -> None:
        """The span :meth:`on_span_open` returned ``handle`` for closed."""

    def check_reset(self) -> None:
        """Raise if :meth:`reset` cannot run now.

        ``Device.reset_stats`` asks every observer before it changes
        anything, so a refused reset leaves the whole device intact.
        """

    def reset(self) -> None:
        """Forget everything observed (``Device.reset_stats``)."""
