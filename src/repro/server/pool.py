"""The cross-query shared buffer pool and its per-session views.

One :class:`~repro.em.bufferpool.BufferPool` (anchored on a private
device that only lends its ``B``) is shared by every session: hot base
relations are faulted in once and hit from cache service-wide.  Each
session talks to it through a :class:`PoolView` — an object with the
``BufferPool`` charging surface that a session device adopts via
:meth:`~repro.em.device.Device.attach_pool`.  The view

* translates the session's :class:`~repro.em.file.EMFile` objects into
  pool-wide *labels*, so two sessions' independent materializations of
  the same catalog relation land on the same frames.  Shared labels are
  registered explicitly (``share``); everything else (sort runs, temp
  partitions) gets a view-private label, invisible to other sessions;
* routes every charge ``via`` the session's device, so hits, misses and
  write-backs appear in *that* session's counters — per-session
  accounting stays byte-identical to what the session alone caused.

Page numbering depends on ``B``, so shared labels embed the block size
and the catalog generation: sessions on a different ``B`` (or stale
data) simply do not share frames rather than corrupting each other's.
"""

from __future__ import annotations

from typing import Hashable, TYPE_CHECKING

from repro.em.bufferpool import BufferPool, PoolConfig
from repro.em.device import Device

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.em.file import EMFile


def shared_label(instance: str, generation: int, B: int, rel: str) -> str:
    """The pool-wide name for a base relation's pages."""
    return f"shared/{instance}@g{generation}/B{B}/{rel}"


class SharedPool:
    """The service-wide pool every session view charges through."""

    def __init__(self, *, frames: int, policy: str = "lru", B: int,
                 metrics=None) -> None:
        config = PoolConfig(frames=frames, policy=policy)
        # The anchor device exists to carry B and the residency gauge;
        # no query I/O is ever charged to it (views charge via= their
        # session devices).
        self.device = Device(M=max(B, frames * B), B=B, metrics=metrics)
        self.B = B
        self.pool = BufferPool(self.device, config)

    def view(self, device: Device, owner: Hashable) -> "PoolView":
        """A session-facing view charging ``device``; ``owner`` names
        its private labels."""
        if device.B != self.B:
            raise ValueError(
                f"session device has B={device.B} but the shared pool "
                f"pages with B={self.B}; sharing frames would mix page "
                f"boundaries")
        return PoolView(self, device, owner)

    def stats(self) -> dict[str, object]:
        return {
            "frames": self.pool.n_frames,
            "resident_pages": self.pool.resident_pages,
            "policy": self.pool.config.policy,
        }

    def close(self) -> None:
        self.pool.close()


class PoolView:
    """One session's window onto the shared pool.

    Implements the surface ``Device.charge_read``/``charge_write`` and
    ``Device.reset_stats`` expect of a pool (``read_page``,
    ``write_page``, ``flush``, ``clear``), so a session device can
    simply :meth:`~repro.em.device.Device.attach_pool` it.
    """

    def __init__(self, shared: SharedPool, device: Device,
                 owner: Hashable) -> None:
        self.shared = shared
        self.device = device
        self.owner = owner
        self._pool = shared.pool
        # EMFile (by identity) -> label, one lookup per page access.
        # Shared entries persist for the view's lifetime; private ones
        # (also kept in _private, file -> label) are forgotten at
        # end_query() so dead temp files do not accumulate.
        self._labels: dict["EMFile", str] = {}
        self._private: dict["EMFile", str] = {}
        self._n_private = 0

    # -- label management ---------------------------------------------

    def share(self, f: "EMFile", label: str) -> None:
        """Map this session's file onto a pool-wide shared label."""
        self._labels[f] = label

    def _new_private_label(self, f: "EMFile") -> str:
        # The counter (not the file name) guarantees uniqueness:
        # distinct live files may share a name across instances.
        self._n_private += 1
        name = getattr(f, "name", None) or str(f)
        label = f"view/{self.owner}/{self._n_private}:{name}"
        self._labels[f] = self._private[f] = label
        return label

    def _forget_private(self) -> set[str]:
        """Forget this query's private files; return their labels."""
        labels = set(self._private.values())
        for f in self._private:
            if self._labels[f] in labels:  # not shared since
                del self._labels[f]
        self._private.clear()
        return labels

    # -- the Device pool surface --------------------------------------

    def read_page(self, f: "EMFile", page: int) -> None:
        self._pool.read_page(
            self._labels.get(f) or self._new_private_label(f), page,
            self.device)

    def write_page(self, f: "EMFile", page: int) -> None:
        self._pool.write_page(
            self._labels.get(f) or self._new_private_label(f), page,
            self.device)

    def flush(self) -> None:
        """Write back only this session's deferred dirty pages."""
        self._pool.flush(device=self.device)

    def clear(self) -> None:
        """Drop this view's private frames without write-back.

        The shared-label frames stay: they belong to every session, and
        base pages are only ever clean (inputs materialize uncharged,
        bypassing the pool).
        """
        private = self._forget_private()
        self._pool.drop_matching(lambda key: key[0] in private,
                                 include_dirty=True)

    # -- query and session lifecycle ----------------------------------

    def end_query(self) -> None:
        """Retire one query's working set: flush own dirty pages, then
        drop the private (temp-file) frames they lived in.

        Temp files are query-private by construction, so keeping their
        frames would only crowd out shared pages for other sessions —
        and dropping them keeps pooled counters independent of what ran
        before on this session.
        """
        self._pool.flush(device=self.device)
        private = self._forget_private()
        self._pool.drop_matching(lambda key: key[0] in private)

    def close(self) -> None:
        """Session teardown: write back this session's dirty pages,
        drop its private frames and forget its labels."""
        self.end_query()
        self._labels.clear()
