"""The cross-query shared buffer pool and the service devices' views.

One :class:`~repro.em.bufferpool.BufferPool` (anchored on a private
device that only lends its ``B``) is shared by every query: hot base
relations are faulted in once and hit from cache service-wide.  The
service keeps one device per ``(M, B)`` machine shape, and each of
those devices talks to the pool through a :class:`PoolView` — an
object with the ``BufferPool`` charging surface that the device adopts
via :meth:`~repro.em.device.Device.attach_pool`.  The view

* translates the device's :class:`~repro.em.file.EMFile` objects into
  pool-wide *labels*.  The service registers the labels of its
  materialized catalog relations explicitly (:meth:`PoolView.share`),
  so copies on two devices of the same ``B`` land on the same frames;
  everything else (sort runs, temp partitions) gets a view-private
  label that lives for one query;
* routes every charge ``via`` its device, so hits, misses and
  write-backs appear in the counters of the query running on it.

Page numbering depends on ``B``, so shared labels embed the block size
and the catalog generation (:func:`shared_label`): devices on a
different ``B`` do not share frames, and a replaced generation's
frames are dropped with its copies (:meth:`PoolView.forget`).
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

from repro.em.bufferpool import BufferPool, PoolConfig
from repro.em.device import Device

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.em.file import EMFile


def shared_label(instance: str, generation: int, B: int, rel: str) -> str:
    """The pool-wide name for a base relation's pages."""
    return f"shared/{instance}@g{generation}/B{B}/{rel}"


class SharedPool:
    """The service-wide pool every device view charges through."""

    def __init__(self, *, frames: int, policy: str = "lru",
                 B: int) -> None:
        config = PoolConfig(frames=frames, policy=policy)
        # The anchor device exists to carry B; no query I/O is ever
        # charged to it (views charge via= their own devices).
        self.device = Device(M=max(B, frames * B), B=B)
        self.B = B
        self.pool = BufferPool(self.device, config)

    def stats(self) -> dict[str, object]:
        return {
            "frames": self.pool.n_frames,
            "resident_pages": self.pool.resident_pages,
            "policy": self.pool.config.policy,
        }

    def close(self) -> None:
        self.pool.close()


class PoolView:
    """One device's window onto the shared pool.

    Implements the surface ``Device.charge_read``/``charge_write`` and
    ``Device.reset_stats`` expect of a pool (``read_page``,
    ``write_page``, ``flush``, ``clear``), so a device can simply
    :meth:`~repro.em.device.Device.attach_pool` it.
    """

    def __init__(self, shared: SharedPool, device: Device) -> None:
        self.device = device
        self._pool = shared.pool
        # EMFile (by identity) -> label, one lookup per page access.
        # Shared entries stay until forget(); private ones (also listed
        # in _private) go at end_query() so dead temp files do not
        # accumulate.
        self._labels: dict["EMFile", str] = {}
        self._private: list["EMFile"] = []
        self._n_private = 0

    # -- label management ---------------------------------------------

    def share(self, f: "EMFile", label: str) -> None:
        """Map this device's file onto a pool-wide shared label."""
        self._labels[f] = label

    def forget(self, files: Iterable["EMFile"]) -> None:
        """Forget ``files`` and drop their frames, dirty ones without
        write-back."""
        labels = {self._labels.pop(f) for f in files}
        if labels:
            self._pool.drop_matching(lambda key: key[0] in labels,
                                     include_dirty=True)

    def _new_private_label(self, f: "EMFile") -> str:
        # The counter (not the file name) guarantees uniqueness:
        # distinct live files may share a name; M tells the views on
        # one pool apart.
        self._n_private += 1
        name = getattr(f, "name", None) or str(f)
        label = self._labels[f] = \
            f"private/M{self.device.M}/{self._n_private}:{name}"
        self._private.append(f)
        return label

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
        """Write back only this device's deferred dirty pages."""
        self._pool.flush(device=self.device)

    def clear(self) -> None:
        """Drop this view's private frames without write-back.

        The shared-label frames stay: they serve every query, and base
        pages are only ever clean (inputs materialize uncharged,
        bypassing the pool).
        """
        self.forget(self._private)
        self._private.clear()

    def end_query(self) -> None:
        """Retire one query's working set: flush own dirty pages, then
        drop the private (temp-file) frames they lived in.

        Temp files are query-private by construction, so keeping their
        frames would only crowd out shared pages for later queries —
        and dropping them keeps pooled counters independent of what
        ran before on this device.
        """
        self._pool.flush(device=self.device)
        self.clear()
