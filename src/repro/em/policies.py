"""Replacement policies for the buffer pool.

A policy owns the *ordering* question only: given the set of resident
page keys, which frame should be evicted next?  Residency, dirtiness
and all I/O accounting stay in :class:`~repro.em.bufferpool.BufferPool`;
the policy sees opaque hashable keys and three events:

* :meth:`~ReplacementPolicy.on_insert` — the key became resident;
* :meth:`~ReplacementPolicy.on_access` — the key was hit while resident;
* :meth:`~ReplacementPolicy.victim` — choose (and forget) a tracked
  key.  The pool asks only when it is full, so there is always one.

Three classic policies are provided:

* ``lru`` — evict the least recently used page.  The default: right for
  hot-set workloads (repeated probes into small relations).
* ``clock`` — the second-chance approximation of LRU: a reference bit
  per frame and a sweeping hand.  Cheaper bookkeeping, close to LRU.
* ``mru`` — evict the *most* recently used page.  The antidote to
  sequential flooding: on cyclic re-scans larger than the pool, LRU
  evicts every page right before its reuse, while MRU retains a stable
  prefix of the scan.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

Key = Hashable


class ReplacementPolicy:
    """Interface the buffer pool drives; see the module docstring."""

    def on_insert(self, key: Key) -> None:
        raise NotImplementedError

    def on_access(self, key: Key) -> None:
        raise NotImplementedError

    def victim(self) -> Key:
        """Choose a tracked key, remove it from the policy, return it."""
        raise NotImplementedError

    def remove(self, key: Key) -> None:
        """Forget ``key`` without an eviction decision (flush/clear)."""
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least recently used: evict the coldest page."""

    name = "lru"

    def __init__(self) -> None:
        self._order: OrderedDict[Key, None] = OrderedDict()

    def on_insert(self, key: Key) -> None:
        self._order[key] = None

    def on_access(self, key: Key) -> None:
        self._order.move_to_end(key)

    def victim(self) -> Key:
        return self._order.popitem(last=False)[0]

    def remove(self, key: Key) -> None:
        self._order.pop(key, None)

    def clear(self) -> None:
        self._order.clear()


class MRUPolicy(LRUPolicy):
    """Most recently used: evict the hottest page.

    Optimal for cyclic re-scans that do not fit in the pool (LRU's
    sequential-flooding pathology): the first ``frames`` pages of the
    scanned file stay resident and hit on every pass.
    """

    name = "mru"

    def victim(self) -> Key:
        return self._order.popitem()[0]


class ClockPolicy(ReplacementPolicy):
    """Second-chance LRU approximation with a sweeping hand.

    Pages are admitted with their reference bit set; a hit re-sets it.
    The hand sweeps the ring clearing set bits and evicts the first
    page found with its bit already clear.
    """

    name = "clock"

    def __init__(self) -> None:
        self._ring: list[Key] = []
        self._ref: dict[Key, bool] = {}
        self._hand = 0

    def on_insert(self, key: Key) -> None:
        self._ring.append(key)
        self._ref[key] = True

    def on_access(self, key: Key) -> None:
        self._ref[key] = True

    def victim(self) -> Key:
        # One full sweep clears every reference bit, so this ends.
        while True:
            if self._hand >= len(self._ring):
                self._hand = 0
            key = self._ring[self._hand]
            if not self._ref[key]:
                self._ring.pop(self._hand)
                del self._ref[key]
                return key
            self._ref[key] = False
            self._hand += 1

    def remove(self, key: Key) -> None:
        if key in self._ref:
            index = self._ring.index(key)
            self._ring.pop(index)
            if index < self._hand:
                self._hand -= 1
            del self._ref[key]

    def clear(self) -> None:
        self._ring.clear()
        self._ref.clear()
        self._hand = 0


POLICIES: dict[str, type[ReplacementPolicy]] = {
    LRUPolicy.name: LRUPolicy,
    ClockPolicy.name: ClockPolicy,
    MRUPolicy.name: MRUPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by registry name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"available: {', '.join(sorted(POLICIES))}") from None
    return cls()
