"""Admission control: queries under one global budget ``M``.

The paper's algorithms each assume a private memory of ``M`` tuples.  A
service holding several queries' grants at once must keep that promise
*globally*: the sum of memory granted to in-flight queries stays within
the configured budget.  Queries declare their planner-estimated need
(:func:`repro.core.planner.estimate_memory_need`) and the controller
answers at once — it never waits:

* the need can never fit — :class:`AdmissionRejected`: it exceeds the
  budget (the paper would say ``M`` is too small for it) or the owner's
  ``max_share`` of it;
* the need fits in principle but the budget, or the owner's in-flight
  quota, is held right now — :class:`AdmissionTimeout`: try again once
  the holders release;
* otherwise — granted.

The service runs every query to completion on one thread, so a query
only meets held budget when a caller keeps a grant across calls (an
embedder reserving memory, a quota-capped tenant's open grants).

Fairness is **per-tenant**: a :class:`Quota` caps an owner's
concurrent grants (``max_inflight``) and/or its share of the budget
(``max_share``).  Grants are tickets so a double release is caught
instead of silently inflating the budget.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass


class AdmissionError(RuntimeError):
    """Base class for admission failures."""


class AdmissionRejected(AdmissionError):
    """The declared need can never fit (budget or quota share)."""


class AdmissionTimeout(AdmissionError):
    """The need does not fit what is free right now."""


@dataclass(frozen=True)
class Grant:
    """A live reservation of ``amount`` tuples of the global budget."""

    amount: int
    ticket: int
    owner: str | None = None


@dataclass(frozen=True)
class Quota:
    """Per-owner fairness limits (either field may be ``None``)."""

    max_inflight: int | None = None   #: concurrent grants for the owner
    max_share: float | None = None    #: fraction of the budget, (0, 1]

    def __post_init__(self) -> None:
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}")
        if (self.max_share is not None
                and not 0.0 < self.max_share <= 1.0):
            raise ValueError(
                f"max_share must be in (0, 1], got {self.max_share}")

    def as_dict(self) -> dict:
        return {"max_inflight": self.max_inflight,
                "max_share": self.max_share}


class AdmissionController:
    """Grants shares of one memory budget; grants or refuses at once."""

    def __init__(self, budget: int, *,
                 default_quota: Quota | None = None) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = budget
        self.default_quota = default_quota
        self._granted = 0
        self._active: set[int] = set()
        self._tickets = itertools.count(1)
        self._quotas: dict[str, Quota] = {}
        self._owner_inflight: dict[str, int] = {}
        self._owner_granted: dict[str, int] = {}
        self.stats = {"admitted": 0, "rejected": 0,
                      "timeouts": 0, "released": 0, "peak_granted": 0,
                      "quota_rejections": 0}

    # -- introspection -------------------------------------------------

    @property
    def granted(self) -> int:
        """Budget currently handed out, in tuples."""
        return self._granted

    @property
    def available(self) -> int:
        return self.budget - self._granted

    def snapshot(self) -> dict[str, object]:
        doc = {"budget": self.budget, "granted": self._granted,
               "available": self.budget - self._granted,
               "in_flight": len(self._active), **self.stats}
        owners = sorted(set(self._quotas) | set(self._owner_inflight))
        if owners or self.default_quota is not None:
            doc["quotas"] = {o: self._quota_state(o) for o in owners}
            if self.default_quota is not None:
                doc["default_quota"] = self.default_quota.as_dict()
        return doc

    # -- per-owner quotas ----------------------------------------------

    def set_quota(self, owner: str, *, max_inflight: int | None = None,
                  max_share: float | None = None) -> Quota | None:
        """Install (or, with both limits ``None``, clear) an owner's
        quota.  Takes effect for the owner's *next* acquire."""
        if max_inflight is None and max_share is None:
            self._quotas.pop(owner, None)
            return None
        quota = Quota(max_inflight=max_inflight, max_share=max_share)
        self._quotas[owner] = quota
        return quota

    def quota_for(self, owner: str | None) -> Quota | None:
        """The quota an acquire by ``owner`` is checked against."""
        if owner is None:
            return None
        return self._quotas.get(owner, self.default_quota)

    def quota_state(self, owner: str | None) -> dict | None:
        """Live usage vs limits for one owner; ``None`` when unlimited
        and idle (nothing worth recording)."""
        if owner is None or (owner not in self._quotas
                             and self.default_quota is None
                             and owner not in self._owner_inflight):
            return None
        return self._quota_state(owner)

    def _quota_state(self, owner: str) -> dict:
        state: dict = {"inflight": self._owner_inflight.get(owner, 0),
                       "granted": self._owner_granted.get(owner, 0)}
        quota = self.quota_for(owner)
        if quota is not None:
            state.update(quota.as_dict())
        return state

    # -- the protocol --------------------------------------------------

    def try_acquire(self, need: int, *,
                    owner: str | None = None) -> Grant | None:
        """Like :meth:`acquire`, but ``None`` instead of
        :class:`AdmissionTimeout` when the need does not fit now."""
        self._validate(need, owner)
        if not self._fits(need, owner):
            return None
        return self._grant(need, owner)

    def acquire(self, need: int, *, owner: str | None = None) -> Grant:
        """Grant ``need`` tuples now, or raise.

        :class:`AdmissionRejected` when the need can never fit,
        :class:`AdmissionTimeout` when it does not fit what is free
        right now.
        """
        self._validate(need, owner)
        if not self._fits(need, owner):
            self.stats["timeouts"] += 1
            held = (f"owner {owner!r} is at its quota"
                    if self._granted + need <= self.budget
                    else f"granted {self._granted}/{self.budget}")
            raise AdmissionTimeout(
                f"no {need} tuples free now ({held}); retry after a "
                f"release")
        return self._grant(need, owner)

    def release(self, grant: Grant) -> None:
        """Return a grant's budget."""
        if grant.ticket not in self._active:
            raise AdmissionError(
                f"release of inactive grant {grant} (double release?)")
        self._active.remove(grant.ticket)
        self._granted -= grant.amount
        if grant.owner is not None:
            left = self._owner_inflight.get(grant.owner, 0) - 1
            if left > 0:
                self._owner_inflight[grant.owner] = left
                self._owner_granted[grant.owner] -= grant.amount
            else:
                self._owner_inflight.pop(grant.owner, None)
                self._owner_granted.pop(grant.owner, None)
        self.stats["released"] += 1

    @contextmanager
    def admit(self, need: int, *, owner: str | None = None):
        """``with admission.admit(need):`` — acquire and always release."""
        grant = self.acquire(need, owner=owner)
        try:
            yield grant
        finally:
            self.release(grant)

    # -- internals -----------------------------------------------------

    def _validate(self, need: int, owner: str | None = None) -> None:
        if need < 0:
            raise ValueError(f"memory need must be >= 0, got {need}")
        if need > self.budget:
            self.stats["rejected"] += 1
            raise AdmissionRejected(
                f"query needs {need} tuples but the global budget is "
                f"{self.budget}; no release can ever satisfy it")
        quota = self.quota_for(owner)
        if (quota is not None and quota.max_share is not None
                and need > quota.max_share * self.budget):
            self.stats["rejected"] += 1
            self.stats["quota_rejections"] += 1
            raise AdmissionRejected(
                f"query needs {need} tuples but owner {owner!r} is "
                f"capped at {quota.max_share:g} of the {self.budget}-"
                f"tuple budget; no release can ever satisfy it")

    def _fits(self, need: int, owner: str | None) -> bool:
        """Budget and the owner's quota both allow ``need`` now."""
        if self._granted + need > self.budget:
            return False
        quota = self.quota_for(owner)
        if quota is None:
            return True
        if (quota.max_inflight is not None
                and self._owner_inflight.get(owner, 0)
                >= quota.max_inflight):
            return False
        return (quota.max_share is None
                or self._owner_granted.get(owner, 0) + need
                <= quota.max_share * self.budget)

    def _grant(self, need: int, owner: str | None) -> Grant:
        grant = Grant(amount=need, ticket=next(self._tickets),
                      owner=owner)
        self._granted += need
        self._active.add(grant.ticket)
        if owner is not None:
            self._owner_inflight[owner] = (
                self._owner_inflight.get(owner, 0) + 1)
            self._owner_granted[owner] = (
                self._owner_granted.get(owner, 0) + need)
        self.stats["admitted"] += 1
        if self._granted > self.stats["peak_granted"]:
            self.stats["peak_granted"] = self._granted
        return grant

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AdmissionController(budget={self.budget}, "
                f"granted={self._granted})")
