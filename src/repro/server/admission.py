"""Admission control: does a query's memory need fit the budget?

The paper's algorithms each assume a private memory of ``M`` tuples.
The service runs one query at a time, each to completion, so admission
asks one question of a query's planner-estimated need
(:func:`repro.core.planner.estimate_memory_need`) and answers at once:

* the need exceeds the budget, or the owner's ``max_share`` of it —
  :class:`AdmissionRejected` (no retry can ever satisfy it);
* otherwise — a :class:`Grant`, handed back with
  :meth:`AdmissionController.release` when the query finishes.

Nothing is held between calls but counters: ``admitted - released`` is
the number of grants not yet returned, 0 whenever no query runs.

Fairness is **per-tenant**: a :class:`Quota` caps an owner's share of
the budget (``max_share``).
"""

from __future__ import annotations

from dataclasses import dataclass


class AdmissionError(RuntimeError):
    """Base class for admission failures."""


class AdmissionRejected(AdmissionError):
    """The declared need can never fit (budget or quota share)."""


@dataclass(frozen=True)
class Grant:
    """An admitted need of ``amount`` tuples."""

    amount: int
    owner: str | None = None


@dataclass(frozen=True)
class Quota:
    """Per-owner cap on one query's share of the budget."""

    max_share: float  #: fraction of the budget, (0, 1]

    def __post_init__(self) -> None:
        if not 0.0 < self.max_share <= 1.0:
            raise ValueError(
                f"max_share must be in (0, 1], got {self.max_share}")

    def as_dict(self) -> dict:
        return {"max_share": self.max_share}


class AdmissionController:
    """Admits or rejects memory needs against one budget, at once."""

    def __init__(self, budget: int, *,
                 default_quota: Quota | None = None) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = budget
        self.default_quota = default_quota
        self._quotas: dict[str, Quota] = {}
        self.stats = {"admitted": 0, "rejected": 0, "released": 0,
                      "quota_rejections": 0}

    def snapshot(self) -> dict[str, object]:
        doc: dict[str, object] = {"budget": self.budget, **self.stats}
        if self._quotas or self.default_quota is not None:
            doc["quotas"] = {o: q.as_dict()
                             for o, q in sorted(self._quotas.items())}
            if self.default_quota is not None:
                doc["default_quota"] = self.default_quota.as_dict()
        return doc

    # -- per-owner quotas ----------------------------------------------

    def set_quota(self, owner: str, *,
                  max_share: float | None = None) -> Quota | None:
        """Install (or, with ``None``, clear) an owner's quota.  Takes
        effect for the owner's *next* acquire."""
        if max_share is None:
            self._quotas.pop(owner, None)
            return None
        quota = Quota(max_share)
        self._quotas[owner] = quota
        return quota

    def quota_for(self, owner: str | None) -> Quota | None:
        """The quota an acquire by ``owner`` is checked against."""
        if owner is None:
            return None
        return self._quotas.get(owner, self.default_quota)

    # -- the protocol --------------------------------------------------

    def acquire(self, need: int, *, owner: str | None = None) -> Grant:
        """Admit ``need`` tuples, or raise :class:`AdmissionRejected`
        when the need exceeds the budget or the owner's share of it."""
        if need < 0:
            raise ValueError(f"memory need must be >= 0, got {need}")
        if need > self.budget:
            self.stats["rejected"] += 1
            raise AdmissionRejected(
                f"query needs {need} tuples but the global budget is "
                f"{self.budget}")
        quota = self.quota_for(owner)
        if quota is not None and need > quota.max_share * self.budget:
            self.stats["rejected"] += 1
            self.stats["quota_rejections"] += 1
            raise AdmissionRejected(
                f"query needs {need} tuples but owner {owner!r} is "
                f"capped at {quota.max_share:g} of the {self.budget}-"
                f"tuple budget")
        self.stats["admitted"] += 1
        return Grant(amount=need, owner=owner)

    def release(self, grant: Grant) -> None:
        """Hand back a grant once its query has finished."""
        self.stats["released"] += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdmissionController(budget={self.budget})"
