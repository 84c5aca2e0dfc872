"""The admission controller: a stateless size check against one budget.

A need is refused when it exceeds the budget or the owner's share of
it, and admitted otherwise, whatever else has been admitted: the
service runs one query at a time, so no grant is ever held while
another query asks.  The rule is checked directly and as a hypothesis
property over budgets, needs, owners and quota shares.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import (AdmissionController, AdmissionRejected, Grant,
                          Quota)


class TestGrantRelease:
    def test_grant_and_release_round_trip(self):
        ac = AdmissionController(100)
        g = ac.acquire(60, owner="a")
        assert g == Grant(amount=60, owner="a")
        assert ac.stats["admitted"] - ac.stats["released"] == 1
        ac.release(g)
        assert ac.stats["admitted"] - ac.stats["released"] == 0

    def test_zero_need_is_a_valid_grant(self):
        ac = AdmissionController(10)
        g = ac.acquire(0)
        assert g.amount == 0
        ac.release(g)
        assert ac.stats["released"] == 1

    def test_negative_need_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(10).acquire(-1)

    def test_need_above_budget_rejected_outright(self):
        ac = AdmissionController(100)
        with pytest.raises(AdmissionRejected):
            ac.acquire(101)
        assert ac.stats["rejected"] == 1
        assert ac.stats["admitted"] == 0

    def test_snapshot_separates_live_and_lifetime(self):
        """The snapshot carries lifetime counters only; the one live
        value, grants not yet returned, is ``admitted - released``."""
        ac = AdmissionController(10)
        g = ac.acquire(4)
        ac.release(g)
        snap = ac.snapshot()
        assert snap == {"budget": 10, "admitted": 1, "rejected": 0,
                        "released": 1, "quota_rejections": 0}


class TestQueueing:
    """There is no wait queue and no ledger: every need is answered at
    once from its size alone."""

    def test_held_grant_does_not_refuse_the_next(self):
        ac = AdmissionController(10)
        g = ac.acquire(10)
        h = ac.acquire(10)  # a size check, not a reservation
        ac.release(g)
        ac.release(h)
        assert ac.stats["admitted"] == ac.stats["released"] == 2

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


SHARES = st.none() | st.floats(0.0, 1.0, exclude_min=True)


class TestStatelessRule:
    @given(budget=st.integers(1, 100), share=SHARES,
           default_share=SHARES,
           calls=st.lists(st.tuples(st.integers(-3, 120),
                                    st.sampled_from([None, "a", "b"])),
                          min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_acquire_is_a_pure_size_check(self, budget, share,
                                          default_share, calls):
        """Against a model of the rule: ``ValueError`` iff the need is
        negative; otherwise :class:`AdmissionRejected` iff it exceeds
        the budget or the owner's share of it; otherwise a
        :class:`Grant`.  Owner ``"a"`` has its own quota (``None``
        clears it), ``"b"`` falls back to the default quota, and the
        anonymous owner has none."""
        default = None if default_share is None else Quota(default_share)
        ac = AdmissionController(budget, default_quota=default)
        ac.set_quota("a", max_share=share)
        caps = {None: None, "a": default_share if share is None else share,
                "b": default_share}
        rejected = quota_rejections = 0
        for need, owner in calls:
            if need < 0:
                with pytest.raises(ValueError):
                    ac.acquire(need, owner=owner)
                continue
            cap = caps[owner]
            over_budget = need > budget
            if over_budget or (cap is not None and need > cap * budget):
                with pytest.raises(AdmissionRejected):
                    ac.acquire(need, owner=owner)
                rejected += 1
                quota_rejections += not over_budget
            else:
                g = ac.acquire(need, owner=owner)
                assert g == Grant(amount=need, owner=owner)
                ac.release(g)
            assert ac.stats["admitted"] - ac.stats["released"] == 0
            assert ac.stats["rejected"] == rejected
            assert ac.stats["quota_rejections"] == quota_rejections
