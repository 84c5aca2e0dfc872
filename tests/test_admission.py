"""The admission controller: one global budget, many queries.

The invariant the service layer rests on — the sum of granted budgets
stays within ``M`` — is checked directly and as a hypothesis property
over random scripts of non-blocking acquire/release calls.  The failure
paths (reject, immediate refusal, double release) are covered
alongside.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import (AdmissionController, AdmissionError,
                          AdmissionRejected, AdmissionTimeout)


class TestGrantRelease:
    def test_grant_and_release_round_trip(self):
        ac = AdmissionController(100)
        g = ac.acquire(60)
        assert ac.granted == 60 and ac.available == 40
        ac.release(g)
        assert ac.granted == 0 and ac.available == 100

    def test_zero_need_is_a_valid_grant(self):
        ac = AdmissionController(10)
        g = ac.acquire(0)
        assert ac.granted == 0
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
        assert ac.stats["timeouts"] == 0  # never counted as busy

    def test_double_release_caught(self):
        ac = AdmissionController(10)
        g = ac.acquire(5)
        ac.release(g)
        with pytest.raises(AdmissionError):
            ac.release(g)
        assert ac.granted == 0  # not driven negative

    def test_try_acquire_non_blocking(self):
        ac = AdmissionController(10)
        g = ac.try_acquire(8)
        assert g is not None
        assert ac.try_acquire(8) is None  # over budget: None, no wait
        ac.release(g)
        assert ac.try_acquire(8) is not None

    def test_admit_context_manager_always_releases(self):
        ac = AdmissionController(10)
        with ac.admit(7):
            assert ac.granted == 7
        assert ac.granted == 0
        with pytest.raises(RuntimeError, match="boom"):
            with ac.admit(7):
                raise RuntimeError("boom")
        assert ac.granted == 0

    def test_snapshot_separates_live_and_lifetime(self):
        ac = AdmissionController(10)
        g = ac.acquire(4)
        ac.release(g)
        snap = ac.snapshot()
        assert snap["granted"] == 0  # live value, not the counter
        assert snap["admitted"] == 1
        assert snap["released"] == 1
        assert snap["peak_granted"] == 4


class TestQueueing:
    """There is no wait queue: a need that does not fit now is refused
    at once, and the caller retries after a release."""

    def test_timeout_when_budget_never_frees(self):
        ac = AdmissionController(10)
        g = ac.acquire(10)
        with pytest.raises(AdmissionTimeout, match="granted 10/10"):
            ac.acquire(5)
        assert ac.stats["timeouts"] == 1
        assert ac.granted == 10  # the refusal took nothing
        ac.release(g)
        ac.release(ac.acquire(5))  # now it fits

    def test_timeout_zero_fails_fast(self):
        """A refusal never waits, whichever limit is held: the budget
        or the owner's in-flight quota."""
        ac = AdmissionController(10)
        ac.set_quota("a", max_inflight=1)
        g = ac.acquire(1, owner="a")
        with pytest.raises(AdmissionTimeout, match="quota"):
            ac.acquire(1, owner="a")
        ac.release(g)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


def _refusal_justified(ac, need, owner, budget, ledger, by_owner):
    """Why the model says ``need`` for ``owner`` cannot be granted now,
    or ``None`` when it should have been granted."""
    if ledger + need > budget:
        return "budget"
    quota = ac.quota_for(owner)
    if quota is None:
        return None
    if (quota.max_inflight is not None
            and len(by_owner.get(owner, [])) >= quota.max_inflight):
        return "inflight"
    if (quota.max_share is not None
            and sum(by_owner.get(owner, [])) + need
            > quota.max_share * budget):
        return "share"
    return None


class TestBudgetInvariant:
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("acquire"), st.integers(0, 12),
                      st.sampled_from([None, "a", "b"])),
            st.tuples(st.just("release"), st.integers(0, 30),
                      st.none()),
            st.tuples(st.just("double"), st.integers(0, 30),
                      st.none()),
        ),
        max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_sum_of_grants_never_exceeds_budget(self, script):
        """A script of non-blocking acquire/release calls against a
        model ledger: grants stay within the budget, every refusal is
        one the model justifies (the need can never fit, or the budget
        or a quota is held now), and a double release is caught
        without touching the ledger."""
        budget = 10
        ac = AdmissionController(budget)
        ac.set_quota("a", max_inflight=2)
        ac.set_quota("b", max_share=0.5)
        live: list = []
        released: list = []
        ledger = 0
        for op, arg, owner in script:
            if op == "acquire":
                share = ac.quota_for(owner)
                never = arg > budget or (
                    share is not None and share.max_share is not None
                    and arg > share.max_share * budget)
                if never:
                    with pytest.raises(AdmissionRejected):
                        ac.acquire(arg, owner=owner)
                    continue
                by_owner: dict = {}
                for g in live:
                    by_owner.setdefault(g.owner, []).append(g.amount)
                why = _refusal_justified(ac, arg, owner, budget, ledger,
                                         by_owner)
                if why is None:
                    g = ac.acquire(arg, owner=owner)
                    live.append(g)
                    ledger += arg
                else:
                    with pytest.raises(AdmissionTimeout):
                        ac.acquire(arg, owner=owner)
            elif op == "release" and live:
                g = live.pop(arg % len(live))
                ac.release(g)
                released.append(g)
                ledger -= g.amount
            elif op == "double" and released:
                with pytest.raises(AdmissionError):
                    ac.release(released[arg % len(released)])
            assert ac.granted == ledger
            assert 0 <= ac.granted <= budget
        assert ac.snapshot()["in_flight"] == len(live)
