"""The service's machine state stays bounded, and a mixed stream of
good and failing requests leaks nothing.

The service owns one device (and, pool on, one pool view) per
``(M, B)`` machine shape and one materialized copy per ``(instance,
M, B)`` at the catalog's current generation.  Sessions are names, so
neither the number of session names nor the number of catalog
replaces may grow that state.  Live objects are counted with ``gc``,
so the bound holds whatever container keeps them.
"""

import gc
import random

import pytest

import repro.core.planner as planner
from repro.data.instance import Instance
from repro.em.device import Device
from repro.em.file import EMFile
from repro.query import line_query
from repro.query.parse import QueryParseError
from repro.server import (AdmissionRejected, CatalogError, PoolView,
                          QueryService, ServiceError)
from repro.workloads import fig3_line3_instance

M, B = 8, 2  # the pinned line3_planner machine
#: Pool-on per-query I/O on that machine (BENCH_service.json): a cold
#: query also faults the 17 base pages in.
WARM, COLD = 62, 79
QUERY = "e1(v1,v2), e2(v2,v3), e3(v3,v4)"


def live(*classes) -> dict[type, int]:
    """How many objects of each class are alive after a collection."""
    gc.collect()
    counts = dict.fromkeys(classes, 0)
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return counts


def shared_generations(svc: QueryService) -> set[int]:
    """The catalog generations the pool holds shared frames of."""
    return {int(label.split("@g")[1].split("/")[0])
            for label, _page in svc.pool.pool._frames
            if label.startswith("shared/")}


def test_state_is_bounded_by_machines_not_session_names():
    """10^4 one-query session names and 3 replaces leave one device,
    one view and one materialized copy, and no stale frame."""
    n, replace_at = 10_000, {2_500, 5_000, 7_500}
    schemas, data = fig3_line3_instance(16, 16)
    classes = (Instance, EMFile, Device, PoolView)
    before = live(*classes)
    svc = QueryService(M=256, B=B, default_query_M=M, pool_frames=4096)
    svc.add_instance("default", schemas, data)
    q = line_query(3)
    totals = []
    with svc:
        for i in range(n):
            if i in replace_at:
                svc.add_instance("default", schemas, data, replace=True)
            totals.append(svc.execute(q, session=f"user-{i}")
                          .io["total"])
        grown = {c: k - before[c] for c, k in live(*classes).items()}
        generations = shared_generations(svc)
        doc = svc.stats()
        assert len(svc.sessions()) == n  # names only: see the bounds
    # One instance (three relation files) on one (M, B) machine; the
    # pool's anchor device is the one Device beyond the machines in use.
    assert grown == {Instance: 1, EMFile: 3, Device: 1 + 1, PoolView: 1}
    assert generations == {4}
    assert doc["materialized"] == [
        {"instance": "default", "generation": 4, "M": M, "B": B}]
    assert [(d["M"], d["B"], d["pooled"]) for d in doc["devices"]] == \
        [(M, B, True)]
    cold = {0} | replace_at
    assert totals == [COLD if i in cold else WARM for i in range(n)]


class EngineFault(RuntimeError):
    """Injected into the join kernel by the soak."""


def test_bounded_soak_leaks_nothing(monkeypatch):
    """A deterministic few-hundred-request mix of good queries, every
    typed failure and catalog replaces mid-stream."""
    schemas, data = fig3_line3_instance(16, 16)
    svc = QueryService(M=256, B=B, default_query_M=M, pool_frames=4096,
                       flight_records=64)
    entries = [svc.add_instance("default", schemas, data)]
    svc.set_quota("tiny", max_share=0.01)

    real_join = planner.line_join_auto
    faulty = False

    def join(*args, **kwargs):
        # The fault comes after the join's work: the query has read
        # base pages and holds deferred writes when it fails.
        report = real_join(*args, **kwargs)
        if faulty:
            raise EngineFault("injected")
        return report

    monkeypatch.setattr(planner, "line_join_auto", join)

    # kind -> (execute keywords, the exception it must raise)
    kinds = {
        "sticky": ({}, None),
        "one-shot": ({}, None),
        "other-machine": ({"M": 16, "B": 4}, None),
        "parse": ({"query": "e1(v1,v2"}, QueryParseError),
        "unknown-relation": ({"query": "e9(v1,v2)"}, CatalogError),
        "unknown-instance": ({"instance": "nope"}, CatalogError),
        "layout": ({"query": "e1(v1,wrong)"}, CatalogError),
        "quota": ({"tenant": "tiny"}, AdmissionRejected),
        "fault": ({}, EngineFault),
    }
    rng = random.Random(26)
    names = sorted(kinds)
    n = 300
    statuses, seen, warm, other_totals = [], set(), False, set()
    with svc:
        for i in range(n):
            if i % 75 == 37:
                entries.append(svc.add_instance("default", schemas, data,
                                                replace=True))
                warm = False
            kind = rng.choice(names)
            seen.add(kind)
            kwargs, exc = kinds[kind]
            kwargs = dict(kwargs)
            query = kwargs.pop("query", QUERY)
            session = None if kind == "one-shot" else f"user-{i % 7}"
            faulty = kind == "fault"
            if exc is not None:
                with pytest.raises(exc):
                    svc.execute(query, session=session, **kwargs)
                statuses.append("rejected" if kind == "quota"
                                else "error")
                warm = warm or kind == "fault"
                continue
            r = svc.execute(query, session=session, **kwargs)
            statuses.append("ok")
            assert r.results == 256
            if kind == "other-machine":
                other_totals.add(r.io["total"])
            else:
                # No failed query's deferred writes reach this one.
                assert r.io["total"] == (WARM if warm else COLD), (i, kind)
                warm = True
        adm = svc.admission.snapshot()
        flight = svc.flight.stats()
        kept = svc.flight.records()
        doc = svc.stats()
        generations = shared_generations(svc)
    assert seen == set(kinds) and len(other_totals) == 1
    assert adm["admitted"] == adm["released"]
    assert [e.pins for e in entries] == [0] * len(entries)
    # One record per request, newest kept, the loss accounted for.
    assert flight["seen"] == n
    assert flight["seen"] == flight["stored"] + flight["overwritten"]
    assert [r.status for r in reversed(kept)] == statuses[-len(kept):]
    assert [r.flight_id for r in reversed(kept)] == \
        list(range(n - len(kept) + 1, n + 1))
    # One instance on two machines, at the current generation only.
    current = entries[-1].generation
    assert len(doc["devices"]) <= 2
    assert {(m["instance"], m["generation"]) for m in
            doc["materialized"]} <= {("default", current)}
    assert len(doc["materialized"]) <= 2
    assert generations <= {current}


def test_minted_names_are_never_a_clients():
    """An unnamed session and a one-shot query take a ``~`` name that
    no client can create, before or after it is minted, so neither can
    reach or be recorded as a client's session."""
    schemas, data = fig3_line3_instance(16, 16)
    svc = QueryService(M=256, B=B, default_query_M=M)
    svc.add_instance("default", schemas, data)
    with svc:
        client = svc.session("s1")
        minted = svc.session()
        assert minted is not client and minted.name == "~s1"
        one_shot = svc.execute(QUERY)
        assert one_shot.session == "~s2"
        # The one-shot name is not registered, and a client cannot take it.
        for name in ("~s2", "~s9"):
            with pytest.raises(ServiceError, match="minted"):
                svc.session(name)
            with pytest.raises(ServiceError, match="minted"):
                svc.execute(QUERY, session=name)
        assert svc.session("~s1") is minted  # a live one is re-joined
        assert svc.session().name == "~s3"
        assert svc.sessions() == ["s1", "~s1", "~s3"]
        assert client.queries == 0
        assert [r.session for r in svc.flight.records()] == ["~s2"]
