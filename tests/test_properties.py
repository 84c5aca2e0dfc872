"""Cross-algorithm property tests on random acyclic hypergraphs.

The strongest correctness statement in the suite: on arbitrary random
Berge-acyclic queries and instances, every external-memory algorithm
(Algorithm 2 under several choosers, the planner, the Yannakakis
baseline) emits exactly the oracle's result set, with exact counts (no
duplicates) — and structural invariants (Lemma 1, GenS well-formedness)
hold along the way.  The external-memory reducer is held to the
in-memory one, relation by relation, and every sort order it reports
must be physically true of the pages it returns.  The exact price of
every peel plan equals what a trial run of that plan is charged.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Device, Instance
from repro.core import (AssignmentEmitter, CountingEmitter, acyclic_join,
                        acyclic_join_best, clone_instance, enumerate_plans,
                        execute, full_reduce_em, plan_chooser,
                        smallest_leaf_chooser, yannakakis_em)
from repro.core.price import price_plan, snapshot
from repro.em import PoolConfig
from repro.internal import generic_join, join_query, yannakakis
from repro.obs import Tracer
from repro.query import full_reduce, gens_all, is_berge_acyclic, JoinQuery
from repro.query.classify import has_island_bud_or_leaf
from repro.workloads import skewed_instance, uniform_instance

from conftest import rows_of
from test_classify import random_acyclic_query


@st.composite
def acyclic_query_and_data(draw, max_edges=5, max_rows=10, domain=3):
    """A random Berge-acyclic query with random data.

    Edges are grown attached to at most one existing attribute, which
    keeps the attribute-edge incidence graph a forest.
    """
    n_edges = draw(st.integers(1, max_edges))
    edges: dict[str, frozenset[str]] = {}
    attrs: list[str] = []
    counter = 0
    for i in range(n_edges):
        members: set[str] = set()
        if attrs and draw(st.booleans()):
            members.add(draw(st.sampled_from(attrs)))
        n_fresh = draw(st.integers(0 if members else 1, 2))
        for _ in range(n_fresh):
            a = f"x{counter}"
            counter += 1
            attrs.append(a)
            members.add(a)
        edges[f"e{i}"] = frozenset(members)
    query = JoinQuery(edges=edges)

    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    schemas = {e: tuple(sorted(a)) for e, a in edges.items()}
    data = {}
    for e, cols in schemas.items():
        n_rows = draw(st.integers(1, max_rows))
        rows = {tuple(rng.randrange(domain) for _ in cols)
                for _ in range(n_rows)}
        data[e] = sorted(rows)
    return query, schemas, data


@settings(max_examples=40, deadline=None)
@given(acyclic_query_and_data())
def test_acyclic_join_matches_oracle_on_random_hypergraphs(case):
    query, schemas, data = case
    assert is_berge_acyclic(query)
    oracle = join_query(query, data, schemas)
    device = Device(M=4, B=2)
    inst = Instance.from_dicts(device, schemas, data)
    em = AssignmentEmitter(schemas)
    acyclic_join(query, inst, em)
    assert em.assignment_set() == oracle
    assert em.count == len(oracle)


@settings(max_examples=25, deadline=None)
@given(acyclic_query_and_data(max_edges=4))
def test_planner_and_baseline_agree_everywhere(case):
    query, schemas, data = case
    oracle = join_query(query, data, schemas)

    device = Device(M=4, B=2)
    inst = Instance.from_dicts(device, schemas, data)
    em1 = AssignmentEmitter(schemas)
    execute(query, inst, em1, plan_limit=4)
    assert em1.assignment_set() == oracle
    assert em1.count == len(oracle)

    device2 = Device(M=4, B=2)
    inst2 = Instance.from_dicts(device2, schemas, data)
    em2 = AssignmentEmitter(schemas)
    yannakakis_em(query, inst2, em2)
    assert em2.assignment_set() == oracle
    assert em2.count == len(oracle)


@settings(max_examples=25, deadline=None)
@given(acyclic_query_and_data(max_edges=4))
def test_internal_algorithms_agree(case):
    query, schemas, data = case
    a = join_query(query, data, schemas)
    b = generic_join(query, data, schemas)
    c = yannakakis(query, data, schemas)
    assert a == b == c


@settings(max_examples=40, deadline=None)
@given(acyclic_query_and_data(max_edges=5))
def test_structural_invariants(case):
    query, _, _ = case
    # Lemma 1 on the query and on every edge-deletion residue.
    q = query
    while q.edges:
        assert has_island_bud_or_leaf(q)
        q = q.drop_edges([q.edge_names[0]])


@settings(max_examples=15, deadline=None)
@given(acyclic_query_and_data(max_edges=4))
def test_gens_branches_are_wellformed(case):
    query, _, _ = case
    all_edges = frozenset(query.edges)
    branches = gens_all(query)
    assert branches
    for branch in branches:
        # every S is a set of edges of Q; the empty set is present
        assert frozenset() in branch
        for s in branch:
            assert s <= all_edges


@settings(max_examples=20, deadline=None)
@given(acyclic_query_and_data(max_edges=4))
def test_chooser_independence(case):
    """Any leaf-choice strategy yields the same result set."""
    query, schemas, data = case
    device = Device(M=4, B=2)
    inst = Instance.from_dicts(device, schemas, data)
    em1 = AssignmentEmitter(schemas)
    acyclic_join(query, inst, em1)

    device2 = Device(M=4, B=2)
    inst2 = Instance.from_dicts(device2, schemas, data)
    em2 = AssignmentEmitter(schemas)
    acyclic_join(query, inst2, em2, chooser=smallest_leaf_chooser)
    assert em1.assignment_set() == em2.assignment_set()
    assert em1.count == em2.count


@settings(max_examples=40, deadline=None)
@given(acyclic_query_and_data(), st.sampled_from([(4, 2), (8, 2), (16, 4)]))
def test_reducer_matches_oracle_and_keeps_its_sort_orders(case, mb):
    query, schemas, data = case
    M, B = mb
    expected = full_reduce(query, data, schemas)
    reduced = full_reduce_em(query,
                             Instance.from_dicts(Device(M=M, B=B), schemas,
                                                 data))
    for e in query.edges:
        rel = reduced[e]
        tuples = rows_of(rel)
        assert sorted(tuples) == sorted(expected[e])
        if rel.sorted_on is not None:
            keys = list(map(rel.key(rel.sorted_on), tuples))
            assert keys == sorted(keys)


@settings(max_examples=30, deadline=None)
@given(acyclic_query_and_data(max_edges=4),
       st.sampled_from([(4, 2), (8, 2), (16, 4)]), st.booleans())
def test_execute_under_strict_memory_matches_oracle(case, mb, pool):
    query, schemas, data = case
    M, B = mb
    oracle = join_query(query, data, schemas)
    config = PoolConfig(frames=max(2, M // B)) if pool else None
    device = Device(M=M, B=B, strict_memory=True, buffer_pool=config)
    em = AssignmentEmitter(schemas)
    execute(query, Instance.from_dicts(device, schemas, data), em)
    assert em.assignment_set() == oracle
    assert em.count == len(oracle)


@settings(max_examples=30, deadline=None)
@given(acyclic_query_and_data(max_edges=4, max_rows=24),
       st.sampled_from([(4, 1), (4, 2), (8, 2), (6, 3)]))
def test_a_tracer_changes_no_count_of_execute(case, mb):
    """Pool off, only a traced run replays the heap merge's and the
    semijoin cursor's charge order (``Device.order_seen``); the reads,
    writes, phase totals, memory peak and results are the same
    without one."""
    query, schemas, data = case
    M, B = mb
    runs = []
    for observers in ([], [Tracer(capacity=16)]):
        device = Device(M=M, B=B, observers=observers)
        em = CountingEmitter()
        execute(query, Instance.from_dicts(device, schemas, data), em)
        runs.append((device.stats.reads, device.stats.writes,
                     device.phases.report(), device.memory.peak,
                     em.signature()))
    assert runs[0] == runs[1]


@settings(max_examples=60, deadline=None)
@given(random_acyclic_query(), st.sampled_from(["uniform", "skewed"]),
       st.sampled_from([(4, 1), (4, 2), (6, 3), (8, 2), (16, 4)]),
       st.booleans(), st.integers(0, 10**6))
def test_every_plan_is_priced_at_its_trial_run_cost(query, gen, mb, reduce,
                                                     seed):
    """The walk prices each plan at exactly its trial run's reads and
    writes, and every trial emits the real run's results."""
    M, B = mb
    sizes = {e: min(14, 3 ** len(a)) for e, a in query.edges.items()}
    if gen == "uniform":
        schemas, data = uniform_instance(query, sizes, 3, seed=seed)
    else:
        schemas, data = skewed_instance(query, sizes, 6, hot_fraction=0.7,
                                        hot_values=1, seed=seed)
    inst = Instance.from_dicts(Device(M=M, B=B), schemas, data)
    if reduce:
        inst = full_reduce_em(query, inst)
    real = CountingEmitter()
    best = acyclic_join_best(query, inst, real, limit=8)
    plans = enumerate_plans(query, limit=8) or [{}]
    rows = snapshot(inst)
    for plan, run in zip(plans, best.runs, strict=True):
        dev, trial_inst = clone_instance(inst)
        trial = CountingEmitter()
        acyclic_join(query, trial_inst, trial, chooser=plan_chooser(plan))
        price = price_plan(query, rows, plan, M, B)
        assert (price.reads, price.writes) == \
            (run.reads, run.writes) == (dev.stats.reads, dev.stats.writes)
        assert trial.signature() == real.signature() == \
            (run.emitted, run.checksum)
