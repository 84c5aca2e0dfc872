"""Tests for Algorithm 2 (AcyclicJoin) — the paper's main contribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Device, Instance
from repro.core import (AssignmentEmitter, CountingEmitter, acyclic_join,
                        acyclic_join_best, clone_instance, end_chooser,
                        enumerate_plans, first_leaf_chooser, full_reduce_em,
                        largest_leaf_chooser, plan_chooser,
                        smallest_leaf_chooser)
from repro.em import PoolConfig
from repro.internal import join_query
from repro.obs import SpanProfiler
from repro.query import (JoinQuery, dumbbell_query, line_query,
                         lollipop_query, parse_query, star_query,
                         triangle_query)
from repro.workloads import (dumbbell_worstcase_instance,
                             lollipop_worstcase_instance, schemas_for,
                             skewed_instance, star_worstcase_instance,
                             uniform_instance)

from conftest import make_random_data, rows_of, run_and_compare


QUERY_ZOO = {
    "L2": line_query(2),
    "L3": line_query(3),
    "L4": line_query(4),
    "L5": line_query(5),
    "star2": star_query(2),
    "star4": star_query(4),
    "lollipop3": lollipop_query(3),
    "dumbbell": dumbbell_query(3, 6),
}

MEMO_ZOO = {f"L{k}": line_query(k) for k in (3, 4, 5)} | {
    f"star{k}": star_query(k) for k in (2, 3, 4)}


class TestCorrectness:
    @pytest.mark.parametrize("name", sorted(QUERY_ZOO))
    def test_uniform_random(self, name):
        q = QUERY_ZOO[name]
        schemas, data = make_random_data(q, 25, 5, seed=hash(name) % 997)
        run_and_compare(q, schemas, data, acyclic_join)

    @pytest.mark.parametrize("name", ["L3", "L4", "star2", "lollipop3"])
    def test_skewed_heavy_values(self, name):
        # Small M makes the hot values heavy, exercising lines 14-20.
        q = QUERY_ZOO[name]
        schemas, data = skewed_instance(q, 40, 8, hot_fraction=0.7,
                                        hot_values=1, seed=3)
        run_and_compare(q, schemas, data, acyclic_join, M=4, B=2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(sorted(QUERY_ZOO)))
    def test_property_random_instances(self, seed, name):
        q = QUERY_ZOO[name]
        schemas, data = make_random_data(q, 12, 4, seed)
        run_and_compare(q, schemas, data, acyclic_join, M=8, B=2)

    def test_empty_relation(self):
        q = line_query(3)
        schemas = schemas_for(q)
        data = {"e1": [(1, 2)], "e2": [], "e3": [(3, 4)]}
        run_and_compare(q, schemas, data, acyclic_join)

    def test_empty_query_emits_nothing(self, small_device):
        em = CountingEmitter()
        acyclic_join(JoinQuery(edges={}), Instance({}), em)
        assert em.count == 0

    def test_single_relation_emits_every_tuple(self, small_device):
        q = line_query(1)
        inst = Instance.from_dicts(small_device, {"e1": ("v1", "v2")},
                                   {"e1": [(1, 2), (3, 4)]})
        em = CountingEmitter()
        acyclic_join(q, inst, em)
        assert em.count == 2


class TestStructuralPaths:
    def test_island_path_cross_product(self, small_device):
        q = JoinQuery(edges={"e1": frozenset({"a", "b"}),
                             "e2": frozenset({"c", "d"})})
        schemas = {"e1": ("a", "b"), "e2": ("c", "d")}
        data = {"e1": [(i, i) for i in range(20)],
                "e2": [(j, j) for j in range(20)]}
        run_and_compare(q, schemas, data, acyclic_join, M=8, B=2)

    def test_bud_created_by_heavy_peel(self):
        # Star with one heavy core value: peeling a petal with a heavy
        # join value removes the attribute, turning sibling petals of a
        # 2-attr core into buds.
        q = star_query(2)
        schemas = schemas_for(q)
        data = {"e0": [(0, j) for j in range(12)],       # (v1, v2)
                "e1": [(i, 0) for i in range(12)],        # (u1, v1)
                "e2": [(i, j) for i in range(3) for j in range(4)]}
        # e1 layout is sorted(("v1","u1")) = ("u1","v1"); e0 ("v1","v2")
        run_and_compare(q, schemas, data, acyclic_join, M=4, B=2)

    def test_pre_existing_bud_with_reconstruction(self, small_device):
        # A query containing a bud from the start: its tuple must appear
        # in every emitted result (emit-model exactness).
        q = JoinQuery(edges={"b": frozenset({"v"}),
                             "e1": frozenset({"v", "u"})})
        schemas = {"b": ("v",), "e1": ("u", "v")}
        data = {"b": [(1,), (2,)],
                "e1": [(10, 1), (11, 1), (12, 3)]}
        device = Device(M=4, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        em = AssignmentEmitter(schemas)
        acyclic_join(q, inst, em)
        oracle = join_query(q, data, schemas)
        assert em.assignment_set() == oracle
        assert em.count == len(oracle) == 2

    def test_bud_filter_blocks_unmatched_values(self, small_device):
        # The correctness fix: bud values must constrain the join even
        # though the paper's pseudocode drops the bud silently.
        q = JoinQuery(edges={"b": frozenset({"v"}),
                             "e1": frozenset({"v", "u"}),
                             "e2": frozenset({"u", "w"})})
        schemas = {"b": ("v",), "e1": ("u", "v"), "e2": ("u", "w")}
        data = {"b": [(1,)],
                "e1": [(10, 1), (20, 2)],      # (20, 2) must not join
                "e2": [(10, 5), (20, 6)]}
        run_and_compare(q, schemas, data, acyclic_join, M=4, B=2)


class TestChoosers:
    def test_all_choosers_agree_on_results(self):
        q = line_query(5)
        schemas, data = make_random_data(q, 20, 4, seed=8)
        oracle = join_query(q, data, schemas)
        for chooser in (first_leaf_chooser, smallest_leaf_chooser,
                        largest_leaf_chooser, end_chooser("L"),
                        end_chooser("R"), end_chooser("LRLR")):
            device = Device(M=8, B=2)
            inst = Instance.from_dicts(device, schemas, data)
            em = AssignmentEmitter(schemas)
            acyclic_join(q, inst, em, chooser=chooser)
            assert em.assignment_set() == oracle
            assert em.count == len(oracle)

    def test_invalid_chooser_rejected(self, small_device):
        q = line_query(3)
        schemas, data = make_random_data(q, 10, 3, seed=0)
        inst = Instance.from_dicts(small_device, schemas, data)
        with pytest.raises(ValueError):
            acyclic_join(q, inst, CountingEmitter(),
                         chooser=lambda _q, _i: "e2")  # e2 is not a leaf


class TestValidation:
    def test_cyclic_query_rejected(self, small_device):
        q = triangle_query()
        schemas, data = make_random_data(q, 5, 3, seed=0)
        inst = Instance.from_dicts(small_device, schemas, data)
        with pytest.raises(Exception):
            acyclic_join(q, inst, CountingEmitter())

    def test_missing_relation_rejected(self, small_device):
        q = line_query(2)
        inst = Instance.from_dicts(small_device, {"e1": ("v1", "v2")},
                                   {"e1": [(1, 2)]})
        with pytest.raises(ValueError):
            acyclic_join(q, inst, CountingEmitter())

    def test_misaligned_schema_rejected(self, small_device):
        q = line_query(2)
        inst = Instance.from_dicts(
            small_device, {"e1": ("v1", "zzz"), "e2": ("v2", "v3")},
            {"e1": [(1, 2)], "e2": [(2, 3)]})
        with pytest.raises(ValueError):
            acyclic_join(q, inst, CountingEmitter())


class TestPlans:
    def test_plan_counts_for_paper_examples(self):
        # L3: two branches of GenS; four structure plans (two per end
        # choice at each stage) collapse to 4.
        assert len(enumerate_plans(line_query(3))) == 4
        assert len(enumerate_plans(line_query(4))) == 12
        assert len(enumerate_plans(line_query(5))) == 52

    def test_limit_truncates_deterministically(self):
        a = enumerate_plans(line_query(6), limit=10)
        b = enumerate_plans(line_query(6), limit=10)
        assert a == b and len(a) == 10

    def test_equal_queries_share_plans_but_not_their_dicts(self):
        text = "c(a,b,d), p1(a,x), p2(b,y), p3(d,z)"
        first, second = parse_query(text), parse_query(text)
        assert first is not second
        plans = enumerate_plans(first, limit=16)
        assert enumerate_plans(second, limit=16) == plans
        # A caller's edits stay its own.
        pristine = [dict(p) for p in plans]
        plans[0].clear()
        plans.append({})
        again = enumerate_plans(second, limit=16)
        assert again == pristine
        assert again[0] is not plans[0]
        # A different limit is a different enumeration.
        assert len(enumerate_plans(second, limit=2)) == 2

    def test_plans_disagree_on_io_but_not_results(self):
        q = line_query(4)
        # asymmetric sizes make peel order matter
        schemas = schemas_for(q)
        data = {"e1": [(i, i % 2) for i in range(40)],
                "e2": [(i % 2, i % 3) for i in range(6)],
                "e3": [(i % 3, i) for i in range(40)],
                "e4": [(i, i) for i in range(40)]}
        device = Device(M=4, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        best = acyclic_join_best(q, inst)
        ios = {r.io for r in best.runs}
        counts = {r.emitted for r in best.runs}
        assert len(counts) == 1
        assert best.best.io == min(ios)
        assert best.round_robin_io == len(best.runs) * best.best.io

    def test_best_run_emits_into_caller_emitter(self):
        q = line_query(3)
        schemas, data = make_random_data(q, 15, 4, seed=4)
        device = Device(M=8, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        em = AssignmentEmitter(schemas)
        before = device.stats.total
        acyclic_join_best(q, inst, em)
        assert em.assignment_set() == join_query(q, data, schemas)
        assert device.stats.total > before  # best branch charged here

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(sorted(MEMO_ZOO)),
           st.sampled_from([(4, 2), (8, 2), (8, 4)]),
           st.sampled_from([4, 16]))
    def test_shared_runs_match_fresh_runs(self, seed, name, mb, limit):
        # Plans that agree on every leaf choice the walk asked for share
        # one price; each reported run must still equal a fresh run of
        # its own plan, and every run reports the winner's results.
        q = MEMO_ZOO[name]
        M, B = mb
        schemas, data = make_random_data(q, 12, 4, seed)
        inst = Instance.from_dicts(Device(M=M, B=B), schemas, data)
        best = acyclic_join_best(q, inst, limit=limit)
        assert [r.plan for r in best.runs] == enumerate_plans(q, limit)
        for run in best.runs:
            dev, fresh = clone_instance(inst)
            em = CountingEmitter()
            acyclic_join(q, fresh, em, chooser=plan_chooser(run.plan))
            assert ((run.reads, run.writes, run.emitted, run.checksum)
                    == (dev.stats.reads, dev.stats.writes, em.count,
                        em.checksum))

    @pytest.mark.parametrize("pool", [None, PoolConfig()], ids=["off", "on"])
    def test_without_emitter_counts_results_charging_nothing(self, pool):
        q = star_query(3)
        schemas, data = skewed_instance(q, 40, 6, seed=2)
        device = Device(M=8, B=2, buffer_pool=pool)
        inst = Instance.from_dicts(device, schemas, data)
        best = acyclic_join_best(q, inst, limit=8)
        assert device.stats.total == 0
        assert device.stats.cache.hits + device.stats.cache.misses == 0
        oracle = len(join_query(q, data, schemas))
        assert {(r.emitted, r.checksum) for r in best.runs} == \
            {(best.best.emitted, best.best.checksum)}
        em = CountingEmitter()
        acyclic_join(q, inst, em)
        assert best.best.emitted == em.count == oracle
        assert best.best.checksum == em.checksum

    def test_theorem4_star_runs_four_distinct_branches(self):
        schemas, data = star_worstcase_instance([16, 16, 16])
        profiler = SpanProfiler()
        device = Device(M=64, B=8, observers=[profiler])
        inst = Instance.from_dicts(device, schemas, data)
        em = CountingEmitter()
        best = acyclic_join_best(star_query(3), inst, em, limit=16)
        assert len(best.runs) == 16
        (root,) = profiler.roots
        assert root.name == "acyclic_join_best"
        assert root.attrs == {"branches": 16, "branches_priced": 4}
        # The winner's run nests under the pricing span.
        assert [c.name for c in root.children] == ["acyclic_join"]
        assert (best.best_index, best.io, best.round_robin_io) == (1, 40, 640)
        assert device.stats.total == best.io
        assert em.count == 16 ** 3

    def test_clone_instance_copies_freely(self):
        q = line_query(2)
        schemas, data = make_random_data(q, 10, 3, seed=1)
        device = Device(M=8, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        dev2, inst2 = clone_instance(inst)
        assert dev2.stats.total == 0
        assert sorted(rows_of(inst2["e1"])) == sorted(data["e1"])
        # The copy keeps physical order and the sort metadata with it.
        reduced = full_reduce_em(q, inst)
        _, inst3 = clone_instance(reduced)
        for e in q.edges:
            assert inst3[e].sorted_on == reduced[e].sorted_on is not None
            assert inst3[e].fixed == reduced[e].fixed
            assert rows_of(inst3[e]) == rows_of(reduced[e])

    @pytest.mark.parametrize("q, gen, M", [
        (line_query(4), uniform_instance, 32),
        (star_query(3), skewed_instance, 16)], ids=["L4", "star3-skewed"])
    def test_real_run_is_charged_the_explored_best(self, q, gen, M):
        # Exploration must see the reduced inputs' sort orders, or it
        # prices sorts the real run skips and picks by a cost never paid.
        schemas, data = gen(q, 200, 30, seed=1)
        device = Device(M=M, B=4)
        inst = full_reduce_em(q, Instance.from_dicts(device, schemas, data))
        before = device.stats.total
        best = acyclic_join_best(q, inst, CountingEmitter(), limit=16)
        assert device.stats.total - before == best.io


def _pinned_case(name):
    """``(query, schemas, data, M, B, limit)`` of a pinned worst case."""
    if name == "star":  # Theorem 4's construction
        schemas, data = star_worstcase_instance([16, 16, 16])
        return star_query(3), schemas, data, 64, 8, 16
    if name == "lollipop":  # Section 7.2, case (ii)
        q = lollipop_query(3)
        schemas, data = lollipop_worstcase_instance(q, case="petals",
                                                    scale=6)
        return q, schemas, data, 4, 2, 24
    q = dumbbell_query(3, 6)  # Appendix A.4, both cores grown
    schemas, data = dumbbell_worstcase_instance(q, case="cores", scale=3)
    return q, schemas, data, 4, 2, 24


class TestTrialRunPins:
    """Every plan's price, pinned after ``full_reduce_em``.

    The winner's cost alone would miss a price that loses an input's
    ``sorted_on`` or a trial copy that shares state with the real
    instance; the per-plan list and the winner's index do not.  Plans
    are priced pool off, so a pooled device prices and picks as an
    unpooled one does; only the winner's real run hits the pool.
    """

    PINS = {
        ("star", False): (1, [28, 26] * 8),
        ("star", True): (1, [28, 26] * 8),
        ("lollipop", False): (0, [243] * 24),
        ("lollipop", True): (0, [243] * 24),
        ("dumbbell", False): (0, [56, 58] * 12),
        ("dumbbell", True): (0, [56, 58] * 12),
    }

    #: The pooled winner's real charge, counting the write-backs of
    #: the pool flushed after the join (the reducer's dirty pages too).
    POOLED_REAL = {"star": 14, "lollipop": 234, "dumbbell": 46}

    @pytest.mark.parametrize("name, pooled", sorted(PINS))
    def test_per_plan_trial_io(self, name, pooled):
        q, schemas, data, M, B, limit = _pinned_case(name)
        device = Device(M=M, B=B,
                        buffer_pool=PoolConfig() if pooled else None)
        inst = full_reduce_em(q, Instance.from_dicts(device, schemas, data))
        em = CountingEmitter()
        before = device.stats.total
        best = acyclic_join_best(q, inst, em, limit=limit)
        device.flush_pool()
        assert (best.best_index, [r.io for r in best.runs]) == \
            self.PINS[name, pooled]
        assert device.stats.total - before == (
            self.POOLED_REAL[name] if pooled else best.io)
        assert em.count == len(join_query(q, data, schemas))


class TestMemoryBudget:
    def test_peak_memory_within_constant_times_m(self):
        # The paper's model grants c·M memory; the recursion must not
        # hold more than a small constant times M.
        q = line_query(4)
        schemas, data = make_random_data(q, 60, 6, seed=7)
        for M in (8, 16):
            device = Device(M=M, B=2)
            inst = Instance.from_dicts(device, schemas, data)
            acyclic_join(q, inst, CountingEmitter())
            assert device.memory.peak <= 8 * M
