"""Tests for the Section 7.2/7.3 guided peel strategies."""

import pytest

from repro import Device, Instance
from repro.core import (AssignmentEmitter, CountingEmitter, acyclic_join,
                        acyclic_join_best, smallest_leaf_chooser)
from repro.core.guided import (dumbbell_paper_chooser,
                               lollipop_paper_chooser, priority_chooser)
from repro.internal import join_query
from repro.obs import SpanProfiler
from repro.query import dumbbell_query, line_query, lollipop_query
from repro.workloads import cross_product_instance, lollipop_worstcase_instance

from conftest import make_random_data


class TestLollipopChooser:
    def test_priority_flips_on_core_vs_stick_size(self):
        q = lollipop_query(3)
        # N0 (core e0) small vs stick e3: dom sizes control them.
        small_core = cross_product_instance(
            q, {a: (3 if a.startswith("u") else 1)
                for a in q.attributes})
        schemas, data = small_core
        device = Device(M=4, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        chooser = lollipop_paper_chooser(q, inst)
        # N0 = 1 <= N3 = 1: tip first
        assert chooser(q, inst) == "e4"

    def test_correct_results(self):
        q = lollipop_query(3)
        schemas, data = make_random_data(q, 15, 4, seed=2)
        oracle = join_query(q, data, schemas)
        device = Device(M=4, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        em = AssignmentEmitter(schemas)
        acyclic_join(q, inst, em,
                     chooser=lollipop_paper_chooser(q, inst))
        assert em.assignment_set() == oracle
        assert em.count == len(oracle)

    def test_guided_near_best_branch_on_worstcase(self):
        q = lollipop_query(3)
        schemas, data = lollipop_worstcase_instance(q, case="petals",
                                                    scale=6)
        device = Device(M=4, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        best = acyclic_join_best(q, inst, limit=24)

        device2 = Device(M=4, B=2)
        inst2 = Instance.from_dicts(device2, schemas, data)
        acyclic_join(q, inst2, CountingEmitter(),
                     chooser=lollipop_paper_chooser(q, inst2))
        assert device2.stats.total <= 2.0 * best.io

    def test_rejects_non_lollipop(self):
        q = line_query(3)
        schemas, data = make_random_data(q, 5, 3, seed=0)
        device = Device(M=4, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        with pytest.raises(ValueError):
            lollipop_paper_chooser(q, inst)


class TestDumbbellChooser:
    def test_correct_results(self):
        q = dumbbell_query(3, 6)
        schemas, data = make_random_data(q, 10, 3, seed=4)
        oracle = join_query(q, data, schemas)
        device = Device(M=4, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        em = AssignmentEmitter(schemas)
        acyclic_join(q, inst, em,
                     chooser=dumbbell_paper_chooser(q, inst))
        assert em.assignment_set() == oracle

    def test_rejects_non_dumbbell(self):
        q = lollipop_query(3)
        schemas, data = make_random_data(q, 5, 3, seed=0)
        device = Device(M=4, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        with pytest.raises(ValueError):
            dumbbell_paper_chooser(q, inst)


class TestPlannerStrategy:
    def test_guided_label_and_results(self):
        q = lollipop_query(3)
        schemas, data = make_random_data(q, 12, 4, seed=6)
        oracle = join_query(q, data, schemas)
        profiler = SpanProfiler()
        device = Device(M=8, B=2, observers=[profiler])
        inst = Instance.from_dicts(device, schemas, data)
        em = AssignmentEmitter(schemas)
        chooser = lollipop_paper_chooser(q, inst)
        acyclic_join(q, inst, em, chooser=chooser)
        assert em.assignment_set() == oracle
        # The first peel is the Section 7.2 rule's first choice.
        first = next(s for s in profiler.iter_spans()
                     if s.name == "peel_leaf")
        assert first.attrs["edge"] == chooser(q, inst)

    def test_guided_general_acyclic_uses_greedy(self):
        from repro.query import JoinQuery
        q = JoinQuery(edges={
            "e1": frozenset({"a", "b"}),
            "e2": frozenset({"b", "c", "d"}),
            "e3": frozenset({"d", "e", "f"}),
            "e4": frozenset({"c", "u4"}),
            "e5": frozenset({"e", "u5"}),
            "e6": frozenset({"f", "u6"}),
        })
        schemas, data = make_random_data(q, 6, 3, seed=1)
        oracle = join_query(q, data, schemas)
        device = Device(M=4, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        em = AssignmentEmitter(schemas)
        acyclic_join(q, inst, em, chooser=smallest_leaf_chooser)
        assert em.assignment_set() == oracle

    def test_priority_chooser_fallback(self):
        q = line_query(3)
        schemas, data = make_random_data(q, 8, 3, seed=0)
        device = Device(M=4, B=2)
        inst = Instance.from_dicts(device, schemas, data)
        em = AssignmentEmitter(schemas)
        # priority names no actual leaf -> falls back to first leaf
        acyclic_join(q, inst, em, chooser=priority_chooser(["zz"]))
        assert em.assignment_set() == join_query(q, data, schemas)
