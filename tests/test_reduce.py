"""Tests for the full reducer (in-memory and external-memory)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.relation

from repro import Device, Instance
from repro.core import full_reduce_em
from repro.internal import join_query
from repro.query import (elimination_order, full_reduce, is_fully_reduced,
                         line_query, lollipop_query, semijoin, star_query)
from repro.workloads import schemas_for, uniform_instance

from conftest import make_random_data, rows_of


class TestEliminationOrder:
    def test_covers_all_edges_once(self):
        steps = elimination_order(lollipop_query(3))
        assert sorted(s.edge for s in steps) == sorted(
            lollipop_query(3).edges)

    def test_parents_share_the_attr(self):
        q = star_query(3)
        for step in elimination_order(q):
            if step.parent is not None:
                assert step.shared_attr in q.edges[step.edge]
                assert step.shared_attr in q.edges[step.parent]

    def test_islands_have_no_parent(self):
        from repro.query import JoinQuery
        q = JoinQuery(edges={"e1": frozenset({"a", "b"}),
                             "e2": frozenset({"c", "d"})})
        steps = elimination_order(q)
        assert all(s.parent is None for s in steps)

    def test_cyclic_query_rejected(self):
        import pytest
        from repro.query import triangle_query
        with pytest.raises(ValueError):
            elimination_order(triangle_query())


class TestSemijoin:
    def test_basic_filter(self):
        left = [(1, 10), (2, 20), (3, 30)]
        right = [(20, "x"), (30, "y")]
        out = semijoin(left, ("a", "b"), right, ("b", "c"), "b")
        assert out == [(2, 20), (3, 30)]


class TestFullReduce:
    def test_removes_dangling_tuples(self):
        q = line_query(3)
        schemas = schemas_for(q)
        data = {"e1": [(1, 2), (9, 99)],        # (9,99) dangles
                "e2": [(2, 3)],
                "e3": [(3, 4), (77, 7)]}        # (77,7) dangles
        reduced = full_reduce(q, data, schemas)
        assert reduced["e1"] == [(1, 2)]
        assert reduced["e3"] == [(3, 4)]

    def test_reduced_instance_unchanged(self):
        q = line_query(2)
        schemas = schemas_for(q)
        data = {"e1": [(1, 2)], "e2": [(2, 3)]}
        assert is_fully_reduced(q, data, schemas)

    def test_empty_relation_empties_component(self):
        q = line_query(2)
        schemas = schemas_for(q)
        data = {"e1": [(1, 2)], "e2": []}
        reduced = full_reduce(q, data, schemas)
        assert reduced["e1"] == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_reduction_preserves_join_and_all_tuples_participate(
            self, seed, n):
        q = line_query(n)
        schemas, data = make_random_data(q, 15, 4, seed)
        reduced = full_reduce(q, data, schemas)
        # Join results are unchanged.
        assert join_query(q, data, schemas) == join_query(
            q, reduced, schemas)
        # After reduction every remaining tuple participates.
        results = join_query(q, reduced, schemas)
        for e, attrs in schemas.items():
            for t in reduced[e]:
                wanted = set(zip(attrs, t))
                assert any(wanted <= set(r) for r in results)

    def test_idempotent(self):
        q = star_query(2)
        schemas, data = make_random_data(q, 12, 3, seed=5)
        once = full_reduce(q, data, schemas)
        twice = full_reduce(q, once, schemas)
        assert {e: sorted(t) for e, t in once.items()} \
            == {e: sorted(t) for e, t in twice.items()}


class TestFullReduceEM:
    def test_matches_in_memory_reducer(self):
        q = line_query(4)
        schemas, data = make_random_data(q, 20, 4, seed=9)
        device = Device(M=16, B=4)
        inst = Instance.from_dicts(device, schemas, data)
        reduced_em = full_reduce_em(q, inst)
        expected = full_reduce(q, data, schemas)
        for e in q.edges:
            assert sorted(rows_of(reduced_em[e])) == sorted(expected[e])

    def test_charges_io(self):
        q = line_query(3)
        schemas, data = make_random_data(q, 30, 4, seed=2)
        device = Device(M=16, B=4)
        inst = Instance.from_dicts(device, schemas, data)
        full_reduce_em(q, inst)
        assert device.stats.total > 0

    def test_cost_is_linearish(self):
        # Õ(N/B): a few sort+scan passes, not output-sized work.
        q = line_query(3)
        schemas, data = make_random_data(q, 60, 3, seed=3)
        device = Device(M=32, B=8)
        inst = Instance.from_dicts(device, schemas, data)
        full_reduce_em(q, inst)
        n_total = sum(len(t) for t in data.values())
        assert device.stats.total <= 20 * n_total / device.B + 40

    @pytest.mark.parametrize("q, sorts", [
        (line_query(3), 5), (line_query(4), 8), (star_query(3), 8)],
        ids=["L3", "L4", "star3"])
    def test_each_sorted_copy_is_kept(self, monkeypatch, q, sorts):
        # A semijoin sorts both sides and keeps both: the filter's
        # sorted copy replaces it, so a relation already sorted on the
        # next semijoin's attribute is not sorted again.
        calls = []
        real = repro.data.relation.external_sort

        def counting_sort(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.data.relation, "external_sort",
                            counting_sort)
        schemas, data = uniform_instance(q, 200, 30, seed=1)
        full_reduce_em(q, Instance.from_dicts(Device(M=32, B=4), schemas,
                                              data))
        assert len(calls) == sorts
