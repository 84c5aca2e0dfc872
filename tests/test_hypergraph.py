"""Unit tests for query hypergraphs and Berge-acyclicity (Section 1.3)."""

import copy
import pickle

import pytest

from repro.query import (CyclicQueryError, JoinQuery, dumbbell_query,
                         is_berge_acyclic, line_query, lollipop_query,
                         require_berge_acyclic, star_query, triangle_query)


class TestBuilders:
    def test_line_query_structure(self):
        q = line_query(4)
        assert q.edges["e2"] == frozenset({"v2", "v3"})
        assert len(q) == 4
        assert q.attributes == frozenset(f"v{i}" for i in range(1, 6))

    def test_line_query_sizes(self):
        q = line_query(3, [10, 20, 30])
        assert q.size("e2") == 20

    def test_star_query_structure(self):
        q = star_query(3)
        assert q.edges["e0"] == frozenset({"v1", "v2", "v3"})
        assert q.edges["e2"] == frozenset({"v2", "u2"})

    def test_star_sizes_core_first(self):
        q = star_query(2, [5, 10, 20])
        assert q.size("e0") == 5 and q.size("e2") == 20

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            line_query(0)
        with pytest.raises(ValueError):
            star_query(0)
        with pytest.raises(ValueError):
            line_query(3, [1, 2])
        with pytest.raises(ValueError):
            lollipop_query(1)
        with pytest.raises(ValueError):
            dumbbell_query(2, 3)

    def test_sizes_for_unknown_edge_rejected(self):
        with pytest.raises(ValueError):
            JoinQuery(edges={"e1": frozenset({"a"})}, sizes={"e9": 3})


class TestAcyclicity:
    @pytest.mark.parametrize("q", [
        line_query(2), line_query(5), line_query(9), star_query(1),
        star_query(6), lollipop_query(2), lollipop_query(4),
        dumbbell_query(2, 4), dumbbell_query(3, 7),
    ])
    def test_paper_families_are_acyclic(self, q):
        assert is_berge_acyclic(q)

    def test_triangle_is_cyclic(self):
        assert not is_berge_acyclic(triangle_query())

    def test_two_shared_attributes_is_cyclic(self):
        q = JoinQuery(edges={"e1": frozenset({"a", "b"}),
                             "e2": frozenset({"a", "b"})})
        assert not is_berge_acyclic(q)

    def test_alpha_acyclic_but_berge_cyclic(self):
        # {abc, ab} is α-acyclic yet shares two attributes: Berge-cyclic.
        q = JoinQuery(edges={"e1": frozenset({"a", "b", "c"}),
                             "e2": frozenset({"a", "b"})})
        assert not is_berge_acyclic(q)

    def test_require_raises_with_guidance(self):
        with pytest.raises(CyclicQueryError):
            require_berge_acyclic(triangle_query())

    def test_disconnected_forest_is_acyclic(self):
        q = JoinQuery(edges={"e1": frozenset({"a", "b"}),
                             "e2": frozenset({"c", "d"})})
        assert is_berge_acyclic(q)


class TestStructureOps:
    def test_drop_edges_removes_sizes_too(self):
        q = line_query(3, [1, 2, 3])
        q2 = q.drop_edges(["e2"])
        assert set(q2.edges) == {"e1", "e3"}
        assert set(q2.sizes) == {"e1", "e3"}

    def test_drop_attributes(self):
        q = line_query(3)
        q2 = q.drop_attributes(["v2"])
        assert q2.edges["e1"] == frozenset({"v1"})
        assert q2.edges["e2"] == frozenset({"v3"})

    def test_structure_key_ignores_sizes(self):
        assert (line_query(3, [1, 2, 3]).structure_key()
                == line_query(3, [9, 9, 9]).structure_key())

    def test_occurrences(self):
        occ = line_query(3).occurrences()
        assert occ["v2"] == ["e1", "e2"]
        assert occ["v1"] == ["e1"]

    def test_connected_components_full_and_subset(self):
        q = line_query(4)
        assert len(q.connected_components()) == 1
        comps = q.connected_components(["e1", "e3", "e4"])
        assert frozenset({"e1"}) in comps
        assert frozenset({"e3", "e4"}) in comps

    def test_is_connected_after_attr_removal(self):
        q = line_query(3).drop_attributes(["v2"])
        assert not q.is_connected()

    def test_size_requires_sizes(self):
        with pytest.raises(ValueError):
            line_query(3).size("e1")

    def test_with_sizes(self):
        q = line_query(2).with_sizes({"e1": 4, "e2": 5})
        assert q.size("e1") == 4


class TestImmutability:
    """Derived structure is cached on the query, so it must not change."""

    def test_edges_and_sizes_are_read_only(self):
        q = line_query(3, [1, 2, 3])
        with pytest.raises(TypeError):
            q.edges["e1"] = frozenset({"z"})
        with pytest.raises(TypeError):
            q.sizes["e1"] = 7
        with pytest.raises(TypeError):
            del q.edges["e1"]

    def test_input_dicts_are_copied(self):
        edges = {"e1": {"a", "b"}, "e2": {"b", "c"}}
        sizes = {"e1": 1, "e2": 2}
        q = JoinQuery(edges=edges, sizes=sizes)
        edges["e3"] = {"c"}
        sizes["e1"] = 9
        assert set(q.edges) == {"e1", "e2"} and q.size("e1") == 1

    def test_equality_copies_and_with_sizes_still_work(self):
        q = line_query(3, [1, 2, 3])
        assert q == line_query(3, [1, 2, 3])
        assert q != line_query(3, [1, 2, 4])
        assert dict(q.edges) == {"e1": frozenset({"v1", "v2"}),
                                 "e2": frozenset({"v2", "v3"}),
                                 "e3": frozenset({"v3", "v4"})}
        assert q.with_sizes({"e1": 5}).sizes == {"e1": 5}
        assert JoinQuery(q.edges, q.sizes) == q

    def test_pickle_and_deepcopy_round_trip(self):
        q = star_query(2, [3, 4, 5])
        q.drop_edges(["e1"])  # populate a cache first
        assert pickle.loads(pickle.dumps(q)) == q
        assert copy.deepcopy(q) == q

    def test_children_are_shared(self):
        q = line_query(4)
        assert q.drop_edges(["e1"]) is q.drop_edges({"e1"})
        assert q.drop_attributes(["v2"]) is q.drop_attributes(("v2",))
        assert q.drop_edges(["e1"]) is not q.drop_edges(["e4"])
