"""A networkx reference for Berge-acyclicity, cross-checked against
the union-find test in :func:`repro.query.hypergraph.is_berge_acyclic`.

networkx is a test-only dependency: the package itself never imports it.
"""

import networkx as nx
from hypothesis import given, settings

from repro.query import (JoinQuery, dumbbell_query, is_berge_acyclic,
                         line_query, lollipop_query, star_query,
                         triangle_query)

from test_classify import random_acyclic_query


def incidence_graph(query: JoinQuery) -> nx.Graph:
    """The bipartite attribute–edge incidence graph.

    Names are prefixed (``"E:"``/``"A:"``) so a relation and an
    attribute may share a name without colliding.
    """
    g = nx.Graph()
    g.add_nodes_from(f"E:{e}" for e in query.edge_names)
    g.add_nodes_from(f"A:{a}" for a in query.attributes)
    g.add_edges_from((f"E:{e}", f"A:{a}")
                     for e in query.edge_names for a in query.edges[e])
    return g


def is_berge_acyclic_nx(query: JoinQuery) -> bool:
    """Berge-acyclicity as ``networkx.is_forest`` of the incidence graph."""
    g = incidence_graph(query)
    return g.number_of_nodes() == 0 or nx.is_forest(g)


class TestIncidenceGraph:
    def test_structure(self):
        g = incidence_graph(line_query(3))
        assert sum(n.startswith("E:") for n in g) == 3
        assert sum(n.startswith("A:") for n in g) == 4
        assert g.number_of_edges() == 6  # 3 binary edges

    def test_name_collision_is_safe(self):
        q = JoinQuery(edges={"x": frozenset({"x", "y"})})
        g = incidence_graph(q)
        assert g.has_node("E:x") and g.has_node("A:x")


class TestAcyclicityCrossValidation:
    @settings(max_examples=60, deadline=None)
    @given(random_acyclic_query())
    def test_agrees_on_random_acyclic(self, q):
        assert is_berge_acyclic_nx(q) == is_berge_acyclic(q) is True

    def test_agrees_on_cyclic(self):
        two_shared = JoinQuery(edges={"e1": frozenset({"a", "b"}),
                                      "e2": frozenset({"a", "b"})})
        for q in (triangle_query(), two_shared):
            assert is_berge_acyclic_nx(q) is is_berge_acyclic(q) is False

    def test_agrees_on_paper_families(self):
        for q in (line_query(6), star_query(4), lollipop_query(3),
                  dumbbell_query(3, 6)):
            assert is_berge_acyclic_nx(q) and is_berge_acyclic(q)
