"""Unit tests for structure classification (Section 2.2, Figure 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (JoinQuery, dumbbell_query, find_buds, find_islands,
                         find_leaves, find_stars, has_island_bud_or_leaf,
                         is_bud, is_island, is_leaf, join_attributes,
                         leaf_info, line_query, lollipop_query, star_query,
                         unique_attributes)
from repro.query.hypergraph import is_berge_acyclic
from repro.query.shapes import classify_shape, detect_line


class TestAttributeClasses:
    def test_line_join_and_unique_attrs(self):
        q = line_query(3)
        assert join_attributes(q) == frozenset({"v2", "v3"})
        assert unique_attributes(q) == frozenset({"v1", "v4"})

    def test_star_attrs(self):
        q = star_query(3)
        assert join_attributes(q) == frozenset({"v1", "v2", "v3"})
        assert unique_attributes(q) == frozenset({"u1", "u2", "u3"})


class TestRelationClasses:
    def test_line_ends_are_leaves(self):
        q = line_query(4)
        assert find_leaves(q) == ["e1", "e4"]
        assert not find_islands(q)
        assert not find_buds(q)

    def test_leaf_info(self):
        info = leaf_info(line_query(3), "e1")
        assert info.join_attr == "v2"
        assert info.unique_attrs == frozenset({"v1"})
        assert info.neighbors == frozenset({"e2"})

    def test_leaf_info_rejects_non_leaf(self):
        import pytest
        with pytest.raises(ValueError):
            leaf_info(line_query(3), "e2")

    def test_island_detection(self):
        q = JoinQuery(edges={"e1": frozenset({"a", "b"}),
                             "e2": frozenset({"c", "d"})})
        assert is_island(q, "e1") and is_island(q, "e2")

    def test_attributeless_edge_is_island(self):
        q = JoinQuery(edges={"e1": frozenset(), "e2": frozenset({"a"})})
        assert is_island(q, "e1")

    def test_bud_detection(self):
        # Dropping v1 from e1 of an L2 leaves {v2}: a bud.
        q = line_query(2).drop_attributes(["v1"])
        assert is_bud(q, "e1")
        assert not is_leaf(q, "e1")

    def test_leaf_requires_unique_attr(self):
        q = line_query(2)
        assert is_leaf(q, "e1") and is_leaf(q, "e2")
        q2 = q.drop_attributes(["v1"])
        assert not is_leaf(q2, "e1")


class TestStars:
    def test_l3_is_a_standalone_star(self):
        stars = find_stars(line_query(3))
        full = [s for s in stars if s.petals == frozenset({"e1", "e3"})]
        assert len(full) == 1
        assert full[0].core == "e2"
        assert full[0].external_attrs == frozenset()

    def test_l3_single_petal_stars(self):
        # Section 4.2: {e1, e2} with core e2 (and symmetrically {e2, e3}).
        stars = find_stars(line_query(3), all_petal_subsets=True)
        petalsets = {s.petals for s in stars}
        assert frozenset({"e1"}) in petalsets
        assert frozenset({"e3"}) in petalsets

    def test_l4_star_is_e1_e2(self):
        stars = find_stars(line_query(4))
        assert {(s.core, s.petals) for s in stars} == {
            ("e2", frozenset({"e1"})), ("e3", frozenset({"e4"}))}

    def test_star_query_detected(self):
        stars = find_stars(star_query(3))
        full = [s for s in stars
                if s.petals == frozenset({"e1", "e2", "e3"})]
        assert full and full[0].core == "e0"

    def test_core_with_two_external_attrs_invalid(self):
        # A middle edge of an L5 has two external join attributes once
        # its potential petals are taken away.
        q = line_query(5)
        stars = find_stars(q, all_petal_subsets=True)
        assert all(s.core != "e3" for s in stars)

    def test_lollipop_has_two_star_cores(self):
        q = lollipop_query(3)
        cores = {s.core for s in find_stars(q, all_petal_subsets=True)}
        assert "e0" in cores          # the petal star
        assert "e3" in cores          # the stick acts as a 1-petal core

    def test_dumbbell_cores(self):
        q = dumbbell_query(3, 6)
        cores = {s.core for s in find_stars(q, all_petal_subsets=True)}
        assert {"e0", "e6"} <= cores


class TestLemma1:
    """Lemma 1: an acyclic query always has an island, bud, or leaf."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 10**6))
    def test_on_line_suffixes(self, n, seed):
        q = line_query(n)
        assert has_island_bud_or_leaf(q)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_on_random_acyclic_hypergraphs(self, data):
        q = data.draw(random_acyclic_query())
        assert is_berge_acyclic(q)
        assert has_island_bud_or_leaf(q)


@st.composite
def random_acyclic_query(draw):
    """Random Berge-acyclic hypergraphs grown edge by edge.

    Each new edge attaches to the existing structure through at most
    one existing attribute (keeping the incidence graph a forest) and
    adds 0-2 fresh attributes.
    """
    n_edges = draw(st.integers(1, 6))
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
    return JoinQuery(edges=edges)


def peel_children(query):
    """The children ``enumerate_plans`` derives from one query: drop the
    first bud, else the first island, else per leaf the heavy child (leaf
    and its attributes gone) and the light child (leaf gone)."""
    if len(query.edges) <= 1:
        return []
    buds, islands = find_buds(query), find_islands(query)
    if buds:
        return [query.drop_edges([buds[0]])]
    if islands:
        return [query.drop_edges([islands[0]])]
    out = []
    for leaf in find_leaves(query):
        info = leaf_info(query, leaf)
        out.append(query.drop_edges([leaf])
                   .drop_attributes(set(info.unique_attrs) | {info.join_attr}))
        out.append(query.drop_edges([leaf]))
    return out


def reachable(query):
    seen, stack = [], [query]
    while stack:
        q = stack.pop()
        seen.append(q)
        stack.extend(peel_children(q))
    return seen


def derived_facts(q):
    """Every structural fact cached on a query, as plain values."""
    leaves = find_leaves(q)
    return {"edge_names": q.edge_names,
            "structure_key": q.structure_key(),
            "occurrences": q.occurrences(),
            "join_attributes": join_attributes(q),
            "islands": find_islands(q),
            "buds": find_buds(q),
            "leaves": leaves,
            "leaf_info": [leaf_info(q, e) for e in leaves],
            "shape": classify_shape(q),
            "line": detect_line(q),
            "acyclic": is_berge_acyclic(q)}


class TestCachedStructure:
    """The facts cached on a query equal those of a fresh, equal query."""

    @staticmethod
    def check(query):
        for q in reachable(query):
            cached = derived_facts(q)
            assert derived_facts(q) == cached  # served from the cache
            assert cached == derived_facts(JoinQuery(dict(q.edges), q.sizes))

    @settings(max_examples=60, deadline=None)
    @given(random_acyclic_query())
    def test_random_acyclic_children(self, query):
        self.check(query)

    def test_paper_families(self):
        for q in (line_query(2), line_query(5), star_query(1), star_query(4),
                  lollipop_query(3), dumbbell_query(3, 6)):
            self.check(q)

    def test_children_are_shared_across_walks(self):
        q = dumbbell_query(3, 6)
        assert ([id(c) for c in reachable(q)]
                == [id(c) for c in reachable(q)])

    def test_mutating_returned_containers_changes_nothing(self):
        q = lollipop_query(3)
        derived_facts(q)  # fill the caches
        find_leaves(q).append("x")
        find_buds(q).append("x")
        find_islands(q).append("x")
        names = q.edge_names
        names.reverse()
        q.occurrences()["v1"].clear()
        q.occurrences().clear()
        assert derived_facts(q) == derived_facts(JoinQuery(dict(q.edges)))
