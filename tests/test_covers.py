"""Tests for edge covers and the AGM bound (Sections 2.2.1, 7.1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (JoinQuery, agm_bound, cover_number,
                         fractional_edge_cover, greedy_minimum_edge_cover,
                         line_query,
                         lollipop_query, optimal_integral_cover, star_query,
                         triangle_query)
from repro.query.builders import dumbbell_query
from repro.query.covers import _lp_cover
from repro.query.parse import parse_query

# Edge-cover answers recorded from scipy's HiGHS LP (``linprog``) on
# the commit before the exact solver replaced it: (label, query, value,
# weights).  ``value`` is the AGM bound for sized queries and the
# minimum total weight for unsized ones; ``weights`` (in edge-name
# order, rounded to 6 places) are given where the optimum is unique.
# The random cyclic rows are hypergraphs over 3-6 attributes with 3-6
# edges of 1-3 attributes each, drawn from a seeded generator.
SCIPY_CORPUS = [
    ("triangle", "e1(v1,v2)[100], e2(v1,v3)[100], e3(v2,v3)[100]",
     1000.0, (0.5, 0.5, 0.5)),
    ("triangle skewed", "e1(v1,v2)[10], e2(v1,v3)[1000], e3(v2,v3)[50]",
     500.0, (1.0, 0.0, 1.0)),
    ("triangle unsized", "e1(v1,v2), e2(v1,v3), e3(v2,v3)",
     1.5, (0.5, 0.5, 0.5)),
    ("4-cycle", "e1(a,b)[10], e2(b,c)[20], e3(c,d)[30], e4(a,d)[40]",
     300.0, (1.0, 0.0, 1.0, 0.0)),
    ("4-cycle unsized", "e1(a,b), e2(b,c), e3(c,d), e4(a,d)", 2.0, None),
    ("LW4", "e1(b,c,d)[8], e2(a,c,d)[16], e3(a,b,d)[32], e4(a,b,c)[64]",
     64.0, None),
    ("LW4 unsized", "e1(b,c,d), e2(a,c,d), e3(a,b,d), e4(a,b,c)",
     1.33333333333, (0.333333, 0.333333, 0.333333, 0.333333)),
    ("parallel", "e1(a)[5], e2(a)[7]", 5.0, (1.0, 0.0)),
    ("random cyclic 0", "e1(c,d)[684], e2(d)[147], e3(d)[976], "
                        "e4(b,c,e)[763], e5(a)[618], e6(c,e)[319]",
     69315498.0, (0.0, 1.0, 0.0, 1.0, 1.0, 0.0)),
    ("random cyclic 1", "e1(a,b,c)[372], e2(a,b,c)[266], e3(b,c)[432], "
                        "e4(b)[808]",
     266.0, (0.0, 1.0, 0.0, 0.0)),
    ("random cyclic 2", "e1(a,b)[313], e2(a,b,c)[326], e3(a)[473], "
                        "e4(a,b,c)[466], e5(b)[69]",
     326.0, (0.0, 1.0, 0.0, 0.0, 0.0)),
    ("random cyclic 3", "e1(a,b,c), e2(d), e3(a,b,d), e4(a,d), e5(b,c,d), "
                        "e6(a)",
     1.5, None),
    ("random cyclic 4", "e1(a,b,c)[418], e2(a,b)[41], e3(a)[416], "
                        "e4(a,b,c)[477], e5(a)[906], e6(a,b,c)[749]",
     418.0, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    ("random cyclic 5", "e1(a)[783], e2(b,d)[649], e3(b,c,d)[686], "
                        "e4(b,e)[111], e5(a,e)[743]",
     509698.0, (0.0, 0.0, 1.0, 0.0, 1.0)),
    ("random cyclic 6", "e1(a,d)[926], e2(b)[657], e3(a,b)[25], "
                        "e4(a,b,d)[397], e5(b,e)[642], e6(c)[61]",
     15547314.0, (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)),
    ("random cyclic 7", "e1(a), e2(a,b,d), e3(a,c,d)", 2.0, (0.0, 1.0, 1.0)),
    ("random cyclic 8", "e1(a)[127], e2(a,b,c)[627], e3(b)[394], e4(b)[611], "
                        "e5(c)[200], e6(b,c)[364]",
     627.0, (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)),
    ("random cyclic 9", "e1(b)[54], e2(a,b,c)[122], e3(a)[922], e4(c)[844], "
                        "e5(c)[532], e6(a,b,c)[837]",
     122.0, (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)),
    ("random cyclic 10", "e1(a,c)[549], e2(a,b,c)[86], e3(c)[929], "
                         "e4(b,c)[708]",
     86.0, (0.0, 1.0, 0.0, 0.0)),
    ("random cyclic 11", "e1(a,b,d), e2(a,c,d), e3(a,c,d)", 2.0, None),
    ("random cyclic 12", "e1(a,b)[680], e2(a)[188], e3(a,b,c)[179], "
                         "e4(b,c)[398], e5(a,c)[758], e6(a,c)[978]",
     179.0, (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)),
    ("random cyclic 13", "e1(a,b,e)[135], e2(b,e,f)[858], e3(b)[857], "
                         "e4(b)[252], e5(b,c)[324], e6(a,d)[482]",
     133992144.0, (0.0, 1.0, 0.0, 0.0, 1.0, 1.0)),
    ("random cyclic 14", "e1(a,c,d)[61], e2(b,c,d)[941], e3(d)[330]",
     57401.0, (1.0, 1.0, 0.0)),
    ("random cyclic 15", "e1(c,e), e2(e), e3(b), e4(a,c,e), e5(d)",
     3.0, (0.0, 0.0, 1.0, 1.0, 1.0)),
    ("random cyclic 16", "e1(b)[100], e2(d)[234], e3(a,b,c)[979], "
                         "e4(a,c)[805]",
     229086.0, (0.0, 1.0, 1.0, 0.0)),
    ("random cyclic 17", "e1(a)[239], e2(a,d,e)[577], e3(a,b,e)[166], "
                         "e4(d)[185], e5(c,e)[353]",
     10840630.0, (0.0, 0.0, 1.0, 1.0, 1.0)),
    ("random cyclic 18", "e1(c,d,e)[251], e2(e)[439], e3(b,d)[949], "
                         "e4(a,d)[593], e5(c,d)[831], e6(d)[843]",
     141252007.0, (1.0, 0.0, 1.0, 1.0, 0.0, 0.0)),
    ("random cyclic 19", "e1(a,b), e2(a,e), e3(c,d,e), e4(a,c,d), e5(a,c)",
     2.0, (1.0, 0.0, 1.0, 0.0, 0.0)),
    ("line 5", "e1(v1,v2)[10], e2(v2,v3)[20], e3(v3,v4)[30], e4(v4,v5)[40], "
               "e5(v5,v6)[50]",
     15000.0, (1.0, 0.0, 1.0, 0.0, 1.0)),
    ("line 4", "e1(v1,v2)[100], e2(v2,v3)[2], e3(v3,v4)[2], e4(v4,v5)[100]",
     20000.0, None),
    ("line 6 unsized", "e1(v1,v2), e2(v2,v3), e3(v3,v4), e4(v4,v5), "
                       "e5(v5,v6), e6(v6,v7)",
     4.0, None),
    ("star 3", "e0(v1,v2,v3)[5], e1(u1,v1)[10], e2(u2,v2)[10], e3(u3,v3)[10]",
     1000.0, (0.0, 1.0, 1.0, 1.0)),
    ("star 4", "e0(v1,v2,v3,v4)[1000], e1(u1,v1)[4], e2(u2,v2)[5], "
               "e3(u3,v3)[6], e4(u4,v4)[7]",
     840.0, (0.0, 1.0, 1.0, 1.0, 1.0)),
    ("lollipop 3", "e0(v1,v2,v3)[4], e1(u1,v1)[8], e2(u2,v2)[8], "
                   "e3(v3,v4)[8], e4(u4,v4)[8]",
     2048.0, (1.0, 1.0, 1.0, 0.0, 1.0)),
    ("dumbbell 2,4", "e0(v1,v2)[3], e1(u1,v1)[9], e2(v2,v3)[9], e3(u3,w3)[9], "
                     "e4(v3,w3)[3]",
     729.0, None),
]


def lp_agm(q):
    """The AGM value of the exact LP optimum, without Lemma 2's shortcut
    (``fractional_edge_cover`` answers acyclic queries by integral
    search)."""
    return math.prod(q.size(e) ** x for e, x in _lp_cover(q).items())


class TestFractionalCover:
    def test_l3_cover_is_1_0_1(self):
        # Section 3: optimal cover of L3 is x1=1, x2=0, x3=1.
        q = line_query(3, [100, 100, 100])
        cover = fractional_edge_cover(q)
        assert cover.weights["e1"] == pytest.approx(1.0)
        assert cover.weights["e2"] == pytest.approx(0.0, abs=1e-8)
        assert cover.weights["e3"] == pytest.approx(1.0)
        assert cover.agm_bound == pytest.approx(10000.0)

    def test_lemma2_integrality_on_acyclic_queries(self):
        # Lemma 2: acyclic queries have 0/1 optimal covers, so the exact
        # LP agrees with the integral search fractional_edge_cover uses.
        for q in [line_query(5, [10, 20, 30, 40, 50]),
                  star_query(3, [5, 10, 10, 10]),
                  lollipop_query(3, [4, 8, 8, 8, 8]),
                  dumbbell_query(2, 4, [3, 9, 9, 9, 3])]:
            assert all(x in (0.0, 1.0) for x in _lp_cover(q).values())
            assert fractional_edge_cover(q).is_integral()

    def test_triangle_cover_is_fractional(self):
        # The cyclic C3 has the famous half-half-half cover.
        q = triangle_query([100, 100, 100])
        cover = fractional_edge_cover(q)
        assert not cover.is_integral()
        assert cover.weights == {"e1": 0.5, "e2": 0.5, "e3": 0.5}
        assert cover.agm_bound == pytest.approx(100 ** 1.5, rel=1e-6)

    def test_lp_matches_brute_force_on_acyclic(self):
        for sizes in ([10, 10, 10, 10], [100, 2, 2, 100],
                      [3, 50, 3, 50]):
            q = line_query(4, sizes)
            brute = optimal_integral_cover(q)
            assert lp_agm(q) == pytest.approx(brute.agm_bound, rel=1e-6)

    def test_unit_costs_without_sizes(self):
        cover = fractional_edge_cover(line_query(5))
        assert sum(cover.weights.values()) == pytest.approx(3.0)

    def test_empty_query(self):
        assert fractional_edge_cover(JoinQuery(edges={})).agm_bound == 1.0


@pytest.mark.parametrize("label, text, value, weights", SCIPY_CORPUS,
                         ids=[row[0] for row in SCIPY_CORPUS])
def test_scipy_corpus(label, text, value, weights):
    q = parse_query(text)
    cover = fractional_edge_cover(q)
    if q.sizes is None:
        assert sum(cover.weights.values()) == pytest.approx(value, rel=1e-9)
    else:
        assert cover.agm_bound == pytest.approx(value, rel=1e-9)
    if weights is not None:
        assert ([cover.weights[e] for e in q.edge_names]
                == pytest.approx(weights, abs=1e-6))
    for v in q.attributes:
        assert sum(x for e, x in cover.weights.items()
                   if v in q.edges[e]) >= 1 - 1e-9


class TestAGM:
    def test_agm_l4_picks_cheaper_cover(self):
        # covers (1,0,1,1) vs (1,1,0,1): min(N1 N3 N4, N1 N2 N4).
        q = line_query(4, [10, 3, 7, 10])
        assert agm_bound(q) == pytest.approx(10 * 3 * 10)
        q2 = line_query(4, [10, 7, 3, 10])
        assert agm_bound(q2) == pytest.approx(10 * 3 * 10)

    def test_agm_star_is_product_of_petals(self):
        q = star_query(3, [1000, 4, 5, 6])
        assert agm_bound(q) == pytest.approx(4 * 5 * 6)

    def test_size_one_relation_costs_nothing(self):
        # ln 1 = 0: a one-tuple relation covers its attributes for free,
        # whichever order the sizes come in.
        for sizes in ({"e1": 2, "e2": 1}, {"e1": 1, "e2": 2}):
            q = JoinQuery(edges={"e1": {"a"}, "e2": {"a"}}, sizes=sizes)
            assert agm_bound(q) == 1.0

    def test_empty_relation_empties_the_join(self):
        for q in (JoinQuery(edges={"e1": {"a"}, "e2": {"a"}},
                            sizes={"e1": 2, "e2": 0}),
                  line_query(3, [100, 0, 100]),
                  triangle_query([100, 0, 100])):
            cover = fractional_edge_cover(q)
            assert cover.agm_bound == 0.0
            for v in q.attributes:
                assert sum(x for e, x in cover.weights.items()
                           if v in q.edges[e]) >= 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(2, 200), min_size=2, max_size=7))
    def test_agm_equals_brute_force_on_lines(self, sizes):
        q = line_query(len(sizes), sizes)
        assert (lp_agm(q)
                == pytest.approx(optimal_integral_cover(q).agm_bound,
                                 rel=1e-6))


class TestGreedyCover:
    def test_line_cover_numbers(self):
        # c(L_n) = ceil(n+1)/2 edges needed to cover n+1 path vertices.
        assert cover_number(line_query(2)) == 2
        assert cover_number(line_query(3)) == 2
        assert cover_number(line_query(4)) == 3
        assert cover_number(line_query(5)) == 3
        assert cover_number(line_query(7)) == 4

    def test_star_cover_number_is_petal_count(self):
        assert cover_number(star_query(4)) == 4

    def test_greedy_matches_brute_force_minimum(self):
        for q in [line_query(6), star_query(3), lollipop_query(3),
                  dumbbell_query(2, 5)]:
            greedy = greedy_minimum_edge_cover(q)
            brute = optimal_integral_cover(q)  # unit costs
            assert greedy.c == sum(
                1 for x in brute.weights.values() if x > 0.5)

    def test_cover_actually_covers(self):
        q = lollipop_query(4)
        greedy = greedy_minimum_edge_cover(q)
        covered = set()
        for e in greedy.cover:
            covered |= q.edges[e]
        assert covered == set(q.attributes)

    def test_packing_is_valid(self):
        # Each packing vertex belongs to the edge chosen for it, and no
        # chosen edge contains two packing vertices (LP duality).
        q = line_query(7)
        greedy = greedy_minimum_edge_cover(q)
        assert len(greedy.packing) == len(greedy.cover)
        for e, v in zip(greedy.cover, greedy.packing):
            assert v in q.edges[e]
        for e in greedy.cover:
            assert len(set(greedy.packing) & q.edges[e]) <= 1

    def test_uncoverable_query_rejected(self):
        q = JoinQuery(edges={"e1": frozenset({"a"})})
        q2 = q.drop_edges(["e1"])
        # empty query covers trivially
        assert greedy_minimum_edge_cover(q2).c == 0
