"""Edge covers and the AGM bound (Sections 2.2.1, 7.1).

The AGM bound states ``max_R |Q(R)| = min_x ∏_e N(e)^{x(e)}`` over
fractional edge covers ``x`` (``Σ_{e∋v} x(e) ≥ 1`` for every attribute
``v``).  Lemma 2 of the paper shows the optimal cover of an acyclic
query is integral (0/1), so on acyclic queries an exhaustive search
over integral covers is exact.  Cyclic queries (the triangle, LW_n)
solve the LP exactly instead: every vertex of the cover polyhedron is
found by rational Gaussian elimination and the cheapest one wins.  Both
are exponential only in the (constant) query size.

Section 7.1 needs the *minimum edge cover* (all sizes equal) computed
by the paper's greedy (Algorithm 6), along with the LP-dual *vertex
packing* used to build the worst-case instance of Theorem 7.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from repro.query.classify import edge_unique_attributes
from repro.query.hypergraph import JoinQuery, is_berge_acyclic


@dataclass(frozen=True)
class EdgeCover:
    """A fractional (or integral) edge cover and its AGM value."""

    weights: dict[str, float]
    agm_bound: float

    def support(self) -> frozenset[str]:
        """Edges with weight above numerical noise."""
        return frozenset(e for e, x in self.weights.items() if x > 1e-9)

    def is_integral(self, tol: float = 1e-6) -> bool:
        return all(min(abs(x), abs(x - 1.0)) <= tol
                   for x in self.weights.values())


def fractional_edge_cover(query: JoinQuery) -> EdgeCover:
    """The optimal fractional edge cover.

    Minimizes ``Σ_e x(e) · ln N(e)`` (so the AGM bound ``∏ N^x`` is
    minimized) subject to covering every attribute.  Falls back to unit
    costs when the query has no sizes (minimum fractional edge cover).
    An empty relation empties the join: the bound is 0.
    """
    if not query.edges:
        return EdgeCover(weights={}, agm_bound=1.0)
    has_empty = query.sizes is not None and 0 in query.sizes.values()
    if is_berge_acyclic(query) or has_empty:
        # Exact by Lemma 2 on acyclic queries; with an empty relation,
        # any integral cover using it reaches the bound 0.
        return optimal_integral_cover(query)
    weights = _lp_cover(query)
    return EdgeCover(weights=weights, agm_bound=_agm_value(query, weights))


def _lp_cover(query: JoinQuery) -> dict[str, float]:
    """The LP optimum: the cheapest vertex of ``{x ≥ 0 : A x ≥ 1}``.

    The polyhedron contains no line and the costs are non-negative, so
    some vertex is optimal.  A vertex with support ``S`` is the unique
    solution of ``A[T, S] x = 1`` for some ``|S|`` attributes ``T``
    whose covering rows it meets with equality: try every ``(S, T)`` in
    exact arithmetic and keep the cheapest feasible solution.
    """
    edges = query.edge_names
    cost = [_cost(query, e) for e in edges]
    rows = [[int(v in query.edges[e]) for e in edges]
            for v in sorted(query.attributes)]
    best: tuple[float, dict[str, float]] | None = None
    for k in range(1, min(len(edges), len(rows)) + 1):
        for support, tight in itertools.product(
                itertools.combinations(range(len(edges)), k),
                itertools.combinations(rows, k)):
            x = _solve([[row[j] for j in support] + [1] for row in tight])
            if x is None or min(x) < 0:
                continue
            value = math.fsum(cost[j] * float(xj) for j, xj in zip(support, x))
            if best is not None and value >= best[0]:
                continue
            if any(sum(xj for j, xj in zip(support, x) if row[j]) < 1
                   for row in rows):
                continue
            best = (value, {edges[j]: float(xj) for j, xj in zip(support, x)})
    assert best is not None, "every attribute lies in some edge"
    return {e: best[1].get(e, 0.0) for e in edges}


def _solve(m: list[list[int]]) -> list[Fraction] | None:
    """Solve the square integer system ``[A | b]``; None if singular.

    Gauss–Jordan elimination that cross-multiplies rows instead of
    dividing them, so it stays in integers until the final quotients.
    """
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = [m[c][c] * a - m[r][c] * b for a, b in zip(m[r], m[c])]
    return [Fraction(m[i][n], m[i][i]) for i in range(n)]


def optimal_integral_cover(query: JoinQuery) -> EdgeCover:
    """The best 0/1 edge cover by exhaustive search.

    By Lemma 2 this matches :func:`fractional_edge_cover` on acyclic
    queries.  Exponential in the (constant) query size.
    """
    edges = query.edge_names
    attrs = query.attributes
    best: tuple[float, frozenset[str]] | None = None
    for mask in range(1 << len(edges)):
        chosen = frozenset(edges[i] for i in range(len(edges))
                           if mask >> i & 1)
        covered: set[str] = set()
        for e in chosen:
            covered |= query.edges[e]
        if covered != set(attrs):
            continue
        value = math.fsum(_cost(query, e) for e in chosen)
        if best is None or value < best[0]:
            best = (value, chosen)
    if best is None:
        raise ValueError("query has an attribute covered by no edge")
    weights = {e: (1.0 if e in best[1] else 0.0) for e in edges}
    return EdgeCover(weights=weights, agm_bound=_agm_value(query, weights))


def _cost(query: JoinQuery, edge: str) -> float:
    """``ln N(e)``, or 1 without sizes; an empty relation costs -inf."""
    if query.sizes is None:
        return 1.0
    n = query.size(edge)
    return math.log(n) if n else -math.inf


def _agm_value(query: JoinQuery, weights: dict[str, float]) -> float:
    if query.sizes is None:
        return float("nan")
    return math.prod(query.size(e) ** x
                     for e, x in weights.items() if x > 1e-12)


def agm_bound(query: JoinQuery) -> float:
    """``min_x ∏ N(e)^{x(e)}`` — the worst-case join size (AGM)."""
    return fractional_edge_cover(query).agm_bound


@dataclass(frozen=True)
class GreedyCover:
    """Output of the paper's Algorithm 6 greedy minimum edge cover.

    ``packing`` holds one witness attribute per chosen edge — a vertex
    packing by LP duality — used by Theorem 7's instance construction.
    """

    cover: tuple[str, ...]
    packing: tuple[str, ...]

    @property
    def c(self) -> int:
        """The minimum edge cover number."""
        return len(self.cover)


def greedy_minimum_edge_cover(query: JoinQuery) -> GreedyCover:
    """Algorithm 6: repeatedly take an edge containing a unique attribute.

    Each chosen edge contributes one of its (current) unique attributes
    to the vertex packing; the edge and all its attributes are then
    removed.  Residues can contain *buds* — single-attribute edges
    whose attribute other edges also hold; per the Theorem 7 proof
    ("buds can always be ignored as they do not appear … in the minimum
    edge cover") they are dropped without being selected.  For acyclic
    queries this greedy is optimal (Section 7.1): a residue with no
    unique attribute and no bud would have minimum incidence degree 2
    everywhere, i.e. a cycle.  A defensive fallback covers degenerate
    non-acyclic input.
    """
    q = query
    cover: list[str] = []
    packing: list[str] = []
    while q.attributes:
        pick = None
        witness = None
        for e in q.edge_names:
            uniq = edge_unique_attributes(q, e)
            if uniq:
                pick, witness = e, min(uniq)
                break
        if pick is None:
            buds = [e for e in q.edge_names if len(q.edges[e]) == 1]
            if buds:
                q = q.drop_edges([buds[0]])
                continue
            pick = next(e for e in q.edge_names if q.edges[e])
            witness = min(q.edges[pick])
        cover.append(pick)
        packing.append(witness)  # type: ignore[arg-type]
        removed = q.edges[pick]
        q = q.drop_edges([pick]).drop_attributes(removed)
        q = q.drop_edges([e for e in q.edge_names if not q.edges[e]])
    return GreedyCover(cover=tuple(cover), packing=tuple(packing))


def cover_number(query: JoinQuery) -> int:
    """``c``: the minimum edge cover number of the hypergraph."""
    return greedy_minimum_edge_cover(query).c
