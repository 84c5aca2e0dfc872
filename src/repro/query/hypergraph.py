"""Join queries as hypergraphs, and Berge-acyclicity.

A (natural) join query is a triple ``Q = (V, E, N)`` (Section 1.1): a
set of attributes ``V``, a set of hyperedges ``E ⊆ 2^V`` (one per
relation), and per-edge size bounds ``N``.  The paper works with
*Berge-acyclic* queries (Section 1.3): the bipartite incidence graph —
attributes on one side, edges on the other, adjacency = membership —
must be acyclic (a forest).  Berge-acyclicity implies in particular
that two relations share at most one attribute (two shared attributes
would close a 4-cycle in the incidence graph).

A :class:`JoinQuery` is an immutable value: ``edges`` and ``sizes`` are
read-only mappings.  Everything derived from it is therefore computed
once and kept on the object: the sorted edge names, the structure key,
the occurrence map and Berge-acyclicity here, the classification of
:mod:`repro.query.classify` and the shape of :mod:`repro.query.shapes`
through :meth:`JoinQuery.derived`.  :meth:`JoinQuery.drop_edges` and
:meth:`JoinQuery.drop_attributes` return the same child object for the
same argument, so every recursion over one query (each Algorithm 2
branch, the peel-plan enumeration, GenS) shares its children and their
caches.  Nothing is cached at module level; a query's caches live and
die with it, bounded by the structures reachable from it.  Accessors
that hand out lists or dicts return fresh copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class JoinQuery:
    """An immutable join query hypergraph with optional size bounds.

    ``edges`` maps the relation name to its attribute set.  ``sizes``
    maps the relation name to ``N(e)``; it may be omitted for purely
    structural computations (acyclicity, :func:`repro.query.gens.gens_all`).
    Both are stored as read-only mappings; ``dict(q.edges)`` gives a
    mutable copy.
    """

    edges: Mapping[str, frozenset[str]]
    sizes: Mapping[str, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", MappingProxyType(
            {e: frozenset(a) for e, a in self.edges.items()}))
        if self.sizes is not None:
            unknown = set(self.sizes) - set(self.edges)
            if unknown:
                raise ValueError(f"sizes given for unknown edges {sorted(unknown)}")
            object.__setattr__(self, "sizes",
                               MappingProxyType(dict(self.sizes)))

    def __reduce__(self):
        # Read-only mappings do not pickle; rebuild from plain dicts.
        sizes = None if self.sizes is None else dict(self.sizes)
        return JoinQuery, (dict(self.edges), sizes)

    def derived(self, fn: Callable[["JoinQuery"], T]) -> T:
        """``fn(self)``, computed on the first call and kept on this query.

        ``fn`` must be a function of the query's structure alone.  The
        value is shared by every later caller, so callers hand out
        copies of mutable containers, never the value itself.
        """
        memo = self._derived
        try:
            return memo[fn]
        except KeyError:
            memo[fn] = value = fn(self)
            return value

    @cached_property
    def _derived(self) -> dict[Callable[["JoinQuery"], Any], Any]:
        return {}

    # -- basic structure -----------------------------------------------------

    @cached_property
    def attributes(self) -> frozenset[str]:
        """All attributes appearing in some edge."""
        out: set[str] = set()
        for attrs in self.edges.values():
            out |= attrs
        return frozenset(out)

    @property
    def edge_names(self) -> list[str]:
        """Edge names in deterministic (sorted) order."""
        return list(self._edge_names)

    @cached_property
    def _edge_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.edges))

    def __len__(self) -> int:
        return len(self.edges)

    def size(self, edge: str) -> int:
        """``N(e)`` for the given edge."""
        if self.sizes is None:
            raise ValueError("query has no size bounds attached")
        return self.sizes[edge]

    def with_sizes(self, sizes: Mapping[str, int]) -> "JoinQuery":
        """A copy with (new) size bounds."""
        return JoinQuery(edges=dict(self.edges), sizes=dict(sizes))

    # -- structural surgery (used by the recursions) ---------------------------

    # Both return the same child object for the same argument (see the
    # module docstring), remembered in ``self._children``.

    def drop_edges(self, names: Iterable[str]) -> "JoinQuery":
        """Remove relations; attributes now in no relation vanish."""
        names = frozenset(names)
        key = ("edges", names)
        child = self._children.get(key)
        if child is None:
            edges = {e: a for e, a in self.edges.items() if e not in names}
            sizes = (None if self.sizes is None
                     else {e: n for e, n in self.sizes.items()
                           if e not in names})
            child = self._children[key] = JoinQuery(edges=edges, sizes=sizes)
        return child

    def drop_attributes(self, attrs: Iterable[str]) -> "JoinQuery":
        """Remove attributes from every edge (edges may become empty)."""
        attrs = frozenset(attrs)
        key = ("attributes", attrs)
        child = self._children.get(key)
        if child is None:
            edges = {e: a - attrs for e, a in self.edges.items()}
            child = self._children[key] = JoinQuery(edges=edges,
                                                    sizes=self.sizes)
        return child

    @cached_property
    def _children(self) -> dict[tuple[str, frozenset[str]], "JoinQuery"]:
        return {}

    def structure_key(self) -> frozenset[tuple[str, frozenset[str]]]:
        """A hashable canonical key for this query's structure.

        Used to memoize nondeterministic-branch enumeration: Algorithm 2
        and ``GenS`` both make choices that depend only on the structure.
        """
        return self._structure_key

    @cached_property
    def _structure_key(self) -> frozenset[tuple[str, frozenset[str]]]:
        return frozenset(self.edges.items())

    # -- connectivity ---------------------------------------------------------

    def occurrences(self) -> dict[str, list[str]]:
        """``{attribute: [edges containing it]}`` (edges sorted)."""
        return {a: list(es) for a, es in self._occurrences.items()}

    @cached_property
    def _occurrences(self) -> dict[str, tuple[str, ...]]:
        occ: dict[str, list[str]] = {a: [] for a in self.attributes}
        for e in self._edge_names:
            for a in sorted(self.edges[e]):
                occ[a].append(e)
        return {a: tuple(es) for a, es in occ.items()}

    def connected_components(self, subset: Iterable[str] | None = None
                             ) -> list[frozenset[str]]:
        """Connected components of the edge set (or a subset of edges).

        Two edges are adjacent when they share an attribute.  Needed by
        the analysis: the subjoin over a disconnected ``S`` is the cross
        product of its components' subjoins (Section 1.4).
        """
        names = sorted(self.edges if subset is None else subset)
        parent = {e: e for e in names}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: str, y: str) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        by_attr: dict[str, str] = {}
        for e in names:
            for a in self.edges[e]:
                if a in by_attr:
                    union(e, by_attr[a])
                else:
                    by_attr[a] = e
        comps: dict[str, set[str]] = {}
        for e in names:
            comps.setdefault(find(e), set()).add(e)
        return sorted((frozenset(c) for c in comps.values()),
                      key=lambda c: sorted(c))

    def is_connected(self) -> bool:
        """Whether the whole hypergraph is one component."""
        return len(self.connected_components()) <= 1


def is_berge_acyclic(query: JoinQuery) -> bool:
    """Berge-acyclicity test via the bipartite incidence graph.

    The incidence graph has a node per attribute and per edge, and an
    undirected arc for each membership.  The hypergraph is Berge-acyclic
    iff this graph is a forest, i.e. ``#arcs == #nodes - #components``.
    A union–find cycle check is equivalent: adding an arc between two
    already-connected nodes exposes a cycle.  Computed once per query.
    """
    return query.derived(_incidence_is_forest)


def _incidence_is_forest(query: JoinQuery) -> bool:
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in query.edge_names:
        parent.setdefault(("E", e), ("E", e))  # type: ignore[index]
    for a in sorted(query.attributes):
        parent.setdefault(("A", a), ("A", a))  # type: ignore[index]

    for e in query.edge_names:
        for a in sorted(query.edges[e]):
            ra, re = find(("A", a)), find(("E", e))  # type: ignore[arg-type]
            if ra == re:
                return False
            parent[ra] = re
    return True


def require_berge_acyclic(query: JoinQuery) -> None:
    """Raise :class:`CyclicQueryError` unless ``query`` is Berge-acyclic."""
    if not is_berge_acyclic(query):
        raise CyclicQueryError(
            "query is not Berge-acyclic; the paper's algorithm applies to "
            "Berge-acyclic joins only (Section 1.3). If two relations share "
            "several attributes that always co-occur, combine them into one "
            "attribute first.")


class CyclicQueryError(ValueError):
    """The query is not Berge-acyclic."""
