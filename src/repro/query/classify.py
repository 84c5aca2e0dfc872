"""Structural classification of acyclic queries.

Section 2.2 of the paper classifies attributes and relations of an
acyclic query (Figure 2):

* an attribute in exactly one relation is a **unique attribute**;
  otherwise it is a **join attribute**;
* an **island** is a relation with no join attribute;
* a **bud** is a relation with exactly one join attribute and no unique
  attribute;
* a **leaf** is a relation with at least one unique attribute and
  exactly one join attribute; its **neighbors** Γ(e) are the other
  relations sharing its join attribute.

Section 4.2 adds **stars** (Figure 5): a core ``e0`` with no unique
attributes plus ``k ≥ 1`` petals — leaves intersecting only the core —
such that the core connects to the rest of the query through at most
one join attribute.  Lemma 1 guarantees every nonempty acyclic query
contains an island, a bud, or a leaf.

The join attributes, the island/bud/leaf lists and every leaf's
:class:`LeafInfo` depend on the structure alone, so each is computed
once per :class:`~repro.query.hypergraph.JoinQuery` and kept on it
(:meth:`~repro.query.hypergraph.JoinQuery.derived`); the ``find_*``
functions return fresh lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.hypergraph import JoinQuery


def join_attributes(query: JoinQuery) -> frozenset[str]:
    """Attributes appearing in two or more relations."""
    return query.derived(_join_attributes)


def _join_attributes(query: JoinQuery) -> frozenset[str]:
    seen: set[str] = set()
    joins: set[str] = set()
    for attrs in query.edges.values():
        joins |= seen & attrs
        seen |= attrs
    return frozenset(joins)


def unique_attributes(query: JoinQuery) -> frozenset[str]:
    """Attributes appearing in exactly one relation."""
    return query.attributes - join_attributes(query)


def edge_join_attributes(query: JoinQuery, edge: str) -> frozenset[str]:
    """The join attributes of one relation."""
    return query.edges[edge] & join_attributes(query)


def edge_unique_attributes(query: JoinQuery, edge: str) -> frozenset[str]:
    """The unique attributes of one relation."""
    return query.edges[edge] - join_attributes(query)


def is_island(query: JoinQuery, edge: str) -> bool:
    """A relation with no join attribute (its attrs may even be empty)."""
    return not edge_join_attributes(query, edge)


def is_bud(query: JoinQuery, edge: str) -> bool:
    """Exactly one join attribute and no unique attribute."""
    return (len(edge_join_attributes(query, edge)) == 1
            and not edge_unique_attributes(query, edge))


def is_leaf(query: JoinQuery, edge: str) -> bool:
    """At least one unique attribute and exactly one join attribute."""
    return (len(edge_join_attributes(query, edge)) == 1
            and bool(edge_unique_attributes(query, edge)))


@dataclass(frozen=True)
class LeafInfo:
    """A leaf relation together with the pieces Algorithm 2 needs."""

    edge: str
    unique_attrs: frozenset[str]
    join_attr: str
    neighbors: frozenset[str]


def leaf_info(query: JoinQuery, edge: str) -> LeafInfo:
    """The unique attributes, join attribute and neighbors Γ of a leaf.

    Buds qualify too (one join attribute, no unique attribute).
    """
    info = query.derived(_leaf_infos).get(edge)
    if info is None:
        joins = edge_join_attributes(query, edge)
        raise ValueError(f"{edge} is not a leaf (join attrs: {sorted(joins)})")
    return info


def _leaf_infos(query: JoinQuery) -> dict[str, LeafInfo]:
    """:class:`LeafInfo` of every relation with exactly one join attribute."""
    joins = join_attributes(query)
    occ = query.occurrences()
    infos: dict[str, LeafInfo] = {}
    for edge, attrs in query.edges.items():
        edge_joins = attrs & joins
        if len(edge_joins) == 1:
            (v,) = edge_joins
            infos[edge] = LeafInfo(
                edge=edge, unique_attrs=attrs - joins, join_attr=v,
                neighbors=frozenset(e for e in occ[v] if e != edge))
    return infos


def find_islands(query: JoinQuery) -> list[str]:
    """All islands, sorted by name."""
    return list(query.derived(_peelable)[0])


def find_buds(query: JoinQuery) -> list[str]:
    """All buds, sorted by name."""
    return list(query.derived(_peelable)[1])


def find_leaves(query: JoinQuery) -> list[str]:
    """All leaves, sorted by name."""
    return list(query.derived(_peelable)[2])


def _peelable(query: JoinQuery
              ) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """``(islands, buds, leaves)``, each sorted by name."""
    infos = query.derived(_leaf_infos)
    islands, buds, leaves = [], [], []
    for e in query.edge_names:
        if is_island(query, e):
            islands.append(e)
        elif e in infos:
            (leaves if infos[e].unique_attrs else buds).append(e)
    return tuple(islands), tuple(buds), tuple(leaves)


def is_petal_of(query: JoinQuery, edge: str, core: str) -> bool:
    """Whether ``edge`` can serve as a petal of ``core``.

    A petal is a leaf attached to the core through its one join
    attribute.  Appendix A.2 explicitly allows several petals sharing
    the same core attribute ("two or more petals in X joining with e0
    on the same join attribute"), so sibling petals on that attribute
    are permitted neighbors; anything else disqualifies the leaf.
    """
    if edge == core or not is_leaf(query, edge):
        return False
    info = leaf_info(query, edge)
    if core not in info.neighbors:
        return False
    if info.join_attr not in query.edges[core]:
        return False
    for other in info.neighbors - {core}:
        if not is_leaf(query, other):
            return False
        if leaf_info(query, other).join_attr != info.join_attr:
            return False
    return True


@dataclass(frozen=True)
class Star:
    """A star (Section 4.2, Figure 5): a core and a set of petals.

    ``external_attrs`` are the core's join attributes connecting it to
    relations outside the star; validity requires at most one.
    """

    core: str
    petals: frozenset[str]
    external_attrs: frozenset[str]

    @property
    def edges(self) -> frozenset[str]:
        return self.petals | {self.core}


def find_stars(query: JoinQuery, *, all_petal_subsets: bool = False
               ) -> list[Star]:
    """Enumerate the stars of a query.

    A core candidate is any relation with no unique attributes.  Its
    petal candidates are the leaves that intersect only the core.  A
    valid star takes a nonempty subset ``P`` of the petal candidates
    such that the core's attributes shared with relations outside
    ``{core} ∪ P`` number at most one ("the core connects with the rest
    of Q via exactly one join attribute"; zero is allowed when the star
    exhausts its component, e.g. a standalone star query).

    With ``all_petal_subsets=False`` (the default) only maximal stars —
    all petal candidates included — are returned when valid, falling
    back to the all-but-one subsets that Section 4.2's standalone-star
    discussion uses.  With ``all_petal_subsets=True`` every valid petal
    subset is enumerated (used to explore every ``GenS`` branch).
    """
    stars: list[Star] = []
    joins = join_attributes(query)
    for core in query.edge_names:
        core_attrs = query.edges[core]
        if not core_attrs or core_attrs - joins:
            continue  # has a unique attribute (or is attribute-less)
        petal_candidates = [e for e in query.edge_names
                            if is_petal_of(query, e, core)]
        if not petal_candidates:
            continue
        subsets = (_nonempty_subsets(petal_candidates) if all_petal_subsets
                   else _default_subsets(petal_candidates))
        for petals in subsets:
            star_edges = set(petals) | {core}
            outside = [e for e in query.edge_names if e not in star_edges]
            external = frozenset(
                a for a in core_attrs
                if any(a in query.edges[e] for e in outside))
            if len(external) <= 1:
                stars.append(Star(core=core, petals=frozenset(petals),
                                  external_attrs=external))
    return stars


def _nonempty_subsets(items: list[str]) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    n = len(items)
    for mask in range(1, 1 << n):
        out.append(tuple(items[i] for i in range(n) if mask >> i & 1))
    return out


def _default_subsets(items: list[str]) -> list[tuple[str, ...]]:
    """The full petal set, plus each all-but-one subset (if ≥ 2 petals)."""
    subsets = [tuple(items)]
    if len(items) >= 2:
        for skip in items:
            subsets.append(tuple(p for p in items if p != skip))
    return subsets


def has_island_bud_or_leaf(query: JoinQuery) -> bool:
    """Lemma 1 guarantee: nonempty acyclic queries always satisfy this."""
    return bool(find_islands(query) or find_buds(query) or find_leaves(query))
