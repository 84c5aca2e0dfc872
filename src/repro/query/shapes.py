"""Shape detection: recognizing the paper's query families.

The planner (:mod:`repro.core.planner`) dispatches on the shape of the
query hypergraph: two relations, line join (Section 6), star join
(Section 5), lollipop (Section 7.2), dumbbell (Section 7.3), or general
acyclic.  Detection is purely structural, so queries built with any
edge/attribute naming are recognized, and :func:`classify_shape` and
:func:`detect_line` are computed once per query object
(:meth:`~repro.query.hypergraph.JoinQuery.derived`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.classify import (edge_unique_attributes, find_stars,
                                  is_leaf, is_petal_of, join_attributes,
                                  leaf_info)
from repro.query.hypergraph import JoinQuery, is_berge_acyclic


@dataclass(frozen=True)
class ChainInfo:
    """A line join: edges in chain order and their shared attributes.

    ``join_attrs[i]`` is the attribute shared by ``edges[i]`` and
    ``edges[i+1]``.
    """

    edges: tuple[str, ...]
    join_attrs: tuple[str, ...]


def detect_line(query: JoinQuery) -> ChainInfo | None:
    """Recognize a line join; returns the chain order or ``None``.

    A line join has binary edges forming a path: every attribute occurs
    in at most two edges, exactly two edges hold an end (unique)
    attribute, and the adjacency is a single path.
    """
    return query.derived(_detect_line)


def _detect_line(query: JoinQuery) -> ChainInfo | None:
    names = query.edge_names
    if len(names) < 2:
        return None
    if any(len(query.edges[e]) != 2 for e in names):
        return None
    occ = query.occurrences()
    if any(len(es) > 2 for es in occ.values()):
        return None
    ends = [e for e in names if len(edge_unique_attributes(query, e)) == 1]
    if len(ends) != 2:
        return None
    # Walk the path from the lexicographically smaller end.
    start = min(ends)
    order = [start]
    attrs: list[str] = []
    current = start
    prev_attr: str | None = None
    while True:
        nexts = [(a, e) for a in query.edges[current] if a != prev_attr
                 for e in occ[a] if e != current]
        if not nexts:
            break
        if len(nexts) != 1:
            return None
        attr, nxt = nexts[0]
        order.append(nxt)
        attrs.append(attr)
        prev_attr, current = attr, nxt
    if len(order) != len(names):
        return None
    return ChainInfo(edges=tuple(order), join_attrs=tuple(attrs))


@dataclass(frozen=True)
class StarInfo:
    """A standalone star join: core plus all petals."""

    core: str
    petals: tuple[str, ...]


def detect_star(query: JoinQuery) -> StarInfo | None:
    """Recognize a standalone star: one core, every other edge a petal."""
    names = query.edge_names
    if len(names) < 2:
        return None
    joins = join_attributes(query)
    cores = [e for e in names if query.edges[e] and
             not (query.edges[e] - joins)]
    if len(cores) != 1:
        return None
    core = cores[0]
    petals = []
    for e in names:
        if e == core:
            continue
        if not is_petal_of(query, e, core):
            return None
        petals.append(e)
    # Every core attribute must be covered by some petal.
    covered = set()
    for p in petals:
        covered |= query.edges[p] & query.edges[core]
    if covered != set(query.edges[core]):
        return None
    return StarInfo(core=core, petals=tuple(petals))


@dataclass(frozen=True)
class LollipopInfo:
    """A lollipop (Figure 8): star core, petals, stick, stick tip."""

    core: str
    petals: tuple[str, ...]
    stick: str        # the paper's e_n: {v_n, v_{n+1}}
    tip: str          # the paper's e_{n+1}: {v_{n+1}, u}


def detect_lollipop(query: JoinQuery) -> LollipopInfo | None:
    """Recognize a lollipop: a star with exactly one extended petal.

    Both the core and the stick have no unique attributes (the stick's
    two attributes are shared with the core and the tip), so we look
    for exactly two such edges and try each as the stick.
    """
    names = query.edge_names
    if len(names) < 4:
        return None
    joins = join_attributes(query)
    no_unique = [e for e in names if query.edges[e] and
                 not (query.edges[e] - joins)]
    if len(no_unique) != 2:
        return None
    for stick, core in (no_unique, no_unique[::-1]):
        if len(query.edges[stick]) != 2:
            continue
        shared = query.edges[stick] & query.edges[core]
        if len(shared) != 1:
            continue
        outer_attr = next(iter(query.edges[stick] - shared))
        tips = [e for e in names if e not in (core, stick)
                and outer_attr in query.edges[e]]
        if len(tips) != 1 or not is_leaf(query, tips[0]):
            continue
        tip = tips[0]
        petals = [e for e in names if e not in (core, stick, tip)]
        if not petals:
            continue
        ok = all(is_petal_of(query, p, core) for p in petals)
        # Every core attribute is covered by a petal or the stick.
        covered: set[str] = set(shared)
        for p in petals:
            covered |= query.edges[p] & query.edges[core]
        if ok and covered == set(query.edges[core]):
            return LollipopInfo(core=core, petals=tuple(sorted(petals)),
                                stick=stick, tip=tip)
    return None


@dataclass(frozen=True)
class DumbbellInfo:
    """A dumbbell (Figure 9): two star cores sharing the bar petal."""

    core1: str
    petals1: tuple[str, ...]
    bar: str
    core2: str
    petals2: tuple[str, ...]


def detect_dumbbell(query: JoinQuery) -> DumbbellInfo | None:
    """Recognize a dumbbell: two cores joined through one bar relation."""
    names = query.edge_names
    if len(names) < 5:
        return None
    joins = join_attributes(query)
    no_unique = [e for e in names if query.edges[e] and
                 not (query.edges[e] - joins)]
    # Cores and the bar all lack unique attributes.
    if len(no_unique) != 3:
        return None
    for bar in no_unique:
        if len(query.edges[bar]) != 2:
            continue
        cores = [e for e in no_unique if e != bar]
        c1, c2 = sorted(cores)
        if (len(query.edges[bar] & query.edges[c1]) != 1
                or len(query.edges[bar] & query.edges[c2]) != 1):
            continue
        if query.edges[c1] & query.edges[c2]:
            continue
        petals1, petals2 = [], []
        ok = True
        for e in names:
            if e in (c1, c2, bar):
                continue
            if is_petal_of(query, e, c1):
                petals1.append(e)
            elif is_petal_of(query, e, c2):
                petals2.append(e)
            else:
                ok = False
                break
        if ok and petals1 and petals2:
            return DumbbellInfo(core1=c1, petals1=tuple(sorted(petals1)),
                                bar=bar, core2=c2,
                                petals2=tuple(sorted(petals2)))
    return None


def classify_shape(query: JoinQuery) -> str:
    """The planner's shape label for a query."""
    return query.derived(_classify_shape)


def _classify_shape(query: JoinQuery) -> str:
    if not is_berge_acyclic(query):
        return "cyclic"
    n = len(query.edges)
    if n == 0:
        return "empty"
    if n == 1:
        return "single"
    if n == 2:
        return "two-relation"
    if detect_line(query) is not None:
        return "line"
    if detect_star(query) is not None:
        return "star"
    if detect_lollipop(query) is not None:
        return "lollipop"
    if detect_dumbbell(query) is not None:
        return "dumbbell"
    return "general-acyclic"
