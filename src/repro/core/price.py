"""The exact I/O price of one Algorithm 2 peel plan, without running it.

:func:`price_plan` walks the recursion of
:func:`~repro.core.acyclic.acyclic_join` for one plan over plain row
lists and counts the page reads and writes every charge site of that
run would make on a device without a buffer pool: it builds no file,
opens no cursor and charges nothing.  The count is exact, not an
estimate: it equals the ``(reads, writes)`` of a trial run of the plan
on a :func:`~repro.core.acyclic.clone_instance` copy
(``tests/test_properties.py`` checks this on random acyclic queries).

A page count depends on a segment's length and on where it starts
inside its page, so each relation is held as its rows, the offset of
its first row within a page (``start % B``), the attribute it is sorted
on and its schema.  The walk owns no charge rule: each charge site's
count comes from a function beside the operator that charges it.

* ``Relation.sort_by`` → :func:`repro.em.sort.external_sort`:
  :func:`repro.em.sort.sort_io`;
* :func:`~repro.em.loaders.group_boundaries`, the island's
  :func:`~repro.em.loaders.load_chunks`, the heavy
  :func:`~repro.em.loaders.load_group_chunks` and the final scan read
  the pages their segment spans: :func:`repro.em.file.span_pages`;
  the chunk loops run :func:`~repro.em.loaders.chunk_count` times;
* :func:`~repro.em.loaders.load_light_chunks`:
  :func:`~repro.em.loaders.light_chunk_reads`;
* each neighbor's shared :func:`~repro.em.loaders.take_through` cursor:
  :func:`~repro.em.loaders.take_through_reads`;
* the bud's :func:`~repro.em.loaders.write_semijoin`: the left input
  is read whole, the right one
  :func:`~repro.em.loaders.semijoin_right_reads`;
* ``Relation.rewrite`` and :func:`~repro.em.loaders.write_semijoin`
  write a new file: ``span_pages(0, n, B)``.

A chunk loop whose iterations see identical inputs (an island's
chunks, one heavy value's chunks) is walked once and its cost
multiplied by the chunk count.  Rows are sorted with :func:`sorted`:
the external sort is not stable, but no charge depends on the order of
rows with equal sort keys.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Any, NamedTuple

from repro.data.instance import Instance
from repro.data.schema import RelationSchema
from repro.em.device import Device
from repro.em.file import span_pages
from repro.em.loaders import (chunk_count, light_chunk_reads,
                              semijoin_right_reads, take_through_reads)
from repro.em.sort import sort_io
from repro.query.classify import (find_buds, find_islands, find_leaves,
                                  leaf_info)
from repro.query.hypergraph import JoinQuery

#: A query structure (:meth:`JoinQuery.structure_key`).
PlanKey = frozenset
#: A peel plan: the leaf chosen at each query structure.
Plan = dict[PlanKey, str]


class Rows:
    """One relation as the walk sees it: rows plus page alignment."""

    __slots__ = ("rows", "off", "sorted_on", "schema")

    def __init__(self, rows: list[tuple], off: int, sorted_on: str | None,
                 schema: RelationSchema) -> None:
        self.rows = rows
        self.off = off              # index of rows[0] within its page
        self.sorted_on = sorted_on
        self.schema = schema


class Price(NamedTuple):
    """A plan's exact pool-off I/O and the structures its run asks about.

    ``asked`` maps each structure whose leaf the recursion chose to the
    plan's answer there (``None`` where the plan has none and the first
    leaf is taken); any plan agreeing with it takes the same branch.
    """

    reads: int
    writes: int
    asked: dict[PlanKey, str | None]


def snapshot(instance: Instance) -> dict[str, Rows]:
    """The instance's relations as :class:`Rows`.

    The inputs already sit on disk and pricing is not a run, so the
    rows are read uncharged, inside the device's ``suspend()``.
    """
    device = device_of(instance)
    out = {}
    with device.stats.suspend():
        for name, rel in instance.items():
            data = rel.data
            out[name] = Rows(data.peek_tuples(), data.start % device.B,
                             rel.sorted_on, rel.schema)
    return out


def device_of(instance: Instance) -> Device:
    """The one device every relation of ``instance`` lives on."""
    devices = {rel.device for rel in instance.values()}
    if len(devices) != 1:
        raise ValueError("instance spans multiple devices")
    (device,) = devices
    return device


def price_plan(query: JoinQuery, rows: dict[str, Rows], plan: Plan,
               M: int, B: int) -> Price:
    """Price one peel plan: the I/O a pool-off run of it is charged.

    ``rows`` comes from :func:`snapshot` and is not modified, so one
    snapshot prices every plan of a query.
    """
    walk = _Walk(plan, M, B)
    walk.run(query, rows)
    return Price(walk.reads, walk.writes, walk.asked)


def _groups(keys: list[Any]) -> list[tuple[Any, int, int]]:
    """``(value, start, stop)`` of each run of equal ``keys``."""
    out = []
    pos = 0
    for value, run in groupby(keys):
        stop = pos + len(list(run))
        out.append((value, pos, stop))
        pos = stop
    return out


class _Walk:
    """One plan's recursion, counting charges instead of making them."""

    __slots__ = ("plan", "M", "B", "reads", "writes", "asked")

    def __init__(self, plan: Plan, M: int, B: int) -> None:
        self.plan = plan
        self.M = M
        self.B = B
        self.reads = 0
        self.writes = 0
        self.asked: dict[PlanKey, str | None] = {}

    def run(self, query: JoinQuery, inst: dict[str, Rows]) -> None:
        edges = query.edge_names
        if not edges:
            return
        if len(edges) == 1:
            r = inst[edges[0]]
            self.reads += span_pages(r.off, len(r.rows), self.B)
            return
        buds = find_buds(query)
        if buds:
            self.bud(query, inst, buds[0])
            return
        islands = find_islands(query)
        if islands:
            self.island(query, inst, islands[0])
            return
        key = query.structure_key()
        choice = self.asked[key] = self.plan.get(key)
        self.leaf(query, inst, choice or find_leaves(query)[0])

    def repeat(self, times: int, query: JoinQuery,
               inst: dict[str, Rows]) -> None:
        """Walk ``query`` once and charge it ``times`` times."""
        reads, writes = self.reads, self.writes
        self.run(query, inst)
        self.reads += (self.reads - reads) * (times - 1)
        self.writes += (self.writes - writes) * (times - 1)

    def sort(self, r: Rows, attr: str) -> Rows:
        if r.sorted_on == attr:
            return r
        reads, writes = sort_io(len(r.rows), r.off, self.M, self.B)
        self.reads += reads
        self.writes += writes
        return Rows(sorted(r.rows, key=itemgetter(r.schema.index(attr))),
                    0, attr, r.schema)

    def write(self, rows: list[tuple], like: Rows, attr: str) -> Rows:
        self.writes += span_pages(0, len(rows), self.B)
        return Rows(rows, 0, attr, like.schema)

    def bud(self, query: JoinQuery, inst: dict[str, Rows], bud: str) -> None:
        (w,) = query.edges[bud]
        b = self.sort(inst[bud], w)
        bkeys = list(map(itemgetter(b.schema.index(w)), b.rows))
        wanted = set(bkeys)
        B = self.B
        rebound = dict(inst)
        del rebound[bud]
        for e2 in query.edge_names:
            if e2 == bud or w not in query.edges[e2]:
                continue
            r2 = self.sort(inst[e2], w)
            col = r2.schema.index(w)
            self.reads += span_pages(r2.off, len(r2.rows), B)
            if r2.rows:
                self.reads += semijoin_right_reads(bkeys, b.off,
                                                   r2.rows[-1][col], B)
            matched = [t for t in r2.rows if t[col] in wanted]
            rebound[e2] = self.write(matched, r2, w)
        self.run(query.drop_edges([bud]), rebound)

    def island(self, query: JoinQuery, inst: dict[str, Rows],
               island: str) -> None:
        r = inst[island]
        n = len(r.rows)
        self.reads += span_pages(r.off, n, self.B)
        if n:
            child = dict(inst)
            del child[island]
            self.repeat(chunk_count(n, self.M), query.drop_edges([island]),
                        child)

    def leaf(self, query: JoinQuery, inst: dict[str, Rows],
             leaf: str) -> None:
        info = leaf_info(query, leaf)
        v = info.join_attr
        M, B = self.M, self.B
        re = self.sort(inst[leaf], v)
        nbs = {e2: self.sort(inst[e2], v) for e2 in sorted(info.neighbors)}
        groups = _groups(list(map(itemgetter(re.schema.index(v)), re.rows)))
        self.reads += span_pages(re.off, len(re.rows), B)
        nb_keys = {}
        nb_groups = {}
        for e2, r2 in nbs.items():
            keys = nb_keys[e2] = list(map(itemgetter(r2.schema.index(v)),
                                          r2.rows))
            nb_groups[e2] = {g[0]: g for g in _groups(keys)}
            self.reads += span_pages(r2.off, len(keys), B)

        # Heavy values (lines 14-20): restrict every neighbor to v = a.
        for a, start, stop in groups:
            if stop - start < M:
                continue
            child = dict(inst)
            del child[leaf]
            for e2, r2 in nbs.items():
                g2 = nb_groups[e2].get(a)
                if g2 is None:
                    break
                child[e2] = Rows(r2.rows[g2[1]:g2[2]], (r2.off + g2[1]) % B,
                                 v, r2.schema)
            else:
                self.reads += span_pages((re.off + start) % B, stop - start,
                                         B)
                heavy_q = (query.drop_edges([leaf])
                           .drop_attributes(set(info.unique_attrs) | {v}))
                self.repeat(chunk_count(stop - start, M), heavy_q, child)
        light = [g for g in groups if g[2] - g[1] < M]
        if not light:
            return

        # Light values (lines 21-27): one reader over the light groups.
        self.reads += light_chunk_reads(((start, stop)
                                         for _, start, stop in light),
                                        re.off, B)
        light_q = query.drop_edges([leaf])
        chunk: list[Any] = []
        size = 0
        for i, (a, start, stop) in enumerate(light):
            chunk.append(a)
            size += stop - start
            if size >= M or i == len(light) - 1:
                self.light_chunk(light_q, inst, leaf, nbs, nb_groups,
                                 chunk, v)
                chunk, size = [], 0
        # Each neighbor's shared cursor, through the last light value.
        vmax = light[-1][0]
        for e2, r2 in nbs.items():
            self.reads += take_through_reads(nb_keys[e2], r2.off, vmax, B)

    def light_chunk(self, query: JoinQuery, inst: dict[str, Rows],
                    leaf: str, nbs: dict[str, Rows],
                    nb_groups: dict[str, dict[Any, tuple[Any, int, int]]],
                    values: list[Any], v: str) -> None:
        child = dict(inst)
        del child[leaf]
        empty = False
        for e2, r2 in nbs.items():
            groups = nb_groups[e2]
            matched: list[tuple] = []
            for a in values:
                g = groups.get(a)
                if g is not None:
                    matched.extend(r2.rows[g[1]:g[2]])
            child[e2] = self.write(matched, r2, v)
            empty = empty or not matched
        if not empty:
            self.run(query, child)
