"""Algorithm 2: ``AcyclicJoin`` — the paper's main contribution (Section 4).

The recursion peels the query one relation at a time:

* a single remaining relation emits its tuples (line 1–2);
* a **bud** (one join attribute, no unique attribute) is eliminated
  (line 3–4) — see the correctness note below;
* an **island** (no join attribute) is loaded chunk by chunk, the rest
  of the query solved recursively per chunk, and each recursive result
  combined with every memory-resident island tuple (line 5–9);
* otherwise a **leaf** ``e`` is picked *nondeterministically*
  (line 11).  Its relation and all neighbors Γ are sorted on the join
  attribute ``v``.  **Heavy** values ``a`` (≥ ``M`` tuples, §2.3)
  restrict every neighbor to ``R(e')|_{v=a}``, remove both ``e`` and
  ``v`` from the query (possibly disconnecting it), and recurse per
  memory load of ``R(e)|_{v=a}``, cross-combining with the load
  (line 14–20).  **Light** values are loaded value-aligned (< 2M tuples,
  < M distinct values per load); each neighbor is semijoin-filtered
  against the load, ``e`` (but not ``v``) is removed, and recursive
  results are matched back to the load on ``v`` (line 21–27).

Nondeterminism.  The paper simulates all branches round-robin and stops
with the first to finish, attaining the best branch's cost up to a
constant factor (constant query size).  We realize the same guarantee
deterministically: :func:`enumerate_plans` lists every *peel plan* (a
choice of leaf per reachable query structure — exactly the information
a branch of the nondeterministic machine uses), and
:func:`acyclic_join_best` prices each plan with
:func:`repro.core.price.price_plan` — a walk of the plan's recursion over
the input rows that counts exactly the reads and writes a run of it is
charged, performing none — and then runs only the cheapest plan.  A walk
consults only the structures its recursion reaches, so plans that agree
on every leaf choice the walk asked for take the same branch; they
share one price.  :attr:`BestRun.runs` and :attr:`BestRun.round_robin_io`
still count every plan, which is what the paper's round-robin simulation
pays.  Branches also share child queries: a
:class:`~repro.query.hypergraph.JoinQuery` returns the same child object
for the same ``drop_edges``/``drop_attributes`` argument and keeps its
classification on the object, so every priced branch and the best
branch's run classify each reachable structure once.

Emission.  Every result of a peel is one child result crossed with a
memory-resident list (an island or heavy chunk, or the light tuples
matching one ``v`` value), so results travel up the recursion as
factorized blocks ``(base, factors)`` — see :data:`EmitFn` — and reach
the emitter through :func:`~repro.core.emit.emit_product` in the same
nested-loop order a per-result emit produces.  Nothing builds one dict
per result unless the emitter itself asks for them.

Correctness note on buds (deviation, documented in DESIGN.md).  The
paper's line 3–4 drops a bud outright, which is only sound if every
value of the bud's attribute appearing elsewhere also appears in the
bud — true on fully reduced inputs, but restriction during recursion
can break it.  We therefore semijoin-filter the relations sharing the
bud's attribute against the bud before dropping it (one sort + merge
pass, absorbed by the Õ(·) bounds), and reconstruct the bud's
participating tuple at emit time, keeping the emit model exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import groupby, product
from operator import itemgetter
from typing import Callable, Mapping

from repro.core.emit import CountingEmitter, Emitter, Factors, emit_product
from repro.core.price import (Plan, PlanKey, Price, device_of, price_plan,
                              snapshot)
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.em.device import Device
from repro.em.loaders import (group_boundaries, load_chunks,
                              load_group_chunks, load_light_chunks,
                              split_heavy_light, take_through,
                              write_semijoin)
from repro.query.classify import (find_buds, find_islands, find_leaves,
                                  leaf_info)
from repro.query.hypergraph import JoinQuery, require_berge_acyclic

#: Algorithm 2's internal emit: a factorized block ``(base, factors)``
#: — the cross product of ``base`` with every factor's tuple list, last
#: factor varying fastest (see :func:`repro.core.emit.emit_product`).
EmitFn = Callable[[Mapping[str, tuple], Factors], None]
Chooser = Callable[[JoinQuery, Instance], str]


# ---------------------------------------------------------------------------
# Single-branch execution
# ---------------------------------------------------------------------------

def acyclic_join(query: JoinQuery, instance: Instance, emitter: Emitter,
                 chooser: Chooser | None = None, *,
                 paper_literal_buds: bool = False) -> None:
    """Run Algorithm 2 with one leaf-choice strategy.

    ``chooser`` picks which leaf to peel given the current (sub)query
    and instance; it defaults to the first leaf in name order.  All I/O
    is charged to the instance's device.

    ``paper_literal_buds`` reproduces the paper's lines 3–4 *verbatim*:
    a bud is dropped without filtering the relations that share its
    attribute.  That is only sound on instances whose restrictions stay
    reduced; on others it **over-emits** (see DESIGN.md inconsistency
    #3 and ``tests/test_ablations.py``).  Leave it off for correct
    results; it exists to make the discrepancy measurable.

    Every recursion step opens a span on the device (``scan``,
    ``peel_bud``, ``peel_island`` or ``peel_leaf``, the last with its
    join attribute and heavy/light value counts), so a
    :class:`~repro.obs.SpanProfiler` observing it records the
    recursion as a tree whose nesting is the recursion depth.
    """
    require_berge_acyclic(query)
    _check_alignment(query, instance)
    pick = chooser or first_leaf_chooser
    edges = query.edge_names
    if not edges:
        return
    device = instance[edges[0]].device
    with device.span("acyclic_join", kind="algorithm", edges=len(edges)):
        _run(query, instance, partial(emit_product, emitter), pick,
             literal_buds=paper_literal_buds)


def first_leaf_chooser(query: JoinQuery, instance: Instance) -> str:
    """Deterministic default: the lexicographically first leaf."""
    return find_leaves(query)[0]


def smallest_leaf_chooser(query: JoinQuery, instance: Instance) -> str:
    """Greedy heuristic: peel the leaf with the fewest tuples.

    Mirrors the paper's remark that a "smart" algorithm compares
    relation sizes before choosing a peeling strategy (Section 4.1's
    ``L_4`` discussion).  Not always best-branch, but a single run.
    """
    return min(find_leaves(query), key=lambda e: (len(instance[e]), e))


def largest_leaf_chooser(query: JoinQuery, instance: Instance) -> str:
    """Greedy heuristic: peel the leaf with the most tuples."""
    return max(find_leaves(query), key=lambda e: (len(instance[e]), e))


def end_chooser(decisions: str) -> Chooser:
    """A staged left/right chooser for line-shaped queries.

    ``decisions[k]`` says which end to peel at stage ``k`` (number of
    leaves already peeled): ``"L"`` = lowest edge index, ``"R"`` =
    highest.  Runs past the string's end keep using its last character.
    This encodes the paper's line-join strategies (e.g. peeling
    ``{e1,e2}`` vs ``{e4,e5}`` first on ``L_5``) as single plans.
    """

    def choose(query: JoinQuery, instance: Instance) -> str:
        leaves = sorted(find_leaves(query), key=_edge_index)
        stage = getattr(choose, "_initial", None)
        if stage is None:
            choose._initial = len(query.edges)  # type: ignore[attr-defined]
        peeled = max(0, choose._initial - len(query.edges))  # type: ignore[attr-defined]
        d = decisions[min(peeled, len(decisions) - 1)] if decisions else "L"
        return leaves[0] if d.upper() == "L" else leaves[-1]

    return choose


def _edge_index(name: str) -> tuple[int, str]:
    digits = "".join(c for c in name if c.isdigit())
    return (int(digits) if digits else 0, name)


def plan_chooser(plan: Plan) -> Chooser:
    """A chooser following a peel plan, falling back to the first leaf."""

    def choose(query: JoinQuery, instance: Instance) -> str:
        return plan.get(query.structure_key()) or find_leaves(query)[0]

    return choose


def _check_alignment(query: JoinQuery, instance: Instance) -> None:
    for e in query.edge_names:
        if e not in instance:
            raise ValueError(f"query edge {e!r} has no relation bound")
        rel = instance[e]
        physical = set(rel.schema.attributes)
        expected = set(query.edges[e]) | set(rel.fixed)
        if physical != expected:
            raise ValueError(
                f"relation {e!r}: physical columns {sorted(physical)} != "
                f"query attrs + fixed {sorted(expected)}")


def _run(query: JoinQuery, inst: Instance, emit: EmitFn,
         pick: Chooser, *, literal_buds: bool = False) -> None:
    """Algorithm 2's recursion on ``query`` over ``inst``.

    Each level sorts and semijoins its relations and re-runs its
    children once per memory load, so it multiplies their cost by at
    most ``N/M``.  Each step runs inside one span of the device.
    """
    edges = query.edge_names
    if not edges:
        return
    device = inst[edges[0]].device
    if len(edges) == 1:
        e = edges[0]
        with device.span("scan", edge=e, n=len(inst[e])):
            for block in inst[e].data.scan_blocks():
                emit({}, ((e, block),))
        return

    buds = find_buds(query)
    if buds:
        with device.span("peel_bud", edge=buds[0]):
            _peel_bud(query, inst, emit, pick, buds[0],
                      literal=literal_buds)
        return

    islands = find_islands(query)
    if islands:
        island = islands[0]
        with device.span("peel_island", edge=island, n=len(inst[island])):
            _peel_island(query, inst, emit, pick, island,
                         literal_buds=literal_buds)
        return

    leaf = pick(query, inst)
    if leaf not in find_leaves(query):
        raise ValueError(f"chooser returned {leaf!r}, not a leaf of "
                         f"{dict(query.edges)}")
    with device.span("peel_leaf", edge=leaf) as span:
        _peel_leaf(query, inst, emit, pick, leaf, span,
                   literal_buds=literal_buds)


# ---------------------------------------------------------------------------
# Bud elimination (lines 3-4, with the correctness-preserving semijoin)
# ---------------------------------------------------------------------------

def _peel_bud(query: JoinQuery, inst: Instance, emit: EmitFn,
              pick: Chooser, bud: str, *, literal: bool = False) -> None:
    (w,) = query.edges[bud]
    bud_rel = inst[bud].sort_by(w)
    sharers = [e for e in query.edge_names
               if e != bud and w in query.edges[e]]

    rebound = dict(inst)
    del rebound[bud]
    if not literal:
        for e2 in sharers:
            rel2 = inst[e2].sort_by(w)
            rebound[e2] = _merge_semijoin(rel2, bud_rel, w)

    bud_schema = bud_rel.schema
    fixed = dict(bud_rel.fixed)
    w_idx = bud_schema.index(w)

    # Designate one sharer to resolve w's value from child results.
    probe = sharers[0]
    probe_idx = rebound[probe].schema.index(w)

    def emit_with_bud(base: Mapping[str, tuple], factors: Factors,
                      w_val) -> None:
        t = tuple(w_val if i == w_idx else fixed[a]
                  for i, a in enumerate(bud_schema.attributes))
        emit({**base, bud: t}, factors)

    def child_emit(base: Mapping[str, tuple], factors: Factors) -> None:
        _per_probe_value(emit_with_bud, base, factors, probe, probe_idx)

    _run(query.drop_edges([bud]), Instance(rebound), child_emit, pick,
         literal_buds=literal)


def _per_probe_value(emit_at: Callable[[Mapping[str, tuple], Factors,
                                        object], None],
                     base: Mapping[str, tuple], factors: Factors,
                     probe: str, col: int) -> None:
    """Call ``emit_at(base, factors, value)`` per probe value, in order.

    ``value`` is column ``col`` of the probe edge's tuple.  A block
    whose probe tuple is fixed in ``base``, or whose probe factor holds
    one value throughout, passes through whole.  Otherwise the probe's
    factor is split into runs of consecutive equal values.  If that
    factor is not the outermost, the factors outside it are expanded
    into ``base`` first, so the results keep their nested-loop order.
    """
    t = base.get(probe)
    if t is not None:
        emit_at(base, factors, t[col])
        return
    k = next(i for i, (e, _) in enumerate(factors) if e == probe)
    tuples = factors[k][1]
    values = list(map(itemgetter(col), tuples))
    if values.count(values[0]) == len(values):
        emit_at(base, factors, values[0])
        return
    runs = [(v, [u for _, u in run])
            for v, run in groupby(zip(values, tuples), itemgetter(0))]
    outer, inner = factors[:k], factors[k + 1:]
    outer_edges = [e for e, _ in outer]
    for combo in product(*(ts for _, ts in outer)):
        outer_base = dict(base)
        outer_base.update(zip(outer_edges, combo))
        for v, run in runs:
            emit_at(outer_base, ((probe, run), *inner), v)


def _merge_semijoin(rel: Relation, filter_rel: Relation,
                    attr: str) -> Relation:
    """``rel ⋉ filter_rel`` on ``attr``; both sorted on ``attr``.

    One merge pass over both inputs; the (smaller) output is written
    back to disk, preserving sort order on ``attr``.
    """
    with rel.device.phases.phase("semijoin"):
        out = write_semijoin(rel.data, filter_rel.data, rel.key(attr),
                             filter_rel.key(attr),
                             f"{rel.name}.sj_{filter_rel.name}")
    return Relation(rel.schema, out.whole(), attr, rel.fixed)


# ---------------------------------------------------------------------------
# Island elimination (lines 5-9)
# ---------------------------------------------------------------------------

def _peel_island(query: JoinQuery, inst: Instance, emit: EmitFn,
                 pick: Chooser, island: str, *,
                 literal_buds: bool = False) -> None:
    child_q = query.drop_edges([island])
    child_inst = inst.drop(island)
    for chunk in load_chunks(inst[island].data, inst[island].device.M):

        def child_emit(base: Mapping[str, tuple], factors: Factors,
                       _chunk=chunk) -> None:
            emit(base, (*factors, (island, _chunk)))

        _run(child_q, child_inst, child_emit, pick,
             literal_buds=literal_buds)


# ---------------------------------------------------------------------------
# Leaf peeling (lines 10-27)
# ---------------------------------------------------------------------------

def _peel_leaf(query: JoinQuery, inst: Instance, emit: EmitFn,
               pick: Chooser, leaf: str, span, *,
               literal_buds: bool = False) -> None:
    """Lines 10-27; the step's ``span`` gets the heavy/light split."""
    info = leaf_info(query, leaf)
    v = info.join_attr
    M = inst[leaf].device.M

    rel_e = inst[leaf].sort_by(v)                       # line 12
    neighbors = {e2: inst[e2].sort_by(v)                # line 13
                 for e2 in sorted(info.neighbors)}

    key_e = rel_e.key(v)
    groups = group_boundaries(rel_e.data, key_e)
    heavy, light = split_heavy_light(groups, M)
    span.set("v", v)
    span.set("heavy", len(heavy))
    span.set("light", len(light))

    nb_groups = {
        e2: {g.value: g
             for g in group_boundaries(neighbors[e2].data,
                                       neighbors[e2].key(v))}
        for e2 in neighbors}

    _peel_leaf_heavy(query, inst, emit, pick, leaf, info, rel_e, neighbors,
                     nb_groups, heavy, M, literal_buds=literal_buds)
    _peel_leaf_light(query, inst, emit, pick, leaf, info, rel_e, neighbors,
                     light, M, literal_buds=literal_buds)


def _peel_leaf_heavy(query, inst, emit, pick, leaf, info, rel_e, neighbors,
                     nb_groups, heavy_groups, M, *,
                     literal_buds: bool = False) -> None:
    """Lines 14-20: one restricted, disconnected subquery per heavy value.

    A heavy value owns at least ``M`` tuples of ``R(e)`` (§2.3), so at
    most ``N/M`` values are heavy.
    """
    v = info.join_attr
    child_q = (query.drop_edges([leaf])
               .drop_attributes(set(info.unique_attrs) | {v}))
    for g in heavy_groups:
        a = g.value
        restricted: dict[str, Relation] = {}
        missing = False
        for e2, rel2 in neighbors.items():
            grp = nb_groups[e2].get(a)
            if grp is None:
                missing = True
                break
            restricted[e2] = rel2.restrict(grp.start, grp.stop,
                                           attribute=v, value=a)
        if missing:
            continue  # value a joins with nothing; no I/O needed for it
        rebound = dict(inst)
        del rebound[leaf]
        rebound.update(restricted)
        child_inst = Instance(rebound)
        for chunk in load_group_chunks(rel_e.data, g, M):

            def child_emit(base, factors, _chunk=chunk):
                # all of _chunk shares v = a: cross-combine
                emit(base, (*factors, (leaf, _chunk)))

            _run(child_q, child_inst, child_emit, pick,
                 literal_buds=literal_buds)


def _peel_leaf_light(query, inst, emit, pick, leaf, info, rel_e, neighbors,
                     light_groups, M, *,
                     literal_buds: bool = False) -> None:
    """Lines 21-27: chunked light values with semijoin-filtered neighbors.

    Each neighbor keeps one persistent cursor: the chunks arrive in
    increasing ``v`` order, so computing every ``R(e')(M_1)`` costs a
    single scan of ``R(e')`` in total — the property the paper's
    analysis of lines 22–23 relies on.
    """
    v = info.join_attr
    child_q = query.drop_edges([leaf])
    v_idx = rel_e.schema.index(v)
    cursors = {e2: rel2.data.reader() for e2, rel2 in neighbors.items()}
    nb_vidx = {e2: rel2.schema.index(v) for e2, rel2 in neighbors.items()}

    # Resolve v from any one neighbor when matching child results back.
    probe = sorted(neighbors)[0]
    probe_idx = nb_vidx[probe]

    for chunk in load_light_chunks(rel_e.data, light_groups, M):
        values = {t[v_idx] for t in chunk}
        vmax = max(values)
        by_value: dict[object, list[tuple]] = {}
        for t in chunk:
            by_value.setdefault(t[v_idx], []).append(t)

        rebound = dict(inst)
        del rebound[leaf]
        empty = False
        for e2, rel2 in neighbors.items():
            matched = take_through(cursors[e2], nb_vidx[e2], vmax, values)
            rebound[e2] = rel2.rewrite(matched, label=f"sj_{leaf}",
                                       sorted_on=v)
            if not matched:
                empty = True
        if empty:
            continue
        child_inst = Instance(rebound)

        def emit_matches(base, factors, w_val, _by_value=by_value):
            matches = _by_value.get(w_val)
            if matches:
                emit(base, (*factors, (leaf, matches)))

        def child_emit(base, factors, _emit_at=emit_matches):
            _per_probe_value(_emit_at, base, factors, probe, probe_idx)

        _run(child_q, child_inst, child_emit, pick,
             literal_buds=literal_buds)


# ---------------------------------------------------------------------------
# Peel plans: deterministic stand-in for the round-robin simulation
# ---------------------------------------------------------------------------

def enumerate_plans(query: JoinQuery, limit: int | None = None
                    ) -> list[Plan]:
    """All consistent leaf-choice strategies over reachable structures.

    A plan assigns one leaf to every query *structure* reachable during
    the recursion (heavy and light children both explored).  Each plan
    corresponds to a branch of the paper's nondeterministic machine;
    pricing all of them and running the cheapest realizes the
    round-robin guarantee deterministically.  ``limit`` caps the number
    of plans kept per reachable structure (and overall) — enumeration
    is deterministic, exploring leaves in name order, so truncated sets
    are stable.  Queries with many symmetric leaves (large stars) need
    a limit; their branches are cost-equivalent up to petal renaming.

    Plans depend on the structure alone, so the last
    :data:`PLAN_CACHE_SIZE` ``(structure, limit)`` pairs keep theirs:
    separately parsed equal queries share one enumeration.  Every call
    returns fresh dicts, so a caller may change what it gets.
    """
    return [dict(p) for p in _cached_plans(query.structure_key(), limit)]


#: ``(structure, limit)`` pairs whose plans :func:`enumerate_plans` keeps.
PLAN_CACHE_SIZE = 64


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_plans(key: PlanKey, limit: int | None) -> tuple[Plan, ...]:
    plans = _plans_for(JoinQuery(edges=dict(key)), {}, limit)
    return tuple(plans if limit is None else plans[:limit])


def _plans_for(query: JoinQuery, memo: dict[frozenset, list[Plan]],
               limit: int | None) -> list[Plan]:
    key = query.structure_key()
    if key in memo:
        return memo[key]
    if len(query.edges) <= 1:
        memo[key] = [{}]
        return memo[key]
    buds = find_buds(query)
    if buds:
        memo[key] = _plans_for(query.drop_edges([buds[0]]), memo, limit)
        return memo[key]
    islands = find_islands(query)
    if islands:
        memo[key] = _plans_for(query.drop_edges([islands[0]]), memo, limit)
        return memo[key]

    result: list[Plan] = []
    seen: set[frozenset] = set()
    for leaf in find_leaves(query):
        info = leaf_info(query, leaf)
        heavy_child = (query.drop_edges([leaf])
                       .drop_attributes(set(info.unique_attrs)
                                        | {info.join_attr}))
        light_child = query.drop_edges([leaf])
        for ph in _plans_for(heavy_child, memo, limit):
            for pl in _plans_for(light_child, memo, limit):
                merged = _merge_plans(ph, pl)
                if merged is None:
                    continue
                merged[key] = leaf
                sig = frozenset(merged.items())
                if sig not in seen:
                    seen.add(sig)
                    result.append(merged)
                if limit is not None and len(result) >= limit:
                    memo[key] = result
                    return result
    memo[key] = result
    return result


def _merge_plans(a: Plan, b: Plan) -> Plan | None:
    merged = dict(a)
    for k, choice in b.items():
        if merged.setdefault(k, choice) != choice:
            return None
    return merged


# ---------------------------------------------------------------------------
# Best-branch execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanRun:
    """One peel plan's price and the best branch's results.

    ``reads`` and ``writes`` are the plan's exact pool-off price
    (:func:`~repro.core.price.price_plan`); the plan itself does not
    run.  ``emitted`` and ``checksum`` are the winner's, which every
    plan would emit.
    """

    plan: Plan
    reads: int
    writes: int
    emitted: int
    checksum: int

    @property
    def io(self) -> int:
        return self.reads + self.writes


@dataclass(frozen=True)
class BestRun:
    """Every peel plan's price, and which plan ran.

    :attr:`io` is the winner's pool-off price.  On a device without a
    buffer pool that is what the winner's run is charged; with one,
    the device's own counters show the charge after the pool's hits.
    """

    runs: tuple[PlanRun, ...]
    best_index: int

    @property
    def best(self) -> PlanRun:
        return self.runs[self.best_index]

    @property
    def io(self) -> int:
        """Best-branch I/O — the quantity Theorem 3 bounds."""
        return self.best.io

    @property
    def round_robin_io(self) -> int:
        """Pessimistic round-robin cost: #branches × best branch."""
        return len(self.runs) * self.best.io


def acyclic_join_best(query: JoinQuery, instance: Instance,
                      emitter: Emitter | None = None, *,
                      limit: int | None = None) -> BestRun:
    """Price Algorithm 2 under every peel plan; run the cheapest once.

    Each plan is priced by :func:`repro.core.price.price_plan`, a walk
    of its recursion over the input rows that counts exactly the reads
    and writes a run of it would be charged on a device without a
    buffer pool, and performs none.  The walk sees each input's
    ``sorted_on`` (the reducer leaves its outputs sorted), so it skips
    exactly the sorts the real run skips.  The recursion is a
    deterministic function of the instance and the leaves its chooser
    returns, so a plan that gives the same leaf as an already priced
    plan at every structure that walk asked about shares its price.
    The winner is the first plan of least I/O, in plan order.

    With ``emitter``, the winner runs on the *original* instance: its
    device is charged exactly the winner's price (pool off), the
    quantity Theorem 3 bounds (the paper's round-robin simulation pays
    the same up to the constant branch count, reported as
    :attr:`BestRun.round_robin_io`).  Without one, the winner runs on a
    :func:`clone_instance` copy, so the caller's device is charged
    nothing.  Either way the winner's result count and checksum are
    every run's: all plans emit the same result set
    (``tests/test_properties.py`` checks this).  With a buffer pool,
    plans are still priced pool off; the winner's real run then hits
    the pool.  The call runs in an ``acyclic_join_best`` span carrying
    ``branches`` (plans) and ``branches_priced`` (distinct walks).
    """
    device = device_of(instance)
    with device.span("acyclic_join_best", kind="algorithm") as span:
        plans = enumerate_plans(query, limit=limit) or [{}]
        rows = snapshot(instance)
        # One entry per priced branch: the plan's answer for each
        # structure the walk asked about, and the price.
        priced: list[Price] = []
        prices: list[Price] = []
        for plan in plans:
            for done in priced:
                if all(plan.get(k) == leaf
                       for k, leaf in done.asked.items()):
                    prices.append(done)
                    break
            else:
                price = price_plan(query, rows, plan, device.M, device.B)
                priced.append(price)
                prices.append(price)
        ios = [p.reads + p.writes for p in prices]
        best_index = ios.index(min(ios))
        span.set("branches", len(prices))
        span.set("branches_priced", len(priced))

        tally = _Tally(emitter)
        run_on = (instance if emitter is not None
                  else clone_instance(instance)[1])
        acyclic_join(query, run_on, tally,
                     chooser=plan_chooser(plans[best_index]))
    runs = tuple(PlanRun(plan, p.reads, p.writes, tally.count,
                         tally.checksum)
                 for plan, p in zip(plans, prices))
    return BestRun(runs=runs, best_index=best_index)


class _Tally(CountingEmitter):
    """Counts and checksums results, passing them on to ``target``.

    Algorithm 2 emits factorized blocks only, so only
    :meth:`emit_product` forwards.
    """

    def __init__(self, target: Emitter | None) -> None:
        super().__init__()
        self._target = target

    def emit_product(self, base: Mapping[str, tuple],
                     factors: Factors) -> None:
        super().emit_product(base, factors)
        if self._target is not None:
            emit_product(self._target, base, factors)


def clone_instance(instance: Instance,
                   M: int | None = None, B: int | None = None
                   ) -> tuple[Device, Instance]:
    """Copy an instance onto a fresh device (inputs written free).

    Each relation's rows are copied once, into a list that becomes a
    sealed file on the new device in one uncharged step
    (:meth:`~repro.em.file.EMFile.fill_sealed`: no writer, no
    per-tuple work).  The copy models inputs that already sit on disk,
    so both devices are suspended while the rows move: the read must
    not bill the source, nor the write the copy.  The copy keeps the
    relation's physical tuple order, ``sorted_on`` and ``fixed``, so a
    run on the copy skips exactly the sorts a run on the original
    skips and is charged what the original would be.
    """
    src = device_of(instance)
    dev = Device(M=M or src.M, B=B or src.B,
                 mem_slack=src.memory.slack,
                 strict_memory=src.memory.strict,
                 buffer_pool=src.pool_config)
    rels = {}
    with src.stats.suspend(), dev.stats.suspend():
        for name, rel in instance.items():
            f = dev.new_file(rel.name)
            f.fill_sealed(rel.peek_tuples())  # a fresh slice; the file keeps it
            rels[name] = Relation(rel.schema, f.whole(), rel.sorted_on,
                                  rel.fixed)
    return dev, Instance(rels)
