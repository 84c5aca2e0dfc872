"""Shared helpers for the benchmark harness.

Every benchmark regenerates one artifact of the paper (a Table 1 row, a
worked example, or an optimality theorem's sweep) and prints the rows it
measured in a paper-shaped table.  Absolute numbers depend on the
simulated machine; the *shape* — who wins, by what factor, where the
crossover sits — is the reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro import Device, Instance
from repro.core import CountingEmitter
from repro.em import PoolConfig
from repro.obs import Tracer


def run_em(query, schemas, data, runner: Callable, M: int, B: int,
           pool: PoolConfig | None = None, **kwargs) -> dict:
    """Run an EM algorithm on a fresh device; return io/result counts.

    ``pool`` opts the device into a buffer pool; the pool is flushed
    before counting so totals are deterministic, and the returned dict
    gains ``hits``/``misses``/``hit_rate``.
    """
    device = Device(M=M, B=B, buffer_pool=pool)
    instance = Instance.from_dicts(device, schemas, data)
    emitter = CountingEmitter()
    runner(query, instance, emitter, **kwargs)
    device.flush_pool()
    out = {"io": device.stats.total, "reads": device.stats.reads,
           "writes": device.stats.writes, "results": emitter.count,
           "peak_mem": device.memory.peak}
    if pool is not None:
        c = device.stats.cache
        out.update({"hits": c.hits, "misses": c.misses,
                    "hit_rate": c.hit_rate})
    return out


def best_branch(query, schemas, data, M: int, B: int,
                limit: int = 12,
                pool: PoolConfig | None = None) -> dict:
    """Measure Algorithm 2's best peel branch."""
    from repro.core import acyclic_join_best

    device = Device(M=M, B=B, buffer_pool=pool)
    instance = Instance.from_dicts(device, schemas, data)
    best = acyclic_join_best(query, instance, limit=limit)
    return {"io": best.io, "reads": best.best.reads,
            "writes": best.best.writes, "results": best.best.emitted,
            "branches": len(best.runs),
            "round_robin_io": best.round_robin_io}


def print_table(title: str, rows: Sequence[Mapping], capsys=None) -> None:
    """Print measurement rows as an aligned table (outside capture)."""
    def do_print():
        print()
        print(f"== {title} ==")
        if not rows:
            print("(no rows)")
            return
        cols = list(rows[0].keys())
        widths = {c: max(len(str(c)),
                         *(len(_fmt(r[c])) for r in rows)) for c in cols}
        header = "  ".join(str(c).ljust(widths[c]) for c in cols)
        print(header)
        print("-" * len(header))
        for r in rows:
            print("  ".join(_fmt(r[c]).ljust(widths[c]) for c in cols))

    if capsys is not None:
        with capsys.disabled():
            do_print()
    else:
        do_print()


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


# -- pinned Table-1 baselines (BENCH_table1.json) ----------------------
#
# One deterministic fixed instance per Table-1 query class, measured
# pool-off (the paper-faithful counts) and pool-on (cache behaviour).
# generate_report.py writes/checks the committed baseline from these;
# CI fails on any drift in the counters.

#: LRU frames for the pooled leg of each baseline measurement.
def _baseline_pool(M: int, B: int) -> PoolConfig:
    return PoolConfig(frames=max(2, M // B), policy="lru")


def table1_baseline_cases() -> dict:
    """Query class -> ``(query, schemas, data, M, B, runner)``.

    Every instance is a fixed deterministic construction (no RNG), so
    the measured counters are exactly reproducible — that is what makes
    them pinnable.
    """
    from repro.core import (acyclic_join_best, execute, line3_join,
                            nested_loop_join)
    from repro.core.triangle import triangle_join
    from repro.query import (JoinQuery, line_query, star_query,
                             triangle_query)
    from repro.workloads import (cross_product_instance,
                                 fig3_line3_instance, schemas_for,
                                 star_worstcase_instance)

    cases: dict = {}

    q2 = line_query(2)
    cases["two_relations"] = (
        q2, schemas_for(q2),
        {"e1": [(i, 0) for i in range(64)],
         "e2": [(0, j) for j in range(64)]},
        16, 4,
        lambda q, i, e: nested_loop_join(i["e1"], i["e2"], e))

    schemas, data = fig3_line3_instance(32, 32)
    cases["line3"] = (line_query(3), schemas, data, 4, 2,
                      lambda q, i, e: line3_join(q, i, e))

    schemas, data = fig3_line3_instance(16, 16)
    cases["line3_planner"] = (line_query(3), schemas, data, 8, 2,
                              lambda q, i, e: execute(q, i, e))

    schemas, data = star_worstcase_instance([16, 16])
    cases["star"] = (star_query(2), schemas, data, 4, 2,
                     lambda q, i, e: acyclic_join_best(q, i, e, limit=16))

    broom = JoinQuery(edges={
        "e1": frozenset({"a", "b"}),
        "e2": frozenset({"b", "c"}),
        "e3": frozenset({"c", "p", "q"}),
        "e4": frozenset({"p", "x"}),
        "e5": frozenset({"q", "y"}),
    })
    dom = {a: (3 if a in ("a", "x", "y") else 2)
           for a in broom.attributes}
    schemas, data = cross_product_instance(broom, dom)
    cases["acyclic_broom"] = (broom, schemas, data, 4, 2,
                              lambda q, i, e: acyclic_join_best(
                                  q, i, e, limit=16))

    clique = [(i, j) for i in range(8) for j in range(8)]
    cases["triangle"] = (
        triangle_query(),
        {"e1": ("v1", "v2"), "e2": ("v1", "v3"), "e3": ("v2", "v3")},
        {"e1": clique, "e2": clique, "e3": clique},
        32, 4,
        lambda q, i, e: triangle_join(q, i, e))

    return cases


def measure_class(query, schemas, data, runner: Callable, M: int, B: int,
                  *, pool: PoolConfig | None = None,
                  tracer: Tracer | None = None) -> dict:
    """One full baseline measurement: I/O, phases, memory, cache.

    Like :func:`run_em` but returns the whole counter tree the baseline
    pins (per-phase breakdown and peak memory included).
    """
    device = Device(M=M, B=B, buffer_pool=pool,
                    observers=[tracer] if tracer else [])
    instance = Instance.from_dicts(device, schemas, data)
    emitter = CountingEmitter()
    runner(query, instance, emitter)
    device.flush_pool()
    out = {"io": {"reads": device.stats.reads,
                  "writes": device.stats.writes,
                  "total": device.stats.total},
           "results": emitter.count,
           "phases": device.phases.report(),
           "peak_mem": device.memory.peak}
    if pool is not None:
        out["cache"] = device.stats.cache.as_dict()
    return out


def table1_baseline(tracer_summaries: dict | None = None) -> dict:
    """Measure every baseline class pool-off and pool-on.

    The pinned pool-off leg runs with no observer, the configuration
    library callers run in (and the one that skips replaying the
    merges' charge order, see ``Device.order_seen``).  When
    ``tracer_summaries`` is a dict, each class's pool-off leg is run a
    second time with a :class:`~repro.obs.Tracer` observing; its exact
    summary is stored under the class name (the CI artifact), and a
    :class:`RuntimeError` is raised if its counters differ from the
    plain leg's.
    """
    out: dict = {}
    for name, (query, schemas, data, M, B, runner) in sorted(
            table1_baseline_cases().items()):
        pool_off = measure_class(query, schemas, data, runner, M, B)
        if tracer_summaries is not None:
            tracer = Tracer(capacity=1024)
            traced = measure_class(query, schemas, data, runner, M, B,
                                   tracer=tracer)
            if traced != pool_off:
                raise RuntimeError(
                    f"{name}: pool off, the traced counters {traced} "
                    f"differ from the plain ones {pool_off}")
            tracer_summaries[name] = tracer.summary()
        pool_on = measure_class(query, schemas, data, runner, M, B,
                                pool=_baseline_pool(M, B))
        out[name] = {"machine": {"M": M, "B": B},
                     "pool_off": pool_off, "pool_on": pool_on}
    return out
