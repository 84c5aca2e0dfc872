"""The planner: one entry point dispatching to the paper's algorithms.

:func:`execute` is the library's main public API.  It checks
Berge-acyclicity, fully reduces the instance (the paper's standing
assumption, Section 1.2), classifies the query's shape, and dispatches:

=================  ========================================================
shape              algorithm
=================  ========================================================
single relation    scan + emit
two relations      instance-optimal sort-merge hybrid (Section 3)
line join          the Section 6 dispatcher (Algorithms 1/2/4/5 +
                   reductions) per the balancedness regime
star / lollipop /  Algorithm 2, best peel branch (Sections 5, 7.2, 7.3)
dumbbell
general acyclic    Algorithm 2, best peel branch (Theorems 2–3)
=================  ========================================================

The returned :class:`ExecutionReport` records the shape, the algorithm
label, and the I/O charged to the instance's device during execution
(reduction I/O reported separately).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.acyclic import acyclic_join_best
from repro.core.emit import Emitter
from repro.core.line7 import line_join_auto
from repro.core.reducer_em import full_reduce_em
from repro.core.twoway import sort_merge_join
from repro.data.instance import Instance
from repro.query.hypergraph import JoinQuery, require_berge_acyclic
from repro.query.shapes import classify_shape


@dataclass(frozen=True)
class ExecutionReport:
    """What the planner did and what it cost."""

    shape: str
    algorithm: str
    reduce_reads: int
    reduce_writes: int
    reads: int
    writes: int

    @property
    def io(self) -> int:
        """Join I/O (excluding reduction)."""
        return self.reads + self.writes

    @property
    def total_io(self) -> int:
        """Join plus reduction I/O."""
        return self.io + self.reduce_reads + self.reduce_writes


def estimate_memory_need(query: JoinQuery, *, M: int, B: int) -> int:
    """Planner-estimated peak memory a query needs under ``(M, B)``.

    This is what a query *declares* to the service's admission
    controller.  The paper's algorithms are designed to fill the whole
    memory — sorting and chunked loads size themselves to ``M`` — so
    every genuine join needs its full budget; only the degenerate
    shapes are cheaper: an empty query touches nothing and a
    single-relation scan streams one block at a time.
    """
    shape = classify_shape(query)
    if shape == "empty":
        return 0
    if shape == "single":
        return min(B, M)
    return M


def execute(query: JoinQuery, instance: Instance, emitter: Emitter, *,
            reduce_first: bool = True,
            plan_limit: int = 16) -> ExecutionReport:
    """Plan and run ``query`` over ``instance``, emitting every result.

    ``reduce_first`` runs the external-memory full reducer before
    joining (skip it only for instances known to be reduced).
    ``plan_limit`` caps the peel plans Algorithm 2 prices.  The run
    is one ``execute`` span whose ``shape`` and ``algorithm``
    attributes record the dispatch.
    """
    require_berge_acyclic(query)
    devices = {rel.device for rel in instance.values()}
    if len(devices) != 1:
        raise ValueError("instance spans multiple devices")
    (device,) = devices

    with device.span("execute", kind="algorithm",
                     edges=len(query.edges)) as span:
        before = device.stats.snapshot()
        if reduce_first and len(query.edges) > 1:
            with device.span("full_reduce"):
                instance = full_reduce_em(query, instance)
        after_reduce = device.stats.snapshot()
        reduce_cost = after_reduce.delta_since(before)

        shape = classify_shape(query)
        span.set("shape", shape)
        algorithm = _dispatch(shape, query, instance, emitter, plan_limit)
        span.set("algorithm", algorithm)

        join_cost = device.stats.delta_since(after_reduce)
    return ExecutionReport(shape=shape, algorithm=algorithm,
                           reduce_reads=reduce_cost.reads,
                           reduce_writes=reduce_cost.writes,
                           reads=join_cost.reads, writes=join_cost.writes)


def _dispatch(shape: str, query: JoinQuery, instance: Instance,
              emitter: Emitter, plan_limit: int) -> str:
    if shape == "empty":
        return "noop"
    if shape == "single":
        (e,) = query.edge_names
        for t in instance[e].data.scan():
            emitter.emit({e: t})
        return "scan"
    if shape == "two-relation":
        e1, e2 = query.edge_names
        sort_merge_join(instance[e1], instance[e2], emitter)
        return "two-way-sort-merge"
    if shape == "line":
        return line_join_auto(query, instance, emitter,
                              plan_limit=plan_limit)
    if shape in ("star", "lollipop", "dumbbell", "general-acyclic"):
        acyclic_join_best(query, instance, emitter, limit=plan_limit)
        return f"algorithm-2-best-branch[{shape}]"
    raise ValueError(f"cannot execute shape {shape!r}")

