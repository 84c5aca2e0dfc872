"""Section 6.3: unbalanced line joins with 6, 7 and 8 relations.

* :func:`line7_unbalanced_join` — **Algorithm 5**: materialize
  ``S = R3 ⋈ R4 ⋈ R5`` with Algorithm 1, then run ``AcyclicJoin`` on
  the residual acyclic query ``{R1, R2, S, R6, R7}`` (the middle
  relation now has two unique attributes), mapping ``S``'s rows back to
  their three participating tuples at emit time.
* :func:`line6_unbalanced_join` — the ``L6`` case: nested-loop join
  with the end relation as the outer and the unbalanced 5-line solved
  by Algorithm 4 as the inner.
* :func:`line7_cover11_join` — the ``L7`` case with optimal cover
  ``(1,1,0,1,0,1,1)``: both end relations become nested-loop outers
  around Algorithm 4 on the middle five.
* :func:`line8_join` — ``L8`` "can be reduced to smaller joins": one
  end becomes a nested-loop outer around the ``L7`` dispatcher.
* :func:`line_join_auto` — the Section 6 dispatcher choosing among all
  of the above based on :func:`repro.query.lines.classify_line`.

The generic composition device is :func:`nlj_outer`: load the outer
relation one memory chunk at a time and re-run the entire inner join
per chunk — cost ``ceil(N_outer/M) × cost(inner)``, exactly the
paper's accounting for these reductions.
"""

from __future__ import annotations

from typing import Callable

from repro.core.acyclic import acyclic_join_best
from repro.core.emit import CallbackEmitter, Emitter
from repro.core.line3 import line3_join
from repro.core.line5 import _materialize_line3, line5_unbalanced_join
from repro.core.twoway import sort_merge_join
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.em.loaders import load_chunks
from repro.query.hypergraph import JoinQuery
from repro.query.lines import classify_line, is_balanced, line_cover
from repro.query.shapes import ChainInfo, detect_line

InnerRunner = Callable[[Emitter], None]


def nlj_outer(outer: Relation, match_attr: str, probe_edge: str,
              probe_attr_index: int, inner: InnerRunner,
              emitter: Emitter) -> None:
    """Nested-loop composition: outer chunks × a re-run inner join.

    For each memory load of ``outer``, the inner join is executed from
    scratch (recharging its I/O — the source of the ``N_outer/M``
    multiplicative factor); every inner result is matched against the
    resident chunk on ``match_attr`` (resolved from ``probe_edge``'s
    tuple at ``probe_attr_index``) and emitted combined.
    """
    device = outer.device
    o_idx = outer.schema.index(match_attr)
    for chunk in load_chunks(outer.data, device.M):
        by_value: dict[object, list[tuple]] = {}
        for t in chunk:
            by_value.setdefault(t[o_idx], []).append(t)

        def on_inner(result, _by_value=by_value):
            value = result[probe_edge][probe_attr_index]
            out = dict(result)
            for t in _by_value.get(value, ()):
                out[outer.name] = t
                emitter.emit(dict(out))

        inner(CallbackEmitter(on_inner))


# ---------------------------------------------------------------------------
# Algorithm 5
# ---------------------------------------------------------------------------

def line7_unbalanced_join(query: JoinQuery, instance: Instance,
                          emitter: Emitter, *, plan_limit: int = 8) -> None:
    """Algorithm 5 on a 7-relation line join.

    Materializing ``S`` costs ``Õ(N3·N5/(MB))`` plus its write, and
    Section 6.3 bounds the residual ``AcyclicJoin`` by the same
    unbalanced term.
    """
    chain = detect_line(query)
    if chain is None or len(chain.edges) != 7:
        raise ValueError("line7_unbalanced_join requires a 7-relation "
                         "line query")
    e = chain.edges                   # e[0..6] = R1..R7
    v = chain.join_attrs              # v[0..5] = v2..v7 (shared attrs)
    r3, r4, r5 = instance[e[2]], instance[e[3]], instance[e[4]]
    with r3.device.span("line7_unbalanced_join", kind="algorithm"):
        _line7_body(query, instance, emitter, plan_limit, e, v,
                    r3, r4, r5)


def _line7_body(query, instance, emitter, plan_limit, e, v,
                r3, r4, r5) -> None:
    # Line 1: S = R3 ⋈ R4 ⋈ R5 by Algorithm 1, written to disk.
    s_rel = _materialize_line3(r3, r4, r5, v[2], v[3], "S")

    # Line 2: the residual acyclic query {R1, R2, S, R6, R7}.
    s_attrs = s_rel.schema.attributes        # chain order (v3..v6)
    edges = {e[0]: query.edges[e[0]], e[1]: query.edges[e[1]],
             "S": frozenset(s_attrs),
             e[5]: query.edges[e[5]], e[6]: query.edges[e[6]]}
    residual_q = JoinQuery(edges=edges)
    residual_inst = Instance({e[0]: instance[e[0]],
                              e[1]: instance[e[1]], "S": s_rel,
                              e[5]: instance[e[5]], e[6]: instance[e[6]]})

    # Emit adapter: split each S row back into its R3, R4, R5 tuples.
    s_pos = {a: i for i, a in enumerate(s_attrs)}
    plan = [(rel.name, [s_pos[a] for a in rel.schema.attributes])
            for rel in (r3, r4, r5)]

    class _Expand:
        def emit(self, result):
            out = {k: t for k, t in result.items() if k != "S"}
            srow = result["S"]
            for name, idxs in plan:
                out[name] = tuple(srow[j] for j in idxs)
            emitter.emit(out)

    # Line 3: AcyclicJoin on the residual query (best peel branch).
    acyclic_join_best(residual_q, residual_inst, _Expand(),
                      limit=plan_limit)


# ---------------------------------------------------------------------------
# L6 / L7-cover-(1,1,0,1,0,1,1) / L8 reductions
# ---------------------------------------------------------------------------

def _subchain_query(query: JoinQuery, chain: ChainInfo,
                    lo: int, hi: int) -> JoinQuery:
    """The line subquery on chain positions ``[lo, hi)``."""
    keep = set(chain.edges[lo:hi])
    return query.drop_edges([e for e in query.edges if e not in keep])


def line6_unbalanced_join(query: JoinQuery, instance: Instance,
                          emitter: Emitter) -> None:
    """``L6`` with no balanced split: end relation NLJ over Algorithm 4.

    The paper's case analysis: the optimal cover is ``(1,0,1,0,1,1)``
    (the first five relations unbalanced — outer ``R6``) or its mirror
    (outer ``R1``).  Cost ``Õ(N_outer/M · cost(Algorithm 4))``.
    """
    chain = detect_line(query)
    if chain is None or len(chain.edges) != 6:
        raise ValueError("line6_unbalanced_join requires a 6-relation "
                         "line query")
    sizes = [len(instance[e]) for e in chain.edges]
    if not is_balanced(sizes[:5]):
        outer_pos, lo, hi = 5, 0, 5
    else:
        outer_pos, lo, hi = 0, 1, 6
    _nlj_end_reduction(query, instance, emitter, chain, outer_pos, lo, hi,
                       line5_unbalanced_join)


def line7_cover11_join(query: JoinQuery, instance: Instance,
                       emitter: Emitter) -> None:
    """``L7`` with optimal cover ``(1,1,0,1,0,1,1)`` (or mirrored).

    Both end relations become nested-loop outers around Algorithm 4 on
    the middle five relations — cost
    ``Õ(N1/M · N7/M · cost(Algorithm 4 on R2..R6))``.
    """
    chain = detect_line(query)
    if chain is None or len(chain.edges) != 7:
        raise ValueError("line7_cover11_join requires a 7-relation "
                         "line query")
    middle_q = _subchain_query(query, chain, 1, 6)

    def inner_mid(em: Emitter) -> None:
        line5_unbalanced_join(middle_q, instance, em)

    # Wrap with the R7 outer, then the R1 outer.
    r7 = instance[chain.edges[6]]
    r1 = instance[chain.edges[0]]
    e6 = chain.edges[5]
    e2 = chain.edges[1]
    v7 = chain.join_attrs[5]
    v2 = chain.join_attrs[0]

    def inner_with_r7(em: Emitter) -> None:
        nlj_outer(r7, v7, e6, instance[e6].schema.index(v7), inner_mid, em)

    nlj_outer(r1, v2, e2, instance[e2].schema.index(v2), inner_with_r7,
              emitter)


def line8_join(query: JoinQuery, instance: Instance,
               emitter: Emitter) -> None:
    """``L8`` reduced to smaller joins: end NLJ over the ``L7`` solver."""
    chain = detect_line(query)
    if chain is None or len(chain.edges) != 8:
        raise ValueError("line8_join requires an 8-relation line query")
    sub_q = _subchain_query(query, chain, 0, 7)

    def inner(em: Emitter) -> None:
        line_join_auto(sub_q, instance, em)

    outer = instance[chain.edges[7]]
    e7 = chain.edges[6]
    v8 = chain.join_attrs[6]
    nlj_outer(outer, v8, e7, instance[e7].schema.index(v8), inner, emitter)


def _nlj_end_reduction(query: JoinQuery, instance: Instance,
                       emitter: Emitter, chain: ChainInfo, outer_pos: int,
                       lo: int, hi: int, inner_fn) -> None:
    sub_q = _subchain_query(query, chain, lo, hi)

    def inner(em: Emitter) -> None:
        inner_fn(sub_q, instance, em)

    outer = instance[chain.edges[outer_pos]]
    if outer_pos == 0:
        probe_edge = chain.edges[1]
        attr = chain.join_attrs[0]
    else:
        probe_edge = chain.edges[outer_pos - 1]
        attr = chain.join_attrs[outer_pos - 1]
    nlj_outer(outer, attr, probe_edge,
              instance[probe_edge].schema.index(attr), inner, emitter)


# ---------------------------------------------------------------------------
# The Section 6 dispatcher
# ---------------------------------------------------------------------------

def line_join_auto(query: JoinQuery, instance: Instance, emitter: Emitter,
                   *, plan_limit: int = 16) -> str:
    """Dispatch a line join to the paper's per-regime algorithm.

    Returns a label naming the algorithm used (for reports and tests).
    """
    chain = detect_line(query)
    if chain is None:
        raise ValueError("line_join_auto requires a line query")
    n = len(chain.edges)
    sizes = [len(instance[e]) for e in chain.edges]

    if n == 2:
        sort_merge_join(instance[chain.edges[0]], instance[chain.edges[1]],
                        emitter)
        return "two-way-sort-merge"
    if n == 3:
        line3_join(query, instance, emitter)
        return "algorithm-1"

    cls = classify_line(sizes)
    if cls.regime in ("balanced-odd", "balanced-even"):
        acyclic_join_best(query, instance, emitter, limit=plan_limit)
        return "algorithm-2-best-branch"
    if n == 5:
        line5_unbalanced_join(query, instance, emitter)
        return "algorithm-4"
    if n == 6:
        line6_unbalanced_join(query, instance, emitter)
        return "l6-end-nlj+algorithm-4"
    if n == 7:
        cover = line_cover(sizes)
        if cover in ((1, 1, 0, 1, 0, 1, 1), (1, 1, 0, 1, 0, 1, 1)[::-1]):
            line7_cover11_join(query, instance, emitter)
            return "l7-double-nlj+algorithm-4"
        line7_unbalanced_join(query, instance, emitter)
        return "algorithm-5"
    if n == 8:
        line8_join(query, instance, emitter)
        return "l8-end-nlj+l7"
    acyclic_join_best(query, instance, emitter, limit=plan_limit)
    return "algorithm-2-best-branch(optimality-open)"
