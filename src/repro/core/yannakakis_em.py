"""External-memory Yannakakis — the pairwise baseline (Section 1.2).

The straightforward port of Yannakakis' algorithm observed in [11]:
fully reduce, then perform a series of pairwise joins, writing every
intermediate result to disk.  Its cost is ``Õ(|Q(R)|/B)`` (plus linear
terms), which is only optimal when results must be written out.  In the
*emit* model it is worse than the optimal algorithm by a factor up to
``M`` already for two relations — the gap benchmark
``bench_yannakakis_gap`` measures.

Intermediates are materialized as wide relations whose schema is the
union of the joined attributes; participating input tuples are
recovered at the end by projection (relations are sets, so projections
identify the original tuples uniquely), keeping the emit interface
identical to the optimal algorithm's.
"""

from __future__ import annotations

from repro.core.emit import CallbackEmitter, Emitter
from repro.core.reducer_em import full_reduce_em
from repro.core.twoway import sort_merge_join
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.query.hypergraph import JoinQuery, require_berge_acyclic
from repro.query.reduce import elimination_order


def yannakakis_em(query: JoinQuery, instance: Instance, emitter: Emitter,
                  *, reduce_first: bool = True,
                  materialize_output: bool = True) -> None:
    """Pairwise external-memory Yannakakis with materialized intermediates.

    With reduced inputs every pairwise intermediate is bounded by the
    final output, so each join sorts and rewrites at most
    ``|Q(R)| + N`` tuples.

    Joins follow the reverse ear-elimination order, so each pairwise
    join shares an attribute with the accumulated intermediate (or is a
    cross product for disconnected queries).  Every intermediate is
    written to disk (charged), and — matching the ``Õ(|Q(R)|/B)``
    algorithm of [11] the paper measures against — so is the final
    result (``materialize_output=True``).  That write is exactly what
    the emit model makes unnecessary, and is the source of the
    factor-``M`` gap of Section 1.2; pass ``materialize_output=False``
    for the emit-only variant.
    """
    require_berge_acyclic(query)
    steps = elimination_order(query)
    if not steps:
        return
    device = instance[steps[0].edge].device
    with device.span("yannakakis_em", kind="algorithm",
                     edges=len(query.edges)):
        inst = full_reduce_em(query, instance) if reduce_first else instance
        order = [s.edge for s in reversed(steps)]
        schemas = {e: inst[e].schema for e in query.edges}

        acc = inst[order[0]]
        for i, e in enumerate(order[1:], start=1):
            last = i == len(order) - 1
            if last:
                emit_pair = _final_emit(emitter, query, schemas, acc,
                                        inst[e], materialize_output)
                _pairwise(acc, inst[e], None, emit_pair)
                emit_pair.close()
            else:
                acc = _pairwise(acc, inst[e], f"I{i}", None)
        if len(order) == 1:
            for t in acc.data.scan():
                emitter.emit({order[0]: t})


def _pairwise(left: Relation, right: Relation, out_label: str | None,
              emit_fn) -> Relation | None:
    """One pairwise join; materializes when ``out_label`` is given."""
    out_schema = _joined_schema(left, right, out_label or "final")
    l_attrs = left.schema.attributes
    r_extra = [a for a in right.schema.attributes if a not in left.schema]
    r_idx = [right.schema.index(a) for a in r_extra]

    if out_label is None:
        def on_pair(result):
            emit_fn(result[left.name], result[right.name])
        sort_merge_join(left, right, CallbackEmitter(on_pair))
        return None

    device = left.device
    out_file = device.new_file(out_label)
    writer = out_file.writer()

    def on_pair(result, _w=writer):
        lt, rt = result[left.name], result[right.name]
        _w.append(lt + tuple(rt[i] for i in r_idx))

    sort_merge_join(left, right, CallbackEmitter(on_pair))
    writer.close()
    return Relation(schema=out_schema, data=out_file.whole())


def _joined_schema(left: Relation, right: Relation,
                   name: str) -> RelationSchema:
    attrs = left.schema.attributes + tuple(
        a for a in right.schema.attributes if a not in left.schema)
    return RelationSchema(name, attrs)


class _final_emit:
    """Project final wide rows back to per-edge tuples; optionally write.

    Callable as ``emit_pair(acc_tuple, last_tuple)``; with
    ``materialize`` set, every wide row is also appended to an output
    file (the [11] behaviour), charged to the device.
    """

    def __init__(self, emitter: Emitter, query: JoinQuery, schemas,
                 acc: Relation, last: Relation, materialize: bool) -> None:
        self._emitter = emitter
        self._acc_schema = acc.schema
        self._last_schema = last.schema
        wide_attrs = acc.schema.attributes + tuple(
            a for a in last.schema.attributes if a not in acc.schema)
        position = {a: i for i, a in enumerate(wide_attrs)}
        self._plan = {e: [position[a] for a in schemas[e].attributes]
                      for e in query.edges}
        self._writer = None
        if materialize:
            out = acc.device.new_file("Q_out")
            self._writer = out.writer()

    def __call__(self, acc_t: tuple, last_t: tuple) -> None:
        extra = tuple(v for a, v in zip(self._last_schema.attributes,
                                        last_t)
                      if a not in self._acc_schema)
        wide = acc_t + extra
        if self._writer is not None:
            self._writer.append(wide)
        self._emitter.emit({e: tuple(wide[i] for i in idxs)
                            for e, idxs in self._plan.items()})

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
