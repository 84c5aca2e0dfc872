"""Algorithm 4: the unbalanced 5-relation line join (Section 6.3).

When ``N1·N3·N5 < N2·N4`` the worst-case instance construction of
Theorem 5 is infeasible and Algorithm 2 stops being optimal; the I/O
lower bound drops to ``Õ(N1·N3·N5/(M²B) + N2/B + N4/B)`` (plus the
independent-pair terms).  Algorithm 4 achieves it:

1. run Algorithm 1 on ``(R1, R2, R3)``, writing the results ``S`` to
   disk (``Õ(N1·N3/(MB))`` to compute; ``O(N1·N3/B)`` to write — the
   write is affordable exactly because the target bound for the
   unbalanced case carries the larger ``N1·N3·N5/(M²B)`` term);
2. run Algorithm 1 on ``(R3, R4, R5)``, writing ``T``;
3. sort ``R3``, ``S`` and ``T`` by ``(v3, v4)`` lexicographically;
4. for each ``t ∈ R3``: semijoin ``S(t) = S ⋉ t`` and ``T(t) = T ⋉ t``
   (one coordinated scan across the loop), then emit
   ``S(t) ⋈ T(t)`` by blocked nested loop — ``|S(t)| ≤ N1`` and
   ``|T(t)| ≤ N5`` because a fixed ``(v3, v4)`` pins the ``R2``/``R4``
   tuple per ``R1``/``R5`` tuple.

Emitted results carry all five participating tuples (recovered by
projection from the materialized path rows; relations are sets, so the
projection is exact).
"""

from __future__ import annotations

from repro.core.emit import CallbackEmitter, Emitter
from repro.core.line3 import _line3
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.em.file import EMFile
from repro.em.loaders import load_chunks
from repro.em.sort import external_sort
from repro.query.hypergraph import JoinQuery
from repro.query.shapes import detect_line


def line5_unbalanced_join(query: JoinQuery, instance: Instance,
                          emitter: Emitter) -> None:
    """Run Algorithm 4 on a 5-relation line join."""
    chain = detect_line(query)
    if chain is None or len(chain.edges) != 5:
        raise ValueError("line5_unbalanced_join requires a 5-relation "
                         "line query")
    e1, e2, e3, e4, e5 = chain.edges
    v2, v3, v4, v5 = chain.join_attrs
    rels = [instance[e] for e in chain.edges]
    with rels[0].device.span("line5_unbalanced_join", kind="algorithm",
                             sizes=[len(r) for r in rels]):
        _line5(rels, [v2, v3, v4, v5], emitter)


def _materialize_line3(r_a: Relation, r_b: Relation, r_c: Relation,
                       va: str, vb: str, label: str) -> Relation:
    """Run Algorithm 1 and write the 4-attribute path rows to disk."""
    device = r_a.device
    out = device.new_file(label)
    writer = out.writer()
    name_a, name_b, name_c = r_a.name, r_b.name, r_c.name
    # Path row layout: a's non-shared attr, va, vb, c's non-shared attr —
    # i.e. the four attributes in chain order.
    a_first = [x for x in r_a.schema.attributes if x != va][0]
    c_last = [x for x in r_c.schema.attributes if x != vb][0]
    ia0 = r_a.schema.index(a_first)
    ia1 = r_a.schema.index(va)
    ib1 = r_b.schema.index(vb)
    ic1 = r_c.schema.index(c_last)

    def write_row(result, _w=writer):
        ta, tb, tc = result[name_a], result[name_b], result[name_c]
        _w.append((ta[ia0], ta[ia1], tb[ib1], tc[ic1]))

    _line3(r_a, r_b, r_c, va, vb, CallbackEmitter(write_row))
    writer.close()
    schema = RelationSchema(label, (a_first, va, vb, c_last))
    return Relation(schema=schema, data=out.whole())


def _line5(rels: list[Relation], joins: list[str],
           emitter: Emitter) -> None:
    """Algorithm 4's lines 1-8 on the chain's five relations.

    Lines 5-8 make one coordinated pass of ``S`` and ``T`` over
    ``R3``'s ``(v3, v4)`` pairs, and ``Σ ⌈|S(t)|/M⌉·|T(t)|/B ≤
    N1·N3·N5/(M²B) + N·N5/(MB)``.
    """
    r1, r2, r3, r4, r5 = rels
    v2, v3, v4, v5 = joins
    device = r1.device
    M = device.M

    # Lines 1-2: the two overlapping 3-line joins, written to disk.
    s_rel = _materialize_line3(r1, r2, r3, v2, v3, "S")   # (v1,v2,v3,v4)
    t_rel = _materialize_line3(r3, r4, r5, v4, v5, "T")   # (v3,v4,v5,v6)

    # Line 3-4: sort R3, S, T by (v3, v4) lexicographically.
    key34_r3 = r3.schema.multi_key((v3, v4))
    r3s_file = external_sort(r3.data, key34_r3, name="R3.by34")
    s_key = s_rel.schema.multi_key((v3, v4))
    t_key = t_rel.schema.multi_key((v3, v4))
    s_file = external_sort(s_rel.data, s_key, name="S.by34")
    t_file = external_sort(t_rel.data, t_key, name="T.by34")

    # Lines 5-8: coordinated scan over R3's (v3, v4) pairs.
    s_reader = s_file.reader()
    t_reader = t_file.reader()
    projections = _projection_plan(rels, s_rel, t_rel)

    for t3 in r3s_file.reader():
        pair = key34_r3(t3)
        s_span = _advance_span(s_reader, s_key, pair)
        t_span = _advance_span(t_reader, t_key, pair)
        if s_span[0] == s_span[1] or t_span[0] == t_span[1]:
            continue
        _emit_block(s_file.segment(*s_span), t_file.segment(*t_span), t3,
                    projections, emitter, device, M)


def _projection_plan(rels: list[Relation], s_rel: Relation,
                     t_rel: Relation):
    """How to rebuild each input tuple from the S-row / T-row / R3 tuple.

    Returns ``(edge name, source, index list)`` triples where source is
    ``"S"``, ``"T"`` or ``"R3"``; indices are positions in that source
    row, ordered by the edge's own schema.
    """
    r1, r2, r3, r4, r5 = rels
    s_pos = {a: i for i, a in enumerate(s_rel.schema.attributes)}
    t_pos = {a: i for i, a in enumerate(t_rel.schema.attributes)}
    plan = []
    for rel, source, pos in ((r1, "S", s_pos), (r2, "S", s_pos),
                             (r4, "T", t_pos), (r5, "T", t_pos)):
        plan.append((rel.name, source,
                     [pos[a] for a in rel.schema.attributes]))
    plan.append((r3.name, "R3", list(range(len(r3.schema.attributes)))))
    return plan


def _advance_span(reader, key, pair) -> tuple[int, int]:
    """Locate the contiguous run with key == pair (keys ascend with R3).

    The boundary scan reads (and discards) rows — one total pass of the
    file across the whole ``R3`` loop; the run itself is re-read from
    its segment by the blocked nested loop.
    """
    while not reader.exhausted and key(reader.peek()) < pair:
        reader.next()
    start = reader.position
    while not reader.exhausted and key(reader.peek()) == pair:
        reader.next()
    return start, reader.position


def _emit_block(s_seg, t_seg, t3: tuple, projections, emitter: Emitter,
                device, M: int) -> None:
    """Line 8: S(t) ⋈ T(t) by blocked nested loop, emitting 5-way results.

    Holds ``M`` rows of ``S(t)`` in memory and re-reads ``T(t)`` once
    per block — ``ceil(|S(t)|/M) · |T(t)|/B`` I/Os, the term the
    paper's accounting charges for line 8.  Each path row projects back
    to its participating input tuples.
    """
    for block in load_chunks(s_seg, M):
        for trow in t_seg.scan():
            for srow in block:
                sources = {"S": srow, "T": trow, "R3": t3}
                emitter.emit({
                    name: tuple(sources[src][j] for j in idxs)
                    for name, src, idxs in projections})
