"""External-memory triangle join — Table 1's cyclic prior-work row.

The paper's Table 1 lists the triangle query ``C3`` with external-memory
cost ``√(N1·N2·N3 / M) / B`` (for equal sizes ``N^{3/2}/(√M · B)``),
optimal when all relations have equal size [7, 12].  Although the
paper's own contribution is acyclic joins, the triangle is its central
point of comparison, so the reproduction includes the classic
grid-partitioning algorithm achieving that bound:

hash each attribute's domain into ``p`` buckets with
``p = ⌈√(3N/M)⌉``; subproblem ``(i, j, k)`` receives the bucket-
restricted relations ``R1(a∈i, b∈j)``, ``R2(b∈j, c∈k)``,
``R3(a∈i, c∈k)`` — about ``N/p²`` tuples each — and is solved in
memory.  Partitioning writes each relation once per bucket dimension
(``p`` copies, ``p·N/B`` I/Os) and the ``p³`` subproblems load
``3·N/p² ≈ M`` tuples each, for ``p³·M/B = O(N^{3/2}/(√M·B))`` I/Os.

Heavily skewed buckets (a value hotter than ``N/p``) can overflow the
per-cell memory budget; the implementation then falls back to a
blocked nested loop within the cell, which preserves correctness (the
equal-size optimality claim of [7, 12] is for the balanced case, and
the fallback's extra cost is measured, not hidden).

Emit model throughout: results are triples of participating tuples,
never written.
"""

from __future__ import annotations

from repro.core.emit import Emitter
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.em.loaders import load_chunks
from repro.query.hypergraph import JoinQuery


def detect_triangle(query: JoinQuery) -> tuple[str, str, str] | None:
    """Recognize ``C3``: three binary edges pairwise sharing one attr.

    Returns edge names ordered so that edge 0 and 1 share one
    attribute, 1 and 2 another, 2 and 0 the third; or ``None``.
    """
    names = query.edge_names
    if len(names) != 3:
        return None
    if any(len(query.edges[e]) != 2 for e in names):
        return None
    e1, e2, e3 = names
    pairs = [(e1, e2), (e2, e3), (e3, e1)]
    shared = []
    for a, b in pairs:
        common = query.edges[a] & query.edges[b]
        if len(common) != 1:
            return None
        shared.append(next(iter(common)))
    if len(set(shared)) != 3:
        return None
    if query.attributes != set(shared):
        return None
    return (e1, e2, e3)


def triangle_join(query: JoinQuery, instance: Instance, emitter: Emitter,
                  *, partitions: int | None = None) -> None:
    """Grid-partitioned triangle join in ``O(N^{3/2}/(√M·B))`` I/Os.

    ``partitions`` overrides the computed grid width ``p`` (testing
    hook).  Requires a ``C3``-shaped query.
    """
    order = detect_triangle(query)
    if order is None:
        raise ValueError("triangle_join requires a triangle (C3) query")
    e1, e2, e3 = order
    r1, r2, r3 = instance[e1], instance[e2], instance[e3]
    device = r1.device
    M = device.M

    # Attribute roles: a = shared(e1, e3), b = shared(e1, e2),
    # c = shared(e2, e3).
    a = next(iter(query.edges[e1] & query.edges[e3]))
    b = next(iter(query.edges[e1] & query.edges[e2]))
    c = next(iter(query.edges[e2] & query.edges[e3]))

    n = max(len(r1), len(r2), len(r3), 1)
    if partitions is None:
        p = max(1, int((3 * n / M) ** 0.5) + 1)
    else:
        p = max(1, partitions)

    # Partition each relation along its two attributes' buckets:
    # p² cells per relation, each written once (p·N/B total per
    # dimension pair since every tuple lands in exactly one cell).
    with device.span("triangle_join", kind="algorithm", n=n, p=p):
        with device.phases.phase("partition"):
            cells1 = _partition(r1, a, b, p)  # R1[a-bucket][b-bucket]
            cells2 = _partition(r2, b, c, p)  # R2[b-bucket][c-bucket]
            cells3 = _partition(r3, a, c, p)  # R3[a-bucket][c-bucket]

        with device.span("solve_cells", cells=p ** 3):
            for i in range(p):          # a-bucket
                for j in range(p):      # b-bucket
                    cell1 = cells1[i][j]
                    if not len(cell1):
                        continue
                    for k in range(p):  # c-bucket
                        cell2 = cells2[j][k]
                        cell3 = cells3[i][k]
                        if not len(cell2) or not len(cell3):
                            continue
                        _solve_cell(cell1, cell2, cell3, a, b, c, M,
                                    emitter)


def _partition(rel: Relation, attr_x: str, attr_y: str,
               p: int) -> list[list[Relation]]:
    """Split ``rel`` into a ``p × p`` grid of bucket-restricted cells.

    One scan of the input plus one write per tuple (each tuple belongs
    to exactly one cell); cell files keep the relation's schema.
    """
    device = rel.device
    ix = rel.schema.index(attr_x)
    iy = rel.schema.index(attr_y)
    writers = []
    files = []
    for gx in range(p):
        row_w, row_f = [], []
        for gy in range(p):
            f = device.new_file(f"{rel.name}.cell{gx}_{gy}")
            row_f.append(f)
            row_w.append(f.writer())
        writers.append(row_w)
        files.append(row_f)
    for t in rel.data.scan():
        gx = hash(t[ix]) % p
        gy = hash(t[iy]) % p
        writers[gx][gy].append(t)
    cells = []
    for gx in range(p):
        row = []
        for gy in range(p):
            writers[gx][gy].close()
            row.append(Relation(schema=rel.schema,
                                data=files[gx][gy].whole()))
        cells.append(row)
    return cells


def _solve_cell(cell1: Relation, cell2: Relation, cell3: Relation,
                a: str, b: str, c: str, M: int,
                emitter: Emitter) -> None:
    """Join one grid cell.

    Balanced cells fit in memory and are solved with one load each;
    skew-overflowed cells fall back to a blocked nested loop over the
    largest relation.
    """
    total = len(cell1) + len(cell2) + len(cell3)
    if total <= 2 * M:
        _in_memory(cell1, cell2, cell3, a, b, c, emitter)
        return
    # Fallback: chunk the largest cell relation, keep the other two
    # streamed per chunk.
    rels = sorted((cell1, cell2, cell3), key=len, reverse=True)
    big = rels[0]
    device = big.device
    for chunk in load_chunks(big.data, M):
        sub = big.rewrite(chunk, label="chunk")
        # rewind: sub is on-disk; re-join in memory with streams
        parts = {id(big): sub}
        r1 = parts.get(id(cell1), cell1)
        r2 = parts.get(id(cell2), cell2)
        r3 = parts.get(id(cell3), cell3)
        _in_memory(r1, r2, r3, a, b, c, emitter)


def _in_memory(cell1: Relation, cell2: Relation, cell3: Relation,
               a: str, b: str, c: str, emitter: Emitter) -> None:
    """Load all three cells and enumerate triangles hash-style."""
    device = cell1.device
    # Charge the gauge *before* materializing: tuple counts are free
    # catalog metadata, and holding first keeps every resident tuple
    # inside the charged region (EM002 in tests/test_lint_src.py).
    with device.memory.hold(len(cell1) + len(cell2) + len(cell3)):
        t1 = list(cell1.data.scan())
        t2 = list(cell2.data.scan())
        t3 = list(cell3.data.scan())
        i1a = cell1.schema.index(a)
        i1b = cell1.schema.index(b)
        i2b = cell2.schema.index(b)
        i2c = cell2.schema.index(c)
        i3a = cell3.schema.index(a)
        i3c = cell3.schema.index(c)
        by_b: dict[object, list[tuple]] = {}
        for t in t2:
            by_b.setdefault(t[i2b], []).append(t)
        by_ac: dict[tuple, list[tuple]] = {}
        for t in t3:
            by_ac.setdefault((t[i3a], t[i3c]), []).append(t)
        name1, name2, name3 = cell1.name, cell2.name, cell3.name
        for u in t1:
            for v in by_b.get(u[i1b], ()):
                for w in by_ac.get((u[i1a], v[i2c]), ()):
                    emitter.emit({name1: u, name2: v, name3: w})
