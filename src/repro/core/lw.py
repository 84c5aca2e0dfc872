"""Loomis–Whitney joins in external memory — Table 1's ``LW_n`` row.

A Loomis–Whitney join ``LW_n`` has attributes ``v1..vn`` and ``n``
relations, each omitting exactly one attribute:
``e_i = {v1..vn} − {v_i}`` (the triangle is ``LW_3``).  Table 1 cites
Hu, Qiao and Tao [6] for the external-memory bound
``∏ (N_i/(MB))^{1/(n-1)} · MB``-style cost — for equal sizes
``(N/M)^{n/(n-1)} · M/B`` — with optimality unknown.

This module implements the natural generalization of the triangle's
grid algorithm: hash every attribute into ``p`` buckets with
``p = Θ((nN/M)^{1/(n-1)})``.  A *cell* is a bucket vector
``(j1, …, jn)``; relation ``e_i`` (which lacks ``v_i``) is replicated
across the ``p`` choices of ``j_i`` and restricted to the matching
buckets on its own attributes — expected ``N/p^{n-1}`` tuples per
cell.  Each of the ``p^n`` cells is then solved in memory, for a total
of ``p^n · M/B = O(N^{n/(n-1)}/(M^{1/(n-1)} B))`` I/Os on balanced
inputs, matching the cited bound's shape.  Badly skewed cells fall
back to chunked processing (correct; the extra cost is measured).

Emit model throughout.  ``n = 3`` reduces to
:mod:`repro.core.triangle` (kept separate for its role as the paper's
headline prior work); this module accepts any ``n ≥ 3``.
"""

from __future__ import annotations

import itertools

from repro.core.emit import Emitter
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.em.loaders import load_chunks
from repro.query.hypergraph import JoinQuery


def detect_lw(query: JoinQuery) -> tuple[list[str], dict[str, str]] | None:
    """Recognize ``LW_n``: each edge omits exactly one attribute.

    Returns ``(attribute order, {edge: omitted attribute})`` or
    ``None``.
    """
    attrs = sorted(query.attributes)
    n = len(attrs)
    if len(query.edges) != n or n < 3:
        return None
    omitted: dict[str, str] = {}
    seen: set[str] = set()
    for e in query.edge_names:
        missing = set(attrs) - query.edges[e]
        if len(missing) != 1:
            return None
        (m,) = missing
        if m in seen:
            return None
        seen.add(m)
        omitted[e] = m
    return attrs, omitted


def lw_join(query: JoinQuery, instance: Instance, emitter: Emitter, *,
            partitions: int | None = None) -> None:
    """Grid-partitioned Loomis–Whitney join.

    ``partitions`` overrides the computed grid width (testing hook).
    """
    detected = detect_lw(query)
    if detected is None:
        raise ValueError("lw_join requires a Loomis-Whitney query "
                         "(each relation omits exactly one attribute)")
    attrs, omitted = detected
    n = len(attrs)
    device = next(iter(instance.values())).device
    M = device.M
    n_max = max((len(instance[e]) for e in query.edges), default=1)
    if partitions is None:
        p = max(1, round((max(1, n * n_max / M)) ** (1.0 / (n - 1))))
    else:
        p = max(1, partitions)

    with device.span("lw_join", kind="algorithm", n=n, p=p):
        attr_pos = {a: i for i, a in enumerate(attrs)}
        # Partition each relation by the bucket vector of its own n-1
        # attributes: p^{n-1} cells per relation, one copy of each
        # tuple.
        cells: dict[str, dict[tuple[int, ...], Relation]] = {}
        with device.phases.phase("partition"):
            for e in query.edge_names:
                cells[e] = _partition(instance[e], attrs, p)

        # Enumerate the p^n grid; relation e_i contributes the cell
        # keyed by the bucket vector restricted to its attributes.
        for cell_vector in itertools.product(range(p), repeat=n):
            parts: list[tuple[str, Relation]] = []
            empty = False
            for e in query.edge_names:
                key = tuple(cell_vector[attr_pos[a]]
                            for a in sorted(query.edges[e]))
                rel = cells[e].get(key)
                if rel is None or not len(rel):
                    empty = True
                    break
                parts.append((e, rel))
            if empty:
                continue
            _solve_cell(query, parts, attrs, M, emitter)


def _partition(rel: Relation, attrs: list[str],
               p: int) -> dict[tuple[int, ...], Relation]:
    """Split a relation by its own attributes' bucket vector."""
    device = rel.device
    own = sorted(a for a in attrs if a in rel.schema)
    idxs = [rel.schema.index(a) for a in own]
    writers: dict[tuple[int, ...], object] = {}
    files: dict[tuple[int, ...], object] = {}
    for t in rel.data.scan():
        key = tuple(hash(t[i]) % p for i in idxs)
        if key not in writers:
            f = device.new_file(f"{rel.name}.cell{key}")
            files[key] = f
            writers[key] = f.writer()
        writers[key].append(t)
    out: dict[tuple[int, ...], Relation] = {}
    for key, w in writers.items():
        w.close()
        out[key] = Relation(schema=rel.schema,
                            data=files[key].whole())
    return out


def _solve_cell(query: JoinQuery, parts: list[tuple[str, Relation]],
                attrs: list[str], M: int, emitter: Emitter) -> None:
    """Join one cell: in memory if it fits, chunked otherwise."""
    total = sum(len(rel) for _, rel in parts)
    if total <= 2 * M:
        _in_memory(query, parts, attrs, emitter)
        return
    # Skew fallback: chunk the largest member; re-run the in-memory
    # join per chunk with the rest streamed.
    big_idx = max(range(len(parts)), key=lambda i: len(parts[i][1]))
    big_name, big_rel = parts[big_idx]
    for chunk in load_chunks(big_rel.data, M):
        sub = big_rel.rewrite(chunk, label="chunk")
        replaced = list(parts)
        replaced[big_idx] = (big_name, sub)
        _in_memory(query, replaced, attrs, emitter)


def _in_memory(query: JoinQuery, parts: list[tuple[str, Relation]],
               attrs: list[str], emitter: Emitter) -> None:
    """Backtracking join over memory-resident cell contents."""
    device = parts[0][1].device
    # Charge the gauge *before* materializing: tuple counts are free
    # catalog metadata, and holding first keeps every resident tuple
    # inside the charged region (EM002 in tests/test_lint_src.py).
    with device.memory.hold(sum(len(rel) for _, rel in parts)):
        tables = {e: list(rel.data.scan()) for e, rel in parts}
        schemas = {e: rel.schema for e, rel in parts}
        # Bind attributes one at a time, narrowing candidate tuples —
        # a memory-local generic join over the cell.
        _backtrack(query, tables, schemas, attrs, 0, {}, emitter)


def _backtrack(query, tables, schemas, attrs, i, bound, emitter) -> None:
    if i == len(attrs):
        result = {}
        for e, rows in tables.items():
            # exactly one surviving tuple per relation at a full binding
            result[e] = rows[0]
        emitter.emit(result)
        return
    a = attrs[i]
    holders = [e for e in tables if a in schemas[e]]
    if not holders:
        _backtrack(query, tables, schemas, attrs, i + 1, bound, emitter)
        return
    seed = min(holders, key=lambda e: len(tables[e]))
    pos = schemas[seed].index(a)
    candidates = {t[pos] for t in tables[seed]}
    for e in holders:
        if e == seed:
            continue
        pe = schemas[e].index(a)
        candidates &= {t[pe] for t in tables[e]}
    for value in candidates:
        narrowed = dict(tables)
        dead = False
        for e in holders:
            pe = schemas[e].index(a)
            sub = [t for t in tables[e] if t[pe] == value]
            if not sub:
                dead = True
                break
            narrowed[e] = sub
        if not dead:
            _backtrack(query, narrowed, schemas, attrs, i + 1, bound,
                       emitter)


def lw_query(n: int, sizes=None) -> JoinQuery:
    """Build ``LW_n``: ``e_i`` omits ``v_i`` from ``{v1..vn}``."""
    if n < 3:
        raise ValueError(f"LW joins need n >= 3, got {n}")
    universe = [f"v{i}" for i in range(1, n + 1)]
    edges = {f"e{i}": frozenset(a for a in universe if a != f"v{i}")
             for i in range(1, n + 1)}
    if sizes is None:
        return JoinQuery(edges=edges)
    names = [f"e{i}" for i in range(1, n + 1)]
    if len(sizes) != n:
        raise ValueError(f"LW_{n} needs {n} sizes")
    return JoinQuery(edges=edges, sizes=dict(zip(names, sizes)))