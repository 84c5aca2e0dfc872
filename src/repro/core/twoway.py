"""Two-relation joins in external memory (Section 3).

Two algorithms:

* :func:`nested_loop_join` — blocked nested-loop join, ``O(N1·N2/(MB))``
  I/Os, worst-case optimal for two relations (Table 1 row 1): one
  memory load of the outer per inner scan.
* :func:`sort_merge_join` — the instance-optimal hybrid the paper
  describes: sort both relations on the join attribute and merge; a
  value heavy on *both* sides falls back to a nested-loop join of the
  two groups, anything else streams in a single pass.  Total cost
  ``Õ(N1/B + N2/B + Σ_a N1|_{v=a} · N2|_{v=a} / (MB))`` — which is
  ``Õ((N1 + N2)/B + |Q(R)|/(MB))``, instance optimal.

The key observation reused by Algorithm 1 (Section 3): when the two
relations share no heavy value, the hybrid costs just
``Õ(N1/B + N2/B)``.
"""

from __future__ import annotations

from repro.core.emit import Emitter, emit_block, emit_product
from repro.data.relation import Relation
from repro.em.loaders import Group, group_boundaries, load_chunks


def _shared_attribute(r1: Relation, r2: Relation) -> str | None:
    shared = [a for a in r1.schema.attributes if a in r2.schema]
    if len(shared) > 1:
        raise ValueError(
            f"relations {r1.name}, {r2.name} share {shared}; Berge-acyclic "
            "queries allow at most one shared attribute")
    return shared[0] if shared else None


def nested_loop_join(r1: Relation, r2: Relation, emitter: Emitter) -> None:
    """Blocked nested-loop join (cross product when nothing is shared).

    The smaller relation plays the outer role (fewer inner rescans).
    """
    attr = _shared_attribute(r1, r2)
    outer, inner = (r1, r2) if len(r1) <= len(r2) else (r2, r1)
    device = outer.device
    if attr is not None:
        o_idx = outer.schema.index(attr)
        i_idx = inner.schema.index(attr)
    o_name, i_name = outer.name, inner.name
    with device.span("nested_loop_join", kind="algorithm",
                     outer=o_name, inner=i_name,
                     n_outer=len(outer), n_inner=len(inner)):
        for chunk in load_chunks(outer.data, device.M):
            if attr is None:
                for block in inner.data.scan_blocks():
                    emit_product(emitter, {},
                                 ((i_name, block), (o_name, chunk)))
            else:
                by_value: dict[object, list[tuple]] = {}
                for t in chunk:
                    by_value.setdefault(t[o_idx], []).append(t)
                get = by_value.get
                for block in inner.data.scan_blocks():
                    emit_block(emitter, [
                        {o_name: t_out, i_name: t_in}
                        for t_in in block
                        for t_out in get(t_in[i_idx], ())])


def sort_merge_join(r1: Relation, r2: Relation, emitter: Emitter) -> None:
    """The instance-optimal two-way join of Section 3.

    Both relations are sorted on the shared attribute, their value
    groups merged; heavy×heavy groups fall back to a blocked nested
    loop, everything else streams with the light side resident.  The
    group sizes sum to ``N1`` and ``N2``, so all the per-group joins
    together cost at most one nested-loop pass over the inputs.
    """
    attr = _shared_attribute(r1, r2)
    if attr is None:
        nested_loop_join(r1, r2, emitter)
        return
    device = r1.device
    M = device.M
    with device.span("sort_merge_join", kind="algorithm",
                     attr=attr, n1=len(r1), n2=len(r2)):
        s1 = r1.sort_by(attr)
        s2 = r2.sort_by(attr)
        groups1 = group_boundaries(s1.data, s1.key(attr))
        groups2 = group_boundaries(s2.data, s2.key(attr))
        by_value2 = {g.value: g for g in groups2}
        for g1 in groups1:
            g2 = by_value2.get(g1.value)
            if g2 is None:
                continue
            _join_groups(s1, g1, s2, g2, M, emitter)


def _join_groups(s1: Relation, g1: Group, s2: Relation, g2: Group,
                 M: int, emitter: Emitter) -> None:
    """Join two equal-value groups: NLJ if both heavy, else one pass."""
    seg1 = s1.data.subsegment(g1.start, g1.stop)
    seg2 = s2.data.subsegment(g2.start, g2.stop)
    n1, n2 = s1.name, s2.name
    if g1.count >= M and g2.count >= M:
        for chunk in load_chunks(seg1, M):
            for block in seg2.scan_blocks():
                emit_product(emitter, {}, ((n2, block), (n1, chunk)))
    elif g1.count <= g2.count:
        with s1.device.memory.hold(g1.count):
            resident = seg1.reader().read_block(g1.count)
            for block in seg2.scan_blocks():
                emit_product(emitter, {}, ((n2, block), (n1, resident)))
    else:
        with s2.device.memory.hold(g2.count):
            resident = seg2.reader().read_block(g2.count)
            for block in seg1.scan_blocks():
                emit_product(emitter, {}, ((n1, block), (n2, resident)))
