"""The chunk-loading operations of Section 2.3 of the paper.

The paper defines skew relative to the memory size ``M``: a value ``a``
of attribute ``v`` is *heavy* in ``R(e)`` if at least ``M`` tuples of
``R(e)`` carry it, and *light* otherwise.  After sorting ``R(e)`` on
``v`` the file decomposes into maximal runs of equal ``v``-value
(groups), and the paper manipulates them with three operations, all
reproduced here with exact I/O accounting:

* ``load R(e)|_{v=a} into memory as M(e)`` — read the next ``M`` tuples
  of one (heavy) group: :func:`load_group_chunks`.
* ``load R(e) by v into memory as M(e)`` — read light tuples in value
  order until at least ``M`` are fetched, never splitting a group
  (yields at most ``2M`` tuples with at most ``M`` distinct values):
  :func:`load_light_chunks`.
* ``load R(e) into memory as M(e)`` — read the next ``M`` tuples of an
  unsorted file: :func:`load_chunks`.

:func:`group_boundaries` performs the single partitioning scan that
identifies groups (and hence heavy values) after a sort.

Two operators serve the semijoins of the reducer and the join
algorithms: :func:`write_semijoin` writes ``left ⋉ right`` of two
sorted segments to a new file, charged as one merge pass of two
cursors, and :func:`take_through` consumes the value-bounded prefix of
a shared sorted cursor that the light-value loops of Algorithms 1 and
2 filter.

Beside each operator whose charge depends on more than the pages its
segment spans (:func:`~repro.em.file.span_pages`), a pure function
counts that charge from the tuples' positions and keys without a file:
:func:`chunk_count`, :func:`light_chunk_reads`,
:func:`semijoin_right_reads` and :func:`take_through_reads`.
:mod:`repro.core.price` prices a peel plan with them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.em.file import (EMFile, FileSegment, SequentialReader, Tuple,
                           span_pages)

Key = Callable[[Tuple], Any]


@dataclass(frozen=True)
class Group:
    """A maximal run of tuples sharing one value on the sort attribute."""

    value: Any
    start: int
    stop: int

    @property
    def count(self) -> int:
        return self.stop - self.start

    def is_heavy(self, M: int) -> bool:
        """Heavy means at least ``M`` tuples carry this value (§2.3)."""
        return self.count >= M


def group_boundaries(segment: FileSegment, key: Key) -> list[Group]:
    """Scan a sorted segment once and return its value groups in order.

    Costs one sequential read of the segment.  The returned boundary
    list is query-size metadata (one entry per distinct value) which the
    model lets us keep for free relative to the data pages; algorithms
    that cannot afford it only ever iterate it streamingly anyway.
    """
    groups: list[Group] = []
    reader = segment.reader()
    current_value: Any = None
    current_start = segment.start
    first = True
    pos = segment.start
    append = groups.append
    while not reader.exhausted:
        block = reader.read_page_block()
        keys = list(map(key, block))
        if first:
            current_value, current_start, first = keys[0], pos, False
        if keys[0] == keys[-1] and keys[0] == current_value:
            pos += len(keys)  # whole page inside the current group
            continue
        for i, v in enumerate(keys):
            if v != current_value:
                append(Group(current_value, current_start, pos + i))
                current_value, current_start = v, pos + i
        pos += len(keys)
    if not first:
        groups.append(Group(current_value, current_start, segment.stop))
    return groups


def split_heavy_light(groups: list[Group], M: int) -> tuple[list[Group], list[Group]]:
    """Partition groups into (heavy, light) with respect to ``M``."""
    heavy = [g for g in groups if g.is_heavy(M)]
    light = [g for g in groups if not g.is_heavy(M)]
    return heavy, light


def load_chunks(segment: FileSegment, M: int) -> Iterator[list[Tuple]]:
    """Yield successive memory loads of up to ``M`` tuples.

    This is the paper's ``load R(e) into memory as M(e)`` for unsorted
    files (and for one heavy group when applied to its segment).  Each
    page of the segment is read once.
    """
    reader = segment.reader()
    while not reader.exhausted:
        chunk = reader.read_block(M)
        with segment.device.memory.hold(len(chunk)):
            yield chunk


def chunk_count(n: int, M: int) -> int:
    """Memory loads :func:`load_chunks` yields for ``n`` tuples."""
    return -(-n // M)


def load_group_chunks(segment: FileSegment, group: Group, M: int) -> Iterator[list[Tuple]]:
    """Yield ``M``-tuple loads of one group: ``load R(e)|_{v=a}``."""
    yield from load_chunks(segment.subsegment(group.start, group.stop), M)


def load_light_chunks(segment: FileSegment, light_groups: list[Group],
                      M: int) -> Iterator[list[Tuple]]:
    """Yield memory loads covering the light groups, in value order.

    Implements ``load R(e) by v into memory as M(e)``: tuples with the
    same value are loaded together, and loading stops as soon as at
    least ``M`` tuples are resident.  Because every group is light
    (< ``M`` tuples), each yielded chunk holds fewer than ``2M`` tuples
    and fewer than ``M`` distinct values — the properties the paper's
    analysis relies on.

    Heavy groups interleaved between the light ones in the underlying
    file are skipped with a free seek; their pages are not charged.
    The light groups are disjoint and in file order, so the loads
    together read each page of the segment at most once.
    """
    reader = segment.reader()
    chunk: list[Tuple] = []
    for g in light_groups:
        if g.count >= M:
            raise ValueError(
                f"group for value {g.value!r} has {g.count} >= M={M} tuples; "
                "light loader requires light groups only")
    # Batch contiguous groups into one span read per chunk: the span's
    # pages are charged ascending on entry, exactly the sequence
    # per-group reads produce.  The span ends with the first group that
    # lifts the chunk to >= M.
    i, n = 0, len(light_groups)
    while i < n:
        g = light_groups[i]
        if reader.position < g.start:
            reader.skip_to(g.start)
        start = reader.position
        stop = g.stop
        while (stop - start + len(chunk) < M and i + 1 < n
               and light_groups[i + 1].start == stop):
            i += 1
            stop = light_groups[i].stop
        chunk.extend(reader.read_block(stop - start))
        if len(chunk) >= M:
            with segment.device.memory.hold(len(chunk)):
                yield chunk
            chunk = []
        i += 1
    if chunk:
        with segment.device.memory.hold(len(chunk)):
            yield chunk


def light_chunk_reads(groups: Iterable[tuple[int, int]], off: int,
                      B: int) -> int:
    """Reads :func:`load_light_chunks` is charged for the light groups.

    ``groups`` are ``(start, stop)`` positions, ascending, relative to a
    segment whose first tuple sits at ``off`` in its page.  One reader
    serves them all and keeps its last page buffered, so a page shared
    with the previous group is read once; skipped pages are free.
    """
    reads = 0
    last_page = -1
    for start, stop in groups:
        first, last = (off + start) // B, (off + stop - 1) // B
        reads += last - max(first, last_page + 1) + 1
        last_page = last
    return reads


def scan_matching(segment: FileSegment, key: Key,
                  wanted: set) -> Iterator[Tuple]:
    """Stream the tuples of a segment whose key value is in ``wanted``.

    One sequential read of the segment; ``wanted`` is assumed to be
    memory-resident (the caller charges it).  This is the semijoin
    ``R(e') ⋉ M_1`` over a whole segment; the light-value loops, whose
    cursor is sorted and shared across chunks, use :func:`take_through`.
    """
    for block in segment.scan_blocks():
        for t in block:
            if key(t) in wanted:
                yield t


def write_semijoin(left: FileSegment, right: FileSegment, key_l: Key,
                   key_r: Key, name: str) -> EMFile:
    """Write ``left ⋉ right`` to a new file ``name`` and return it.

    Both segments sit on one device and are sorted on their keys; the
    output keeps the left order.  The I/O is that of one merge pass of
    two sorted cursors, appending each match to a page-buffered
    writer: the left cursor reads every page; the right cursor fetches
    its first page at the first left key and each next page at the
    first left key past its current page's last key, until it runs
    out; an output page is written once the match that fills it has
    been taken, before the next fetch, and the last partial page at
    the end.

    The rows move in bulk passes inside one ``stats.suspend()``: read
    both inputs, test every left key against the set of right keys (a
    key up to the current right page's last key can only occur in that
    page, so the whole set answers as the page would) and fill the
    output.  The charges then go through the device one page at a
    time.  When a pool or an observer can see their order
    (``Device.order_seen``), they are replayed in the cursor pass's
    order, so pool events and traces are unchanged: the left keys are
    cut into segments at left page ends and right page fetches, one
    :func:`bisect_right` each, and the matches counted per segment
    tell which output pages are full by its end.  Otherwise only the
    counters see them, and the same pages are charged in file order:
    the left pages, the :func:`semijoin_right_reads` right pages (one
    :func:`bisect_left` finds them), then the output pages.
    """
    device = left.device
    out = device.new_file(name)
    with device.stats.suspend():
        rows = left.peek_tuples()
        rrows = right.peek_tuples()
        lkeys = list(map(key_l, rows))
        hits = bytes(map(set(map(key_r, rrows)).__contains__, lkeys))
        out.fill_sealed(list(compress(rows, hits)))
    n, nr = len(lkeys), len(rrows)
    if not n:
        return out
    B = device.B
    read, write = device.charge_read, device.charge_write
    lfile, rfile = left.file, right.file
    lpage = left.start // B
    if not device.order_seen:
        # The same pages in file order (see ``Device.order_seen``).
        for page in range(lpage, (left.stop - 1) // B + 1):
            read(lfile, page)
        fetched = min(bisect_left(rrows, lkeys[-1], key=key_r) + 1, nr)
        for page in range(right.start // B,
                          right.start // B + span_pages(right.start % B,
                                                        fetched, B)):
            read(rfile, page)
        for page in range(out.n_pages):
            write(out, page)
        return out
    end = min(n, (lpage + 1) * B - left.start)  # the left page's end
    rnext = 0          # right index the next fetch starts at
    rlast: Any = None  # the last key of the right page fetched last
    i = w = taken = 0  # next left index, output page, matches so far
    while True:
        read(lfile, lpage)
        while i < end:
            if not rnext or lkeys[i] > rlast:
                if rnext == nr:
                    i = n  # right is used up: nothing more matches
                    break
                rpage = (right.start + rnext) // B
                read(rfile, rpage)
                rnext = min(nr, (rpage + 1) * B - right.start)
                rlast = key_r(rrows[rnext - 1])
                continue
            j = bisect_right(lkeys, rlast, i, end)
            taken += hits.count(1, i, j)
            while w < taken // B:
                write(out, w)
                w += 1
            i = j
        if end == n:
            break
        lpage += 1
        end = min(n, end + B)
    if taken % B:
        write(out, w)
    return out


def semijoin_right_reads(right_keys: Sequence[Any], off: int, left_max: Any,
                         B: int) -> int:
    """Reads :func:`write_semijoin` charges the right input.

    ``right_keys`` are the right input's sorted keys, its first tuple at
    ``off`` in its page; ``left_max`` is the non-empty left input's
    largest key.  The cursor fetches pages until one ends at a key of at
    least ``left_max``, or it runs out.
    """
    n = len(right_keys)
    return span_pages(off, min(bisect_left(right_keys, left_max) + 1, n), B)


def take_through(reader: SequentialReader, col: int, vmax: Any,
                 wanted: set) -> list[Tuple]:
    """Consume the tuples with ``t[col] <= vmax``; keep those in ``wanted``.

    ``reader`` must be sorted on column ``col``.  Each step fetches the
    current page (charged exactly as a :meth:`peek` would), consumes its
    ``<= vmax`` prefix for free and stops at the first larger value,
    which stays unconsumed for the next call.  The matches are the
    semijoin ``R ⋉ wanted`` restricted to the values up to ``vmax``.
    Callers share one cursor across calls with ascending ``vmax``, so
    all the calls together read each page once.
    """
    matched: list[Tuple] = []
    while not reader.exhausted:
        page = reader.peek_page_block()
        taken = 0
        for t in page:
            if t[col] > vmax:
                break
            taken += 1
            if t[col] in wanted:
                matched.append(t)
        reader.skip_to(reader.position + taken)
        if taken < len(page):
            break
    return matched


def take_through_reads(keys: Sequence[Any], off: int, vmax: Any,
                       B: int) -> int:
    """Reads one shared cursor's :func:`take_through` calls are charged.

    ``keys`` are the cursor's sorted keys, its first tuple at ``off`` in
    its page, and ``vmax`` is the last call's bound: the calls together
    read every page up to the one holding the first key past ``vmax``.
    """
    n = len(keys)
    return span_pages(off, min(bisect_right(keys, vmax) + 1, n), B)
