"""External merge sort with exact I/O accounting.

The standard EM sort: form sorted runs of ``M`` tuples in memory, then
merge them with fan-in ``M/B - 1`` until a single run remains.  Total
cost is ``O((N/B) log_{M/B}(N/M))`` I/Os — the ``sort(N)`` bound the
paper's Õ-notation absorbs (Section 1.1).

Run formation reads each ``M``-chunk as one block.  The merge is
specified as a tournament: a heap of ``(key, push counter)`` fed one
page per run, popping one tuple at a time into a page-buffered output.
It is computed without one, in three steps per batch of runs:

* **Order.**  One stable sort of the batch's keys orders it.  The heap
  leaves equal keys in push order, and a run pushes its next tuple
  when the one before it leaves, so only equal-key groups that span
  two or more runs differ from the stable sort.  Such a group is one
  contiguous block per run, and the blocks leave **round-robin**: a
  block's place in every round is the output position of the tuple
  just before it in its run (that tuple has a smaller key, so its
  position is already final); blocks that open their run go first, in
  run order.

  Most such groups are a **pair**, one tuple from each of two runs:
  birthday collisions of random keys (560 of the 589 cross-run groups,
  of 981 tie groups, in one ``reduce_sort`` query of the end-to-end
  benchmark, seed 1).  A pair ``a < b`` is settled without the general
  machinery: ``a`` leaves first if it opens its run, else ``b`` does if
  it opens its run, else the one whose predecessor has the smaller key
  does; only equal predecessor keys (6 of the 560) compare the
  predecessors' output positions.

  When every run boundary is in key order (the last key of run ``r``
  is no larger than the first key of run ``r + 1``), the batch is
  already sorted and the stable sort is the identity, so it is
  skipped.  A tie group inside one run is then in heap order, and a
  group can span runs only where a boundary joins two equal keys; it
  may cover several whole runs.  Each such group is found by bisecting
  the rows around its boundary and re-ordered by the same rule.
  Relations are stored in lexicographic order, so sorting one on its
  first attribute gives such batches.
* **Charges.**  The heap's page accesses follow from the order: a read
  of page 0 of every run, in run order; then, for each output position
  ``p`` in turn, a write if ``p`` fills an output page, and after it a
  read of run ``r``'s next page if ``p`` took the last tuple of ``r``'s
  current page; the final partial page is written last.  They go
  through ``Device.charge_read``/``charge_write`` one page at a time.
  This order is replayed only when a buffer pool or an observer can
  see it (``Device.order_seen``).  Otherwise a charge only adds one
  to a counter, so the same pages are charged in file order instead:
  every page of every run (page 0 of an empty one too), then every
  output page.  The counters cannot tell the two apart.
* **Rows.**  ``EMFile._fill_merged``, private to the merge, lays the
  merged rows into the output file inside ``stats.suspend()``, the
  one scope in which it may move rows uncharged.

Both phases therefore charge the I/Os a tuple-at-a-time sort would,
*in the identical order* wherever the order can be seen — the
sequence of page accesses, not just their count, is observable
through the buffer pool and the observers, and
``tests/golden_io_streams.json`` pins it.  ``tests/test_em_sort.py``
keeps the heap merge as the oracle.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from typing import Any, Callable

from repro.em.device import Device
from repro.em.file import EMFile, FileSegment, Tuple, span_pages

Key = Callable[[Tuple], Any]


def merge_fan_in(M: int, B: int) -> int:
    """Runs one merge reads at once: a page each, plus one output page."""
    return max(2, M // B - 1)


def sort_io(n: int, off: int, M: int, B: int) -> tuple[int, int]:
    """``(reads, writes)`` :func:`external_sort` is charged, pool off.

    ``n`` tuples whose first sits at ``off`` in its page.  Run
    formation reads every page they span and writes one run per ``M``
    tuples; each merge level reads every page of the runs it merges and
    writes the merged output, passing a batch of one run on for free.
    """
    reads = span_pages(off, n, B)
    runs = [M] * (n // M) + ([n % M] if n % M else [])
    writes = sum(span_pages(0, r, B) for r in runs)
    fan_in = merge_fan_in(M, B)
    while len(runs) > 1:
        merged = []
        for j in range(0, len(runs), fan_in):
            batch = runs[j:j + fan_in]
            total = sum(batch)
            if len(batch) > 1:
                reads += sum(span_pages(0, r, B) for r in batch)
                writes += span_pages(0, total, B)
            merged.append(total)
        runs = merged
    return reads, writes


def external_sort(source: EMFile | FileSegment, key: Key,
                  name: str | None = None) -> EMFile:
    """Sort ``source`` by ``key`` into a new file on the same device.

    The sort is **not** stable.  Run formation is (each chunk is
    sorted in source order), but a merge leaves equal keys from
    different runs round-robin, each run's tie block ranked by the
    output position of the tuple before it, and blocks that open a run
    first, in run order (the module docstring derives this from the
    tournament's push order): with ``M=2, B=1`` the input ``(5,a)
    (5,b) (5,c) (9,z)`` forms runs ``[a, b]`` and ``[c, z]``, both
    blocks of 5s open their run, so the output is ``a, c, b, z``.
    ``tests/test_em_sort.py`` pins this tie order.
    """
    if isinstance(source, EMFile):
        source = source.whole()
    device = source.device

    with device.span("external_sort", n=len(source)):
        runs = _form_runs(source, key, name)
        merged = _merge_runs(device, runs, key, name)
    return merged


def _form_runs(segment: FileSegment, key: Key,
               name: str | None) -> list[EMFile]:
    """Phase 1: read ``M`` tuples at a time, sort in memory, write runs."""
    device = segment.device
    runs: list[EMFile] = []
    reader = segment.reader()
    i = 0
    with device.span("form_runs") as span:
        while not reader.exhausted:
            # Charge the gauge *before* reading: the chunk occupies
            # memory as it streams in, so a strict budget must police
            # the read itself, not just the sort that follows.
            n = min(device.M, reader.remaining())
            with device.memory.hold(n):
                chunk = reader.read_block(n)
                chunk.sort(key=key)
                run = device.new_file(
                    None if name is None else f"{name}.run{i}")
                with run.writer() as w:
                    w.append_block(chunk)
            runs.append(run)
            i += 1
        if not runs:
            # An empty source still yields one (empty, uncharged) run.
            empty = device.new_file(name)
            empty.writer().close()
            runs.append(empty)
        span.set("runs", len(runs))
    return runs


def _merge_runs(device: Device, runs: list[EMFile], key: Key,
                name: str | None) -> EMFile:
    """Phase 2: repeatedly merge with fan-in :func:`merge_fan_in`."""
    fan_in = merge_fan_in(device.M, device.B)
    level = 0
    while len(runs) > 1:
        with device.span("merge_level", level=level, runs=len(runs),
                         fan_in=fan_in):
            next_runs: list[EMFile] = []
            for j in range(0, len(runs), fan_in):
                batch = runs[j:j + fan_in]
                out_name = (None if name is None
                            else f"{name}.merge{level}.{j // fan_in}")
                next_runs.append(_merge_once(device, batch, key, out_name))
        runs = next_runs
        level += 1
    result = runs[0]
    if name is not None:
        result.name = name
    return result


class _HeapOrder:
    """The tournament merge's output order over one batch, in closed form.

    Called with the batch's rows (its runs concatenated, in run order),
    it returns the output as indices into them.  One stable sort on the
    keys orders the batch; only the equal-key groups that span two or
    more runs are then re-ordered, by the heap's rule (see the module
    docstring): a pair, one tuple from each of two runs, by
    :meth:`_settle_pair`, a larger group by :meth:`_settle`.  A batch
    whose run boundaries are already in key order skips the sort: its
    stable order is the identity, and only the tie groups at its
    boundaries are re-ordered.  :meth:`position` then maps an index to
    its output position.
    """

    def __init__(self, key: Key, lengths: list[int]) -> None:
        self._key = key
        #: ``bases[r]`` is run ``r``'s first index; ``bases[-1]`` is n.
        self._bases = list(itertools.accumulate(lengths, initial=0))
        self._keys: list[Any] = []
        self._sorted_keys: list[Any] = []
        self._moved: dict[int, int] = {}
        #: Were the runs already in key order (see :meth:`__call__`)?
        self._in_order = False
        self.order: list[int] = []

    def __call__(self, rows: list[Tuple]) -> list[int]:
        key, bases = self._key, self._bases
        ties = []
        for b in bases[1:-1]:
            last, first = key(rows[b - 1]), key(rows[b])
            if first < last:
                return self._sort(rows)
            if not last < first:
                ties.append((b, first))
        # The batch is sorted, so the stable sort is the identity.  A
        # tie group at a boundary may cover whole runs, so the
        # boundaries inside it are skipped.
        self._in_order = True
        self.order = list(range(len(rows)))
        hi = 0
        for b, k in ties:
            if b >= hi:
                lo = bisect_left(rows, k, hi, b, key=key)
                hi = bisect_right(rows, k, b + 1, len(rows), key=key)
                self._settle(lo, hi)
        return self.order

    def _sort(self, rows: list[Tuple]) -> list[int]:
        """The order of a batch whose runs overlap in key."""
        keys = self._keys = list(map(self._key, rows))
        order = self.order = sorted(range(len(keys)),
                                    key=keys.__getitem__)
        # The keys in output order.  Re-sorting the keys themselves
        # (already k sorted runs) is cheaper than gathering them
        # through ``order``.
        sk = self._sorted_keys = sorted(keys)
        # Each maximal stretch of positions p with sk[p - 1] == sk[p]
        # closes one tie group [lo, hi).  The stable sort lists a
        # group's indices ascending, so the group spans runs exactly
        # when its last index lies past its first index's run; a group
        # inside one run is already in heap order.  Groups are settled
        # in key order, so a block's predecessor (a smaller key)
        # already sits where it will leave.  A sentinel past the end
        # closes the last group.
        bases = self._bases
        lo = hi = 0
        for p in itertools.chain(
                itertools.compress(range(1, len(sk)),
                                   map(operator.eq, sk,
                                       itertools.islice(sk, 1, None))),
                (len(sk) + 1,)):
            if p != hi:
                if hi and order[hi - 1] >= bases[bisect_right(bases,
                                                              order[lo])]:
                    if hi - lo == 2:
                        self._settle_pair(lo)
                    else:
                        self._settle(lo, hi)
                lo = p - 1
            hi = p + 1
        return order

    def _settle_pair(self, lo: int) -> None:
        """Put the cross-run tie pair ``order[lo:lo + 2]`` in heap order.

        The stable sort lists it as ``a < b``, ``a`` in the earlier run.
        A tuple that opens its run was pushed first, so ``a`` leaves
        first if it opens its run, else ``b`` does if it opens its run.
        Otherwise each was pushed when the tuple before it in its run
        left.  Those predecessors have smaller keys than the pair (a
        third equal key would make a larger group), so the smaller
        predecessor key left first; only equal ones need
        :meth:`position`.  Only a swap is recorded in ``_moved``; an
        unmoved pair stays ascending, where :meth:`position` finds it.
        """
        order, bases = self.order, self._bases
        a, b = order[lo], order[lo + 1]
        if a == bases[bisect_right(bases, a) - 1]:
            return
        if b != bases[bisect_right(bases, b) - 1]:
            ka, kb = self._keys[a - 1], self._keys[b - 1]
            if ka < kb or not kb < ka and (self.position(a - 1)
                                            < self.position(b - 1)):
                return
        order[lo], order[lo + 1] = b, a
        self._moved[b] = lo
        self._moved[a] = lo + 1

    def _rank(self, r: int, first: int) -> int:
        """When run ``r``'s tie block starting at index ``first`` enters
        the heap: the output position of the tuple before it, or, for a
        block that opens its run, a negative rank in run order."""
        if first == self._bases[r]:
            return r - len(self._bases)
        return self.position(first - 1)

    def _settle(self, lo: int, hi: int) -> None:
        """Put the cross-run tie group ``order[lo:hi]`` in heap order.

        Each run's share of the group is one contiguous block, and the
        blocks leave round-robin, ordered by :meth:`_rank`.
        """
        order, bases = self.order, self._bases
        r = bisect_right(bases, order[lo]) - 1
        group = order[lo:hi]
        ranked = []
        start = 0
        while start < len(group):
            cut = bisect_left(group, bases[r + 1], start)
            if cut > start:
                ranked.append((self._rank(r, group[start]),
                               group[start:cut]))
            start = cut
            r += 1
        ranked.sort(key=operator.itemgetter(0))
        out = [i for rnd in itertools.zip_longest(*(b for _, b in ranked))
               for i in rnd if i is not None]
        order[lo:hi] = out
        self._moved.update(zip(out, range(lo, hi)))

    def position(self, i: int) -> int:
        """Output position of the batch's ``i``-th tuple."""
        if self._in_order:
            return self._moved.get(i, i)
        p = self._moved.get(i)
        if p is not None:
            return p
        # Never re-ordered: still in the stable sort's ascending place
        # inside its key's group.
        k = self._keys[i]
        sk = self._sorted_keys
        lo = bisect_left(sk, k)
        return bisect_left(self.order, i, lo, bisect_right(sk, k, lo))


def _merge_schedule(runs: list[EMFile], out: EMFile, B: int,
                    position: Callable[[int], int]
                    ) -> list[tuple[int, bool, EMFile, int]]:
    """The merge's page charges as ``(at, is_write, file, page)``, in order.

    A heap merge reads page 0 of every run, in run order.  It writes
    output page ``w`` when position ``(w + 1)·B - 1`` leaves, and
    reads a run's next page right after (and after that write) the
    last tuple of the run's current page leaves; the final partial
    page is written last.  ``at`` orders these: ``2p`` for the write
    at position ``p``, ``2p + 1`` for the read after it.
    """
    k, n = len(runs), len(out)
    schedule = [(r - k, False, f, 0) for r, f in enumerate(runs)]
    base = 0
    for f in runs:
        schedule.extend((2 * position(base + j - 1) + 1, False, f, j // B)
                        for j in range(B, len(f), B))
        base += len(f)
    schedule.extend((2 * p, True, out, p // B)
                    for p in range(B - 1, n, B))
    if n % B:
        schedule.append((2 * n, True, out, n // B))
    schedule.sort(key=operator.itemgetter(0))
    return schedule


def _merge_once(device: Device, runs: list[EMFile], key: Key,
                name: str | None) -> EMFile:
    """Merge up to fan-in runs into one file, as a tournament would.

    Every page of the runs is read once and every output page is
    written once, in the tournament's order when the device's order
    is seen (see the module docstring).
    """
    if len(runs) == 1:
        return runs[0]
    out = device.new_file(name)
    B = device.B
    # Each open run holds one buffered page; the output holds one more.
    with device.memory.hold((len(runs) + 1) * B):
        order = _HeapOrder(key, [len(r) for r in runs])
        with device.stats.suspend():
            out._fill_merged(runs, order)
        charge_read = device.charge_read
        charge_write = device.charge_write
        if device.order_seen:
            for _, is_write, f, page in _merge_schedule(runs, out, B,
                                                        order.position):
                if is_write:
                    charge_write(f, page)
                else:
                    charge_read(f, page)
        else:
            # Nothing sees the order (see ``Device.order_seen``): the
            # same pages in file order, page 0 of each run included.
            for f in runs:
                for page in range(max(f.n_pages, 1)):
                    charge_read(f, page)
            for page in range(out.n_pages):
                charge_write(out, page)
    return out
