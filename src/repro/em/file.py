"""On-disk tuple files for the simulated external-memory machine.

An :class:`EMFile` is an append-only sequence of tuples laid out in
pages of ``B`` tuples.  Physically the tuples are one plain list of row
tuples; page ``p`` is the slice ``[p*B, (p+1)*B)`` of that list.  All
access goes through cursors that charge the device's
:class:`~repro.em.stats.IOStats`:

* :class:`Writer` buffers up to ``B`` tuples and charges one write per
  flushed page (including the final partial page).
* :class:`SequentialReader` charges one read each time it enters a page
  it has not yet buffered.  Re-scanning a file with a fresh reader
  charges again, exactly as re-reading from disk would.

A :class:`FileSegment` is a contiguous ``[start, stop)`` slice of a
file — e.g. ``R(e)|_{v=a}`` inside a file sorted on ``v`` — and reads
through the same page-granular accounting.

Block APIs
----------

Cursors also move whole blocks so operators can amortize the Python
interpreter over many tuples per call:

* :meth:`SequentialReader.read_block` — up to ``n`` tuples in one call;
* :meth:`SequentialReader.read_page_block` — the rest of the current
  page (never more than ``B`` tuples, so it needs no memory hold);
* :meth:`Writer.append_block` / :meth:`Writer.write_block` — bulk
  append, flushing full pages as they fill.

Every block call charges **exactly** the page I/Os the equivalent
tuple-at-a-time loop would, in the same order: a block read entering
pages ``p..q`` charges them ascending, just as ``next()`` would when
crossing each boundary, and a block append charges one write per page
at the same fill points ``append()`` flushes at.  Buffer-pool hit/miss
sequences and tracer event streams are therefore byte-identical — the
property the pinned baselines and the tracer-transparency tests
enforce.  Blocks larger than one page occupy real memory; callers
account for them with ``device.memory.hold`` exactly as they did for
tuple loops that materialized the same chunk.

Blocks are fresh lists (slices of the row list), so a caller may sort
or clear a block it was handed, and the writer copies the tuples out of
a block it is given.  The tuples themselves are shared, immutable
objects.

Uncharged rows
--------------

A few methods hand over or take in rows without charging a page:
:meth:`EMFile.peek_tuples`, :meth:`FileSegment.peek_tuples`,
:meth:`EMFile.fill_sealed` and the merge's :meth:`EMFile._fill_merged`.
Each raises :class:`UnchargedAccess` unless the device's counting is
suspended (``with device.stats.suspend():``), so a free read is
always a declared free scope, never a silent one.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterator, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.em.device import Device

Tuple = tuple
Key = Callable[[Tuple], Any]


class UnchargedAccess(RuntimeError):
    """Rows were read or written uncharged outside ``stats.suspend()``."""


def _uncharged(device: "Device", what: str) -> None:
    """Allow an uncharged row access only inside a suspended scope."""
    if not device.stats.suspended:
        raise UnchargedAccess(
            f"{what} moves rows without charging I/O; wrap it in "
            "`with device.stats.suspend():` if the access is free by "
            "the model, or read through a charged cursor")


def span_pages(off: int, n: int, B: int) -> int:
    """Pages spanned by ``n`` tuples whose first sits at ``off`` in its page.

    One sequential pass over them is charged this many reads.  A new
    file starts at ``off = 0``, so a :class:`Writer` given ``n`` tuples
    charges ``span_pages(0, n, B)`` writes.
    """
    return (off + n - 1) // B + 1 if n else 0


class EMFile:
    """A sequence of tuples stored on the simulated disk.

    Files are created through :meth:`repro.em.device.Device.new_file`
    and populated through :meth:`writer` (charged) or, for inputs
    that already sit on disk, :meth:`fill_sealed`.  Once the writer is
    closed, or the file filled, it is sealed and read-only.
    """

    def __init__(self, device: "Device", name: str) -> None:
        self.device = device
        self.name = name
        self._rows: list[Tuple] = []
        self._sealed = False

    # -- writing -----------------------------------------------------

    def writer(self) -> "Writer":
        """Return a page-buffered writer; usable as a context manager."""
        if self._sealed:
            raise RuntimeError(f"file {self.name!r} is sealed")
        return Writer(self)

    def fill_sealed(self, rows: list[Tuple]) -> None:
        """Make ``rows`` this empty file's contents and seal it.

        The file keeps the list itself, so the caller hands over a
        list nothing else holds.  No writer and no page charges: this
        is how an input that already sits on disk gets there
        (:meth:`~repro.em.device.Device.file_from_tuples_free`), so it
        is allowed only while the device's counting is suspended.
        """
        _uncharged(self.device, "fill_sealed")
        if self._sealed or self._rows:
            raise RuntimeError(f"file {self.name!r} is not empty")
        self._rows = rows
        self._sealed = True

    def _fill_merged(self, runs: Sequence["EMFile"],
                     arrange: Callable[[list[Tuple]], Sequence[int]]
                     ) -> None:
        """Fill this empty file with the rows of ``runs`` rearranged; seal it.

        ``arrange`` is handed the runs' rows concatenated in run order
        and returns the output as indices into that list.  This is the
        data half of a merge and charges nothing, so it hands every row
        to ``arrange`` for free and runs only inside ``stats.suspend()``.
        Its one caller, :func:`repro.em.sort._merge_once`, suspends
        around this call alone and then charges every page read of
        ``runs`` and every page write of this file itself, at the
        points a merge's cursors would have.
        """
        _uncharged(self.device, "_fill_merged")
        rows = list(chain.from_iterable(r._rows for r in runs))
        self.fill_sealed(list(map(rows.__getitem__, arrange(rows))))

    # -- metadata ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def n_pages(self) -> int:
        """Pages occupied on disk."""
        return self.device.pages(len(self._rows))

    # -- reading -----------------------------------------------------

    def reader(self) -> "SequentialReader":
        """A sequential reader over the whole file."""
        return SequentialReader(self, 0, len(self._rows))

    def segment(self, start: int, stop: int) -> "FileSegment":
        """The contiguous slice ``[start, stop)`` of this file."""
        if not (0 <= start <= stop <= len(self._rows)):
            raise IndexError(f"segment [{start}, {stop}) out of range "
                             f"for file of length {len(self._rows)}")
        return FileSegment(self, start, stop)

    def whole(self) -> "FileSegment":
        """The file viewed as a single segment."""
        return FileSegment(self, 0, len(self._rows))

    def scan(self) -> Iterator[Tuple]:
        """Iterate all tuples, charging sequential read I/Os."""
        return iter(self.reader())

    def scan_blocks(self) -> Iterator[list[Tuple]]:
        """Iterate page-sized blocks, charging the same read I/Os."""
        return self.reader().blocks()

    def peek_tuples(self) -> Sequence[Tuple]:
        """A copy of the stored tuples, **without charging I/O**.

        Only inside ``stats.suspend()``: for pricing and copying inputs
        that already sit on disk, and for test oracles.
        """
        _uncharged(self.device, "peek_tuples")
        return self._rows[:]


class Writer:
    """Page-buffered appender for an :class:`EMFile`."""

    def __init__(self, f: EMFile) -> None:
        self._file = f
        self._buffer: list[Tuple] = []
        self._closed = False

    def append(self, t: Tuple) -> None:
        """Append one tuple, flushing a page write when the buffer fills."""
        if self._closed:
            raise RuntimeError("writer is closed")
        self._buffer.append(t)
        if len(self._buffer) >= self._file.device.B:
            self._flush()

    def append_block(self, ts: Sequence[Tuple]) -> None:
        """Append a whole block of tuples.

        Charges one write per page filled, at exactly the fill points a
        loop of :meth:`append` would flush at — only the per-tuple
        Python overhead disappears.  Full pages bypass the staging
        buffer and land in the file's row list directly.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        f = self._file
        B = f.device.B
        buf = self._buffer
        i, n = 0, len(ts)
        if buf:
            take = min(B - len(buf), n)
            buf.extend(ts[:take])
            i = take
            if len(buf) >= B:
                self._flush()
        full = (n - i) // B
        if full:
            rows = f._rows
            base = len(rows) // B
            stop = i + full * B
            rows.extend(ts[i:stop] if (i or stop != n) else ts)
            charge = f.device.charge_write
            for page in range(base, base + full):
                charge(f, page)
            i = stop
        if i < n:
            buf.extend(ts[i:])

    #: Alias: a block write is a block append on an append-only file.
    write_block = append_block

    def extend(self, ts) -> None:
        """Append each tuple of ``ts``.

        In-memory sequences take the :meth:`append_block` fast path;
        lazy iterables keep the tuple-at-a-time loop so any I/O their
        production charges stays interleaved exactly as before.
        """
        if isinstance(ts, (list, tuple)):
            self.append_block(ts)
            return
        for t in ts:
            self.append(t)

    def _flush(self) -> None:
        if self._buffer:
            f = self._file
            page = len(f._rows) // f.device.B
            f._rows.extend(self._buffer)
            self._buffer.clear()
            f.device.charge_write(f, page)

    def close(self) -> None:
        """Flush the final partial page and seal the file."""
        if not self._closed:
            self._flush()
            self._closed = True
            self._file._sealed = True

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequentialReader:
    """Forward cursor over ``[start, stop)`` of a file.

    One read I/O is charged per distinct page entered.  The reader keeps
    a single page buffered, so interleaving several readers is exactly
    as expensive as it would be on a one-page-per-stream buffer pool —
    the configuration the model's merge arguments assume.
    """

    def __init__(self, f: EMFile, start: int, stop: int) -> None:
        self._file = f
        self._pos = start
        self._stop = stop
        self._buffered_page = -1

    @property
    def position(self) -> int:
        """Absolute index of the next tuple to be returned."""
        return self._pos

    @property
    def exhausted(self) -> bool:
        return self._pos >= self._stop

    def remaining(self) -> int:
        return self._stop - self._pos

    def _touch(self, index: int) -> None:
        """Charge a read only when the cursor enters an unbuffered page.

        A sequential cursor therefore pays one read per ``B`` advances.
        """
        page = index // self._file.device.B
        if page != self._buffered_page:
            self._file.device.charge_read(self._file, page)
            self._buffered_page = page

    def peek(self) -> Tuple:
        """Return the next tuple without consuming it."""
        if self.exhausted:
            raise StopIteration("reader exhausted")
        self._touch(self._pos)
        return self._file._rows[self._pos]

    def next(self) -> Tuple:
        """Return the next tuple and advance."""
        t = self.peek()
        self._pos += 1
        return t

    def read_block(self, n: int) -> list[Tuple]:
        """Read at most ``n`` further tuples as one block.

        Charges each page entered exactly once, ascending — the same
        pages, in the same order, a :meth:`next` loop over the block
        would charge.  Blocks larger than ``B`` occupy more than the
        reader's one-page buffer; the caller holds that memory (the
        chunk loaders do).
        """
        if n <= 0 or self.exhausted:
            return []
        f = self._file
        device = f.device
        B = device.B
        stop = min(self._pos + n, self._stop)
        first = self._pos // B
        last = (stop - 1) // B
        page = first
        if self._buffered_page == first:
            page += 1
        for p in range(page, last + 1):
            device.charge_read(f, p)
        self._buffered_page = last
        block = f._rows[self._pos:stop]
        self._pos = stop
        return block

    def peek_page_block(self) -> list[Tuple]:
        """The rest of the current page **without consuming it**.

        Charges the page exactly as :meth:`peek` would (once, on first
        entry); callers consume a prefix with :meth:`skip_to`.  This is
        the block form of peek-bounded loops: fetch the page, decide in
        memory how far the bound lets you go, advance for free.
        """
        if self.exhausted:
            return []
        self._touch(self._pos)
        page_end = (self._buffered_page + 1) * self._file.device.B
        return self._file._rows[self._pos:min(page_end, self._stop)]

    def read_page_block(self) -> list[Tuple]:
        """Read from the cursor to the end of the current page.

        At most ``B`` tuples — the natural streaming unit that fits the
        reader's own one-page buffer, so no extra memory hold is
        needed.
        """
        if self.exhausted:
            return []
        B = self._file.device.B
        page_end = (self._pos // B + 1) * B
        return self.read_block(min(page_end, self._stop) - self._pos)

    def blocks(self) -> Iterator[list[Tuple]]:
        """Iterate the remaining tuples one page block at a time."""
        while not self.exhausted:
            yield self.read_page_block()

    def skip_to(self, index: int) -> None:
        """Jump the cursor forward to absolute index ``index``.

        Seeking itself is free (disk arms move without transferring
        data); the page containing ``index`` is charged when next read.
        """
        if index < self._pos:
            raise ValueError("sequential reader cannot move backwards")
        self._pos = min(index, self._stop)

    def __iter__(self) -> Iterator[Tuple]:
        while not self.exhausted:
            yield self.next()


class FileSegment:
    """A contiguous slice of an :class:`EMFile`.

    Segments arise when a file sorted on an attribute is partitioned by
    that attribute's values (``R(e)|_{v=a}``), and when sorted runs are
    handed to a merge.
    """

    def __init__(self, f: EMFile, start: int, stop: int) -> None:
        self.file = f
        self.start = start
        self.stop = stop

    @property
    def device(self) -> "Device":
        return self.file.device

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def n_pages(self) -> int:
        """Pages this segment's tuples span (including straddled ones)."""
        B = self.device.B
        return span_pages(self.start % B, len(self), B)

    def reader(self) -> SequentialReader:
        return SequentialReader(self.file, self.start, self.stop)

    def scan(self) -> Iterator[Tuple]:
        """Iterate the segment's tuples, charging sequential read I/Os."""
        return iter(self.reader())

    def scan_blocks(self) -> Iterator[list[Tuple]]:
        """Page-sized blocks of the segment, same charges as a scan."""
        return self.reader().blocks()

    def subsegment(self, start: int, stop: int) -> "FileSegment":
        """Absolute-indexed sub-slice; must lie within this segment."""
        if not (self.start <= start <= stop <= self.stop):
            raise IndexError("subsegment out of range")
        return FileSegment(self.file, start, stop)

    def peek_tuples(self) -> list[Tuple]:
        """:meth:`EMFile.peek_tuples` of this slice (a fresh list)."""
        _uncharged(self.device, "peek_tuples")
        return self.file._rows[self.start:self.stop]
