"""The emit model (Section 1.1).

For each join result the algorithm calls an ``emit`` function with all
participating tuples, which must reside in memory at the time of the
call but need not be written to disk.  A result is represented as a
mapping from edge name to that relation's participating tuple.

Results reach an emitter one of three ways, all with the same meaning:

* ``emit(result)`` — one result;
* :func:`emit_block` — a block of results, in order;
* :func:`emit_product` — a *factorized* block ``(base, factors)``:
  ``base`` fixes some edges' tuples, each ``(edge, tuples)`` factor
  ranges over a memory-resident tuple list, and the block is their
  cross product, last factor varying fastest.  Algorithm 2's peels
  produce exactly this shape (one child result crossed with a loaded
  chunk), so a result count or checksum never has to see the results
  one at a time.

Emitters:

* :class:`CountingEmitter` — counts results and keeps an
  order-insensitive checksum, so two algorithms can be compared without
  materializing anything (the normal benchmark configuration);
* :class:`CollectingEmitter` — stores every result (tests/oracles);
* :class:`AssignmentEmitter` — converts results to canonical
  attribute→value assignments on the fly, for comparison with the
  internal-memory oracle.
"""

from __future__ import annotations

from itertools import product, repeat
from math import prod
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence

Result = Mapping[str, tuple]
#: The varying part of a factorized block: ``(edge, tuples)`` pairs.
Factors = Sequence[tuple[str, Sequence[tuple]]]

_MASK = (1 << 64) - 1


class Emitter(Protocol):
    """Anything accepting emit-model results."""

    def emit(self, result: Result) -> None:  # pragma: no cover - protocol
        ...


def emit_block(emitter: "Emitter", results: Iterable[Result]) -> None:
    """Hand a whole block of results to ``emitter``.

    The block operators' counterpart to :meth:`Emitter.emit`: emitters
    that implement ``emit_block`` (all the ones in this module) absorb
    the block in one call; duck-typed emitters without it get the
    per-result loop they always got.  Semantically identical to calling
    ``emit`` on each result in order — blocks only amortize the call
    overhead.
    """
    bulk = getattr(emitter, "emit_block", None)
    if bulk is not None:
        bulk(results)
    else:
        emit = emitter.emit
        for r in results:
            emit(r)


def emit_product(emitter: "Emitter", base: Result,
                 factors: Factors) -> None:
    """Hand a factorized block of results to ``emitter``.

    Emitters that implement ``emit_product`` take the block as is;
    any other emitter gets it expanded, in order, through
    :func:`emit_block`.  Semantically identical to emitting every
    result of :func:`expand_product` in order.
    """
    bulk = getattr(emitter, "emit_product", None)
    if bulk is not None:
        bulk(base, factors)
    else:
        emit_block(emitter, expand_product(base, factors))


def expand_product(base: Result, factors: Factors) -> Iterator[dict]:
    """The results of a factorized block, last factor varying fastest."""
    edges = [e for e, _ in factors]
    for combo in product(*(ts for _, ts in factors)):
        r = dict(base)
        r.update(zip(edges, combo))
        yield r


class CountingEmitter:
    """Counts emitted results with an order-insensitive checksum.

    The checksum is ``Σ_results Π_(e,t)∈result hash((e, t)) mod 2**64``.
    Equal result *multisets* produce equal ``(count, checksum)`` pairs
    regardless of emission order or of the emit path that delivered
    them.  Because each result's term is a product, a factorized
    block's terms sum to ``hash-product(base) × Π_f Σ_(t∈f)
    hash((edge_f, t))``: one pass over its factor lists, no step per
    result.  The value depends on the interpreter's hash seed, so it
    is only compared within one process.
    """

    def __init__(self) -> None:
        self.count = 0
        self.checksum = 0

    def emit(self, result: Result) -> None:
        self.count += 1
        self.checksum = (self.checksum
                         + prod(map(hash, result.items()))) & _MASK

    def emit_block(self, results: Iterable[Result]) -> None:
        # Each result's term, composed at C level; blocks carry dicts.
        results = results if isinstance(results, list) else list(results)
        self.count += len(results)
        terms = map(prod, map(map, repeat(hash), map(dict.items, results)))
        self.checksum = (self.checksum + sum(terms)) & _MASK

    def emit_product(self, base: Result, factors: Factors) -> None:
        n = 1
        h = prod(map(hash, base.items()))
        for edge, ts in factors:
            n *= len(ts)
            h = h * sum(map(hash, zip(repeat(edge), ts))) & _MASK
        self.count += n
        self.checksum = (self.checksum + h) & _MASK

    def signature(self) -> tuple[int, int]:
        return (self.count, self.checksum)


class CollectingEmitter:
    """Stores every emitted result (tests only — unbounded memory)."""

    def __init__(self) -> None:
        self.results: list[dict[str, tuple]] = []

    def emit(self, result: Result) -> None:
        self.results.append(dict(result))

    def emit_block(self, results: Iterable[Result]) -> None:
        self.results.extend(dict(r) for r in results)

    @property
    def count(self) -> int:
        return len(self.results)

    def result_set(self) -> set[frozenset]:
        """Results as a set (detects duplicates via len() mismatch)."""
        return {frozenset(r.items()) for r in self.results}


class AssignmentEmitter:
    """Converts results to canonical attribute assignments.

    ``schemas`` maps edge names to their physical column tuples; every
    emitted result is flattened to a sorted ``(attribute, value)`` tuple
    (consistency across edges is asserted), matching
    :func:`repro.internal.hashjoin.canonical`.
    """

    def __init__(self, schemas: Mapping[str, Sequence[str]]) -> None:
        self._schemas = {e: tuple(s) for e, s in schemas.items()}
        self.assignments: list[tuple] = []

    def emit(self, result: Result) -> None:
        merged: dict[str, object] = {}
        for edge, t in result.items():
            for attr, value in zip(self._schemas[edge], t):
                if attr in merged and merged[attr] != value:
                    raise AssertionError(
                        f"inconsistent emit: {attr}={merged[attr]!r} vs "
                        f"{value!r} in result {dict(result)}")
                merged[attr] = value
        self.assignments.append(tuple(sorted(merged.items())))

    def emit_block(self, results: Iterable[Result]) -> None:
        for r in results:
            self.emit(r)

    @property
    def count(self) -> int:
        return len(self.assignments)

    def assignment_set(self) -> set[tuple]:
        return set(self.assignments)


class CallbackEmitter:
    """Adapts a plain function to the emitter interface."""

    def __init__(self, fn: Callable[[Result], None]) -> None:
        self._fn = fn

    def emit(self, result: Result) -> None:
        self._fn(result)

    def emit_block(self, results: Iterable[Result]) -> None:
        fn = self._fn
        for r in results:
            fn(r)
