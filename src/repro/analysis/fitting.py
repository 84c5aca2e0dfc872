"""Bound attribution: fit hidden constants, flag complexity regressions.

Table 1's bounds are Õ statements — ``N1·N2/(MB)`` up to a hidden
constant (and log factor).  This module makes the constant empirical:
it sweeps a query class over instance sizes, measures I/O on a fresh
simulated device per point, and fits

* the **constant** — the geometric mean of ``measured / bound`` over
  the sweep (the hidden constant of the Õ), and
* the **slope** of ``log(measured)`` against ``log(bound)`` by least
  squares — 1.0 means the implementation scales exactly as the bound
  predicts; a slope above ``1 + eps`` is flagged as a **complexity
  regression** (the implementation grows strictly faster than its
  bound, i.e. someone broke the algorithm, not just its constant).

Each bound is also decomposed into its summands (``N1·N2/(MB)`` vs the
linear ``(N1+N2)/B`` term) so the fit reports *which term dominates*
at the swept sizes — small sweeps often sit in the linear-term regime,
and a constant fitted there says nothing about the leading term.

This lives in ``analysis/`` (not ``obs/``) because the builders drive
``repro.core`` algorithms: obs/ must stay passive (rule EM003 of
``tests/test_lint_src.py``), while analysis/ sits above core/ and may
orchestrate it.  Builder imports stay lazy so importing
:mod:`repro.analysis` stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass(frozen=True)
class BoundTerm:
    """One summand of a bound, evaluated at a sweep point."""

    name: str
    value: float


@dataclass(frozen=True)
class FitPoint:
    """One measured sweep point: instance size vs bound."""

    n: int            #: the size parameter handed to the builder
    M: int
    B: int
    io: int           #: measured block transfers (reads + writes)
    results: int      #: join results emitted
    bound: float      #: the closed-form bound at this point
    ratio: float      #: io / bound — the point's hidden constant
    terms: tuple[BoundTerm, ...]
    #: exclusive per-phase I/O of the point's run (PhaseTracker report,
    #: including the "(unattributed)" remainder) — what `repro explain`
    #: decomposes its prediction with.
    phases: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"n": self.n, "M": self.M, "B": self.B, "io": self.io,
                "results": self.results, "bound": round(self.bound, 3),
                "ratio": round(self.ratio, 4),
                "terms": {t.name: round(t.value, 3) for t in self.terms},
                "phases": dict(self.phases)}


@dataclass(frozen=True)
class FitResult:
    """A fitted sweep: constant, slope, and per-term attribution."""

    name: str
    bound_name: str
    points: tuple[FitPoint, ...]
    constant: float       #: geometric mean of io/bound
    slope: float          #: log-log least-squares slope
    intercept: float      #: log-log intercept (log of the constant fit)
    r2: float             #: goodness of the log-log fit
    eps: float            #: regression tolerance used
    term_shares: dict[str, float] = field(default_factory=dict)
    dominant_term: str = ""
    #: mean fraction of measured I/O spent in each phase over the sweep
    #: — the empirical decomposition `repro explain` scales to predict
    #: per-phase I/O at a query's actual (n, M, B).
    phase_shares: dict[str, float] = field(default_factory=dict)

    @property
    def regression(self) -> bool:
        """True when measured I/O grows strictly faster than the bound."""
        return self.slope > 1.0 + self.eps

    def as_dict(self) -> dict:
        return {
            "class": self.name,
            "bound": self.bound_name,
            "points": [p.as_dict() for p in self.points],
            "constant": round(self.constant, 4),
            "slope": round(self.slope, 4),
            "intercept": round(self.intercept, 4),
            "r2": round(self.r2, 4),
            "eps": self.eps,
            "regression": self.regression,
            "term_shares": {k: round(v, 4)
                            for k, v in self.term_shares.items()},
            "dominant_term": self.dominant_term,
            "phase_shares": {k: round(v, 6)
                             for k, v in self.phase_shares.items()},
        }


def fit_loglog(xs: Sequence[float],
               ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares fit of ``log y = slope·log x + intercept``.

    Returns ``(slope, intercept, r2)``.  Needs at least two points with
    distinct positive ``x`` (a single size tells you nothing about
    scaling).
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError(
            f"need >= 2 (x, y) pairs to fit, got {len(xs)}/{len(ys)}")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit needs strictly positive values")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((v - mx) ** 2 for v in lx)
    if sxx == 0:
        raise ValueError(
            "all sweep points have the same bound value; vary the "
            "instance size to fit a slope")
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((b - (slope * a + intercept)) ** 2
                 for a, b in zip(lx, ly))
    ss_tot = sum((b - my) ** 2 for b in ly)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


@dataclass(frozen=True)
class FitClass:
    """A sweepable query class tied to its Table-1 bound.

    ``build(n)`` returns ``(query, schemas, data, runner)`` — the same
    deterministic constructions the benchmarks use; ``bound_terms(n,
    M, B)`` evaluates each summand of the class's bound at that point.
    """

    name: str
    bound_name: str
    default_M: int
    default_B: int
    default_points: tuple[int, ...]
    size_label: str
    build: Callable
    bound_terms: Callable


def _build_two_relations(n):
    from repro.core import nested_loop_join
    from repro.query import line_query
    from repro.workloads import schemas_for

    q = line_query(2)
    data = {"e1": [(i, 0) for i in range(n)],
            "e2": [(0, j) for j in range(n)]}

    def runner(query, instance, emitter):
        nested_loop_join(instance["e1"], instance["e2"], emitter)

    return q, schemas_for(q), data, runner


def _terms_two_relations(n, M, B):
    return (BoundTerm("N1N2/(MB)", n * n / (M * B)),
            BoundTerm("(N1+N2)/B", 2 * n / B))


def _build_line3(n):
    from repro.core import line3_join
    from repro.query import line_query
    from repro.workloads import fig3_line3_instance

    schemas, data = fig3_line3_instance(n, n)
    return line_query(3), schemas, data, line3_join


def _terms_line3(n, M, B):
    return (BoundTerm("N1N3/(MB)", n * n / (M * B)),
            BoundTerm("(N1+N2+N3)/B", (2 * n + 1) / B))


def _build_triangle(k):
    from repro.core.triangle import triangle_join
    from repro.query import triangle_query

    rows = [(i, j) for i in range(k) for j in range(k)]
    schemas = {"e1": ("v1", "v2"), "e2": ("v1", "v3"),
               "e3": ("v2", "v3")}
    return (triangle_query(), schemas,
            {"e1": rows, "e2": rows, "e3": rows}, triangle_join)


def _terms_triangle(k, M, B):
    n = k * k
    return (BoundTerm("sqrt(N^3/M)/B", math.sqrt(n ** 3 / M) / B),
            BoundTerm("3N/B", 3 * n / B))


def _build_star(n):
    from repro.core import acyclic_join_best
    from repro.query import star_query
    from repro.workloads import star_worstcase_instance

    # Three petals: a 2-petal "star" is structurally a 3-line (the core
    # sits mid-path) and both the shape classifier and the planner
    # treat it as one, so the smallest genuinely star-shaped sweep —
    # the one `repro explain` maps k>=3 star queries onto — needs k=3.
    schemas, data = star_worstcase_instance([n, n, n])

    def runner(query, instance, emitter):
        acyclic_join_best(query, instance, emitter, limit=16)

    return star_query(3), schemas, data, runner


def _terms_star(n, M, B):
    # star_bound(core, [n, n, n], M, B), worst-case core of size 1.
    return (BoundTerm("prodN/(M^(k-1)B)", n ** 3 / (M ** 2 * B)),
            BoundTerm("(core+sumN)/B", (1 + 3 * n) / B))


#: Fit-ready query classes: name -> sweep recipe + bound decomposition.
FIT_CLASSES: dict[str, FitClass] = {
    "two_relations": FitClass(
        "two_relations", "two_relation_bound", 16, 4, (64, 128, 256),
        "N1=N2", _build_two_relations, _terms_two_relations),
    "line3": FitClass(
        "line3", "line3_bound", 8, 2, (32, 64, 128),
        "N1=N3", _build_line3, _terms_line3),
    "triangle": FitClass(
        "triangle", "triangle_bound", 32, 4, (8, 12, 16),
        "k (N=k^2)", _build_triangle, _terms_triangle),
    "star": FitClass(
        "star", "star_bound", 8, 2, (12, 24, 48),
        "petal N", _build_star, _terms_star),
}


def planner_runner(query, instance, emitter):
    """Run a sweep point the way the engine would: the full planner
    path (reducer + dispatched algorithm), or ``triangle_join`` for the
    cyclic triangle the acyclic planner refuses.

    Constants fitted over this runner predict what ``repro explain``
    and the service actually measure; the per-class runners in
    :data:`FIT_CLASSES` stay algorithm-level (the complexity-regression
    gate on the paper's algorithms themselves).
    """
    from repro.core.planner import execute
    from repro.query.shapes import classify_shape

    if classify_shape(query) == "cyclic":
        from repro.core.triangle import triangle_join
        triangle_join(query, instance, emitter)
    else:
        execute(query, instance, emitter)


def measure_point(cls: FitClass, n: int, M: int, B: int, *,
                  profiler=None, planner: bool = False) -> FitPoint:
    """Run one sweep point on a fresh device and pair it with its bound.

    With a profiler the whole point runs inside a
    ``fit:<class>`` algorithm span (and the profiler's tuple counter
    sees every emitted result via :class:`ProfiledEmitter`); counters
    are byte-identical either way.  ``planner=True`` swaps the class's
    algorithm-level runner for :func:`planner_runner`.
    """
    from repro.core import CountingEmitter
    from repro.data.instance import Instance
    from repro.em.device import Device
    from repro.obs.spans import ProfiledEmitter

    query, schemas, data, runner = cls.build(n)
    if planner:
        runner = planner_runner
    device = Device(M=M, B=B, observers=[profiler] if profiler else [])
    instance = Instance.from_dicts(device, schemas, data)
    emitter = CountingEmitter()
    sink = ProfiledEmitter(emitter, profiler) if profiler else emitter
    with device.span(f"fit:{cls.name}", kind="algorithm", n=n, M=M, B=B):
        runner(query, instance, sink)
    device.flush_pool()
    terms = tuple(cls.bound_terms(n, M, B))
    bound = sum(t.value for t in terms)
    io = device.stats.total
    phases = device.phases.report()
    return FitPoint(n=n, M=M, B=B, io=io, results=emitter.count,
                    bound=bound, ratio=io / bound, terms=terms,
                    phases=phases)


def fit_class(name: str, *, M: int | None = None, B: int | None = None,
              points: Sequence[int] | None = None, eps: float = 0.25,
              profiler=None, planner: bool = False) -> FitResult:
    """Sweep one registered class and fit its constant and slope.

    ``eps`` is the regression tolerance: the result's ``regression``
    flag is set when the fitted log-log slope exceeds ``1 + eps``.
    ``planner=True`` sweeps the engine's real execution path (reducer
    included) instead of the bare algorithm — the constants the fitted
    document persists for ``repro explain``.
    """
    try:
        cls = FIT_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown fit class {name!r}; available: "
            f"{', '.join(sorted(FIT_CLASSES))}") from None
    M = cls.default_M if M is None else M
    B = cls.default_B if B is None else B
    sizes = tuple(points) if points is not None else cls.default_points
    if len(sizes) < 2:
        raise ValueError(f"need >= 2 sweep points, got {list(sizes)}")
    measured = tuple(measure_point(cls, n, M, B, profiler=profiler,
                                   planner=planner)
                     for n in sizes)
    slope, intercept, r2 = fit_loglog([p.bound for p in measured],
                                      [p.io for p in measured])
    constant = math.exp(
        sum(math.log(p.ratio) for p in measured) / len(measured))
    shares: dict[str, float] = {}
    for p in measured:
        for t in p.terms:
            shares[t.name] = shares.get(t.name, 0.0) + t.value / p.bound
    shares = {k: v / len(measured) for k, v in shares.items()}
    dominant = max(shares, key=shares.get) if shares else ""
    phase_shares: dict[str, float] = {}
    for p in measured:
        if p.io <= 0:
            continue
        for label, cost in p.phases.items():
            phase_shares[label] = (phase_shares.get(label, 0.0)
                                   + cost / p.io)
    phase_shares = {k: v / len(measured)
                    for k, v in phase_shares.items() if v > 0}
    return FitResult(name=name, bound_name=cls.bound_name,
                     points=measured, constant=constant, slope=slope,
                     intercept=intercept, r2=r2, eps=eps,
                     term_shares=shares, dominant_term=dominant,
                     phase_shares=phase_shares)
