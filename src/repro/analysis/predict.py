"""Predicted I/O from fitted constants: what ``repro explain`` reports.

:mod:`repro.analysis.fitting` makes Table 1's hidden constants
empirical; this module spends them.  Given a query, its actual relation
sizes, and a machine ``(M, B)``, it

* matches the query onto one of the **fitted classes** (two relations,
  ``L3``, star, triangle — the classes ``repro fit`` sweeps),
* evaluates that class's bound **terms** at the actual sizes, and
* scales by the fitted constant to predict total I/O, decomposed per
  phase with the sweep's measured phase shares.

The prediction is only as honest as its provenance, so the fitted
constants travel in a versioned document (``benchmarks/BENCH_fitted.json``,
written by ``repro fit --write-fitted`` and drift-checked in CI by
``--check-fitted``): each class records the constant, the log-log
slope, the machine it was fitted on, the per-point measured I/O (exact
integers — the drift anchor), and the phase decomposition.  ``repro
explain`` and the service's ``?explain=1`` then render predicted vs
measured I/O per phase with an accuracy ratio; a ratio drifting out of
``[0.5, 2]`` on a fitted class means the cost model lost touch with the
implementation — exactly the signal a cost-based planner needs before
it can be trusted to *choose* algorithms.

Predictions degrade explicitly, never silently: a query outside the
fitted classes (a 4-line, a lollipop, …) yields ``prediction: null``
with a reason, and a machine far from the fitted one is flagged in the
report (the constant is still applied — the bound carries the (M, B)
dependence — but the reader sees the extrapolation).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.query.hypergraph import JoinQuery
from repro.query.shapes import classify_shape, detect_line, detect_star

#: Format version of the fitted-constants document.
FITTED_VERSION = 1

#: Relative tolerance for fitted-constant drift (the per-point I/O
#: counts are integers and must match exactly; the derived floats get
#: this slack for cross-platform libm differences).
DRIFT_RTOL = 1e-6


@dataclass(frozen=True)
class Prediction:
    """One query's predicted I/O bill, decomposed."""

    fit_class: str                 #: fitted class the query matched
    bound_name: str
    constant: float                #: fitted hidden constant applied
    slope: float                   #: fitted log-log slope (context)
    bound: float                   #: closed-form bound at (sizes, M, B)
    io: float                      #: predicted total = constant * bound
    terms: dict[str, float] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)
    machine: dict[str, int] = field(default_factory=dict)
    fitted_machine: dict[str, int] = field(default_factory=dict)

    @property
    def extrapolated(self) -> bool:
        """True when the query's machine differs from the fitted one.

        The bound carries the (M, B) dependence, so the prediction is
        still evaluated — but the constant was fitted elsewhere and the
        reader should know.
        """
        return bool(self.fitted_machine) \
            and self.fitted_machine != self.machine

    def as_dict(self) -> dict:
        return {
            "class": self.fit_class,
            "bound": self.bound_name,
            "constant": round(self.constant, 4),
            "slope": round(self.slope, 4),
            "bound_value": round(self.bound, 3),
            "io": round(self.io, 1),
            "terms": {k: round(v, 3) for k, v in self.terms.items()},
            "phases": {k: round(v, 1) for k, v in self.phases.items()},
            "sizes": dict(self.sizes),
            "machine": dict(self.machine),
            "fitted_machine": dict(self.fitted_machine),
            "extrapolated": self.extrapolated,
        }


@dataclass(frozen=True)
class ExplainReport:
    """Predicted vs measured, per phase — or the reason there is none."""

    prediction: Prediction | None
    reason: str                    #: why prediction is None ("" if not)
    measured_io: int
    measured_phases: dict[str, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float | None:
        """measured / predicted total I/O (1.0 = the model is exact)."""
        if self.prediction is None or self.prediction.io <= 0:
            return None
        return self.measured_io / self.prediction.io

    def phase_rows(self) -> list[dict]:
        """One row per phase: predicted, measured, and their ratio."""
        predicted = self.prediction.phases if self.prediction else {}
        labels = sorted(set(predicted) | set(self.measured_phases))
        rows = []
        for label in labels:
            p = predicted.get(label)
            m = self.measured_phases.get(label, 0)
            ratio = (m / p) if p else None
            rows.append({"phase": label,
                         "predicted": None if p is None else round(p, 1),
                         "measured": m,
                         "ratio": None if ratio is None
                         else round(ratio, 3)})
        return rows

    def as_dict(self) -> dict:
        acc = self.accuracy
        return {
            "prediction": (None if self.prediction is None
                           else self.prediction.as_dict()),
            "reason": self.reason,
            "measured": {"io": self.measured_io,
                         "phases": dict(self.measured_phases)},
            "accuracy": None if acc is None else round(acc, 3),
            "per_phase": self.phase_rows(),
        }


# -- matching queries onto fitted classes ------------------------------


def _is_triangle(query: JoinQuery) -> bool:
    """Three binary edges pairwise sharing one attribute (``C3``)."""
    names = query.edge_names
    if len(names) != 3 or len(query.attributes) != 3:
        return False
    if any(len(query.edges[e]) != 2 for e in names):
        return False
    occ = {a: sum(1 for e in names if a in query.edges[e])
           for a in query.attributes}
    return all(c == 2 for c in occ.values())


def match_fit_class(query: JoinQuery,
                    sizes: Mapping[str, int], M: int, B: int,
                    ) -> tuple[str, dict[str, float]] | None:
    """Map a query onto a fitted class and evaluate its bound terms.

    Returns ``(class_name, {term: value})`` with the terms evaluated at
    the query's **actual** relation sizes, or ``None`` when no fitted
    class covers the query's shape.
    """
    shape = classify_shape(query)
    if shape == "two-relation":
        e1, e2 = query.edge_names
        n1, n2 = sizes[e1], sizes[e2]
        return "two_relations", {"N1N2/(MB)": n1 * n2 / (M * B),
                                 "(N1+N2)/B": (n1 + n2) / B}
    if shape == "line":
        chain = detect_line(query)
        if chain is not None and len(chain.edges) == 3:
            n1, n2, n3 = (sizes[e] for e in chain.edges)
            return "line3", {"N1N3/(MB)": n1 * n3 / (M * B),
                             "(N1+N2+N3)/B": (n1 + n2 + n3) / B}
        return None
    if shape == "star":
        star = detect_star(query)
        if star is None:
            return None
        core = sizes[star.core]
        petals = [sizes[e] for e in star.petals]
        k = len(petals)
        return "star", {
            "prodN/(M^(k-1)B)": math.prod(petals) / (M ** (k - 1) * B),
            "(core+sumN)/B": (core + sum(petals)) / B}
    if shape == "cyclic" and _is_triangle(query):
        n1, n2, n3 = (sizes[e] for e in query.edge_names)
        return "triangle", {
            "sqrt(N1N2N3/M)/B": math.sqrt(n1 * n2 * n3 / M) / B,
            "3N/B": (n1 + n2 + n3) / B}
    return None


def predict(query: JoinQuery, sizes: Mapping[str, int], M: int, B: int,
            fitted: Mapping) -> tuple[Prediction | None, str]:
    """Predict a query's I/O from a fitted-constants document.

    Returns ``(prediction, "")`` on a match, or ``(None, reason)`` when
    the query falls outside the fitted classes or the document lacks
    the matched class.
    """
    match = match_fit_class(query, sizes, M, B)
    if match is None:
        return None, (f"no fitted Table-1 class covers shape "
                      f"{classify_shape(query)!r} with "
                      f"{len(query.edges)} edges")
    name, terms = match
    cls = fitted.get("classes", {}).get(name)
    if cls is None:
        have = sorted(fitted.get("classes", {}))
        return None, (f"fitted document has no class {name!r} "
                      f"(has {have}); regenerate with "
                      f"'repro fit ... --write-fitted'")
    constant = float(cls["constant"])
    bound = sum(terms.values())
    total = constant * bound
    phases = {label: share * total
              for label, share in cls.get("phase_shares", {}).items()}
    return Prediction(
        fit_class=name, bound_name=cls.get("bound", ""),
        constant=constant, slope=float(cls.get("slope", 1.0)),
        bound=bound, io=total,
        terms={k: constant * v for k, v in terms.items()},
        phases=phases, sizes=dict(sizes),
        machine={"M": M, "B": B},
        fitted_machine=dict(cls.get("machine", {}))), ""


def explain(query: JoinQuery, sizes: Mapping[str, int], M: int, B: int,
            measured_io: int, measured_phases: Mapping[str, int],
            fitted: Mapping) -> ExplainReport:
    """The full predicted-vs-measured report for one executed query."""
    prediction, reason = predict(query, sizes, M, B, fitted)
    return ExplainReport(prediction=prediction, reason=reason,
                         measured_io=measured_io,
                         measured_phases=dict(measured_phases))


# -- the fitted-constants document -------------------------------------


def fitted_document(fits: Sequence, *, source: str = "repro fit") -> dict:
    """Bundle :class:`~repro.analysis.fitting.FitResult`s for persisting."""
    classes = {}
    for f in fits:
        classes[f.name] = {
            "bound": f.bound_name,
            "constant": round(f.constant, 6),
            "slope": round(f.slope, 6),
            "r2": round(f.r2, 6),
            "machine": {"M": f.points[0].M, "B": f.points[0].B},
            "points": [{"n": p.n, "io": p.io, "results": p.results}
                       for p in f.points],
            "phase_shares": {k: round(v, 6)
                             for k, v in f.phase_shares.items()},
        }
    return {"version": FITTED_VERSION,
            "meta": {"source": source, "classes": sorted(classes)},
            "classes": classes}


def save_fitted(path, fits: Sequence, *, source: str = "repro fit") -> dict:
    """Write the fitted-constants document to ``path``; return it."""
    doc = fitted_document(fits, source=source)
    # host-side archive of fitted constants, not simulated-device I/O
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def load_fitted(path) -> dict:
    """Load and version-check a fitted-constants document."""
    # host-side archive of fitted constants, not simulated-device I/O
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("version")
    if version != FITTED_VERSION:
        raise ValueError(
            f"fitted document {path} has version {version!r}, "
            f"this build reads {FITTED_VERSION}")
    if not isinstance(doc.get("classes"), dict):
        raise ValueError(f"fitted document {path} has no 'classes' map")
    return doc


def compare_fitted(committed: Mapping, live: Mapping) -> list[str]:
    """Drift lines between a committed and a just-measured document.

    Per-point I/O counts are integers on a deterministic simulated
    device and must match **exactly**; the derived constants/slopes get
    :data:`DRIFT_RTOL` for libm differences.  An empty list means no
    drift.
    """
    out: list[str] = []
    want = committed.get("classes", {})
    got = live.get("classes", {})
    for name in sorted(set(want) | set(got)):
        if name not in got:
            out.append(f"{name}: committed but not measured")
            continue
        if name not in want:
            out.append(f"{name}: measured but not committed")
            continue
        w, g = want[name], got[name]
        if w.get("points") != g.get("points"):
            out.append(f"{name}.points: pinned {w.get('points')!r}, "
                       f"measured {g.get('points')!r}")
        for key in ("constant", "slope"):
            a, b = float(w.get(key, 0)), float(g.get(key, 0))
            if abs(a - b) > DRIFT_RTOL * max(abs(a), abs(b), 1.0):
                out.append(f"{name}.{key}: pinned {a}, measured {b}")
        if w.get("machine") != g.get("machine"):
            out.append(f"{name}.machine: pinned {w.get('machine')!r}, "
                       f"measured {g.get('machine')!r}")
        if w.get("phase_shares") != g.get("phase_shares"):
            out.append(f"{name}.phase_shares: pinned "
                       f"{w.get('phase_shares')!r}, measured "
                       f"{g.get('phase_shares')!r}")
    return out
