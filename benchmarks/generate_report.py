#!/usr/bin/env python3
"""Regenerate the measured tables in EXPERIMENTS.md — and guard them.

Default mode runs every benchmark module's ``sweep()`` (the same
measurements the pytest harness asserts on) and prints the tables as
markdown, so EXPERIMENTS.md can be refreshed with
``python benchmarks/generate_report.py > measured.md`` and pasted.

Baseline modes pin the Table-1 counters (see ``_util.table1_baseline``
and ``repro.obs.baseline``)::

    # regenerate benchmarks/BENCH_table1.json after an intentional change
    python benchmarks/generate_report.py --write-baseline

    # CI: re-measure and fail (exit 1) on any I/O-count drift
    python benchmarks/generate_report.py --check-baseline \\
        --trace-summary-out trace_summary.json

Slope mode guards the *shape* of the cost curves rather than the raw
counts: it refits the hidden constants of the Table-1 bounds over the
standard sweeps (``repro.analysis.fitting``) and fails when any class's
measured I/O grows superlinearly in its bound::

    # CI: fail (exit 1) when a log-log slope exceeds 1 + eps
    python benchmarks/generate_report.py --check-slopes \\
        --fit-out fitted_constants.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

BASELINE_PATH = Path(__file__).parent / "BENCH_table1.json"

EXPERIMENTS = [
    ("T1-2rel", "bench_table1_two_relations", "sweep",
     "Table 1 / two relations"),
    ("T1-line3", "bench_table1_line3", "sweep", "Table 1 / L3 (Thm 1)"),
    ("T1-line4", "bench_table1_line4", "sweep", "Table 1 / L4"),
    ("T1-acyclic", "bench_table1_acyclic", "sweep",
     "Table 1 / general acyclic (Thm 2-3)"),
    ("T1-star", "bench_table1_star", "sweep",
     "Table 1 / star (Cor 1, Thm 4)"),
    ("T1-equal", "bench_table1_equal_sizes", "sweep",
     "Table 1 / equal sizes (Thm 7)"),
    ("F1", "bench_fig1_subjoin_vs_partial", "sweep",
     "Figure 1: subjoin vs partial join"),
    ("F3", "bench_fig3_lower_bound", "sweep",
     "Figure 3: the L3 lower bound"),
    ("G", "bench_gens_examples", "branch_costs",
     "GenS worked examples (L5 branches)"),
    ("E-L5", "bench_line5_unbalanced", "sweep",
     "Unbalanced L5 (Alg 4 crossover)"),
    ("E-L7", "bench_line7_unbalanced", "sweep",
     "Unbalanced L7 (Alg 5)"),
    ("E-yann", "bench_yannakakis_gap", "sweep",
     "Emit-model gap (Sec 1.2)"),
    ("E-lollipop", "bench_lollipop", "sweep", "Lollipop (Sec 7.2)"),
    ("E-dumbbell", "bench_dumbbell", "sweep", "Dumbbell (Sec 7.3)"),
    ("E-agm", "bench_agm_internal", "sweep",
     "AGM / internal column"),
    ("T1-triangle", "bench_table1_triangle", "sweep",
     "Table 1 / triangle C3"),
    ("T1-LW", "bench_table1_lw", "sweep", "Table 1 / LW_n"),
    ("M-scale", "bench_memory_scaling", "sweep",
     "I/O vs M (the 1/M law)"),
    ("O2-probe", "bench_instance_optimality_probe", "sweep",
     "Open problem 2 probe"),
    ("A-branch", "bench_ablation_strategies", "sweep",
     "Strategy ablation"),
    ("E-line-bal", "bench_line_balanced", "sweep",
     "Theorems 5-6 balanced lines"),
]


def markdown_table(rows) -> str:
    if not rows:
        return "(no rows)\n"
    cols = list(rows[0].keys())
    out = ["| " + " | ".join(str(c) for c in cols) + " |",
           "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        out.append("| " + " | ".join(_fmt(r[c]) for c in cols) + " |")
    return "\n".join(out) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def _measure(trace_path: str | None) -> tuple[dict, dict]:
    """Measure all baseline classes; optionally dump tracer summaries."""
    from _util import table1_baseline

    summaries: dict = {}
    classes = table1_baseline(tracer_summaries=summaries)
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(summaries, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote tracer summaries for {len(summaries)} classes "
              f"to {trace_path}")
    return classes, summaries


def write_baseline_cmd(path: Path, trace_path: str | None) -> int:
    from repro.obs import write_baseline

    classes, _ = _measure(trace_path)
    write_baseline(path, classes, meta={
        "source": "benchmarks/generate_report.py --write-baseline",
        "classes": sorted(classes)})
    print(f"wrote baseline for {len(classes)} query classes to {path}")
    return 0


def check_baseline_cmd(path: Path, trace_path: str | None) -> int:
    from repro.obs import compare_baselines, load_baseline

    if not path.exists():
        print(f"error: no committed baseline at {path}; create one "
              f"with --write-baseline", file=sys.stderr)
        return 1
    committed = load_baseline(path)
    classes, _ = _measure(trace_path)
    drift = compare_baselines(committed, {"classes": classes})
    if drift:
        print(f"BASELINE DRIFT against {path} "
              f"({len(drift)} difference(s)):")
        for line in drift:
            print(f"  {line}")
        print("If the change is intentional, regenerate with "
              "--write-baseline and commit the result.")
        return 1
    print(f"baseline OK: {len(classes)} query classes match {path}")
    return 0


def _fit_all() -> list:
    from repro.analysis import FIT_CLASSES, fit_class

    return [fit_class(name) for name in sorted(FIT_CLASSES)]


def _fit_rows(fits) -> list[dict]:
    return [{"class": f.name, "bound": f.bound_name,
             "constant": f.constant, "slope": f.slope, "r2": f.r2,
             "dominant term": f.dominant_term,
             "regression": f.regression} for f in fits]


def _write_fits(path: str, fits) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fits": [f.as_dict() for f in fits]}, fh, indent=2,
                  sort_keys=False)
        fh.write("\n")
    print(f"wrote fitted constants for {len(fits)} classes to {path}")


def check_slopes_cmd(fit_out: str | None) -> int:
    fits = _fit_all()
    if fit_out:
        _write_fits(fit_out, fits)
    bad = [f for f in fits if f.regression]
    for f in fits:
        flag = "REGRESSION" if f.regression else "ok"
        print(f"  {f.name}: constant={f.constant:.3f} "
              f"slope={f.slope:.3f} (eps={f.eps}) r2={f.r2:.4f} "
              f"dominant={f.dominant_term}  [{flag}]")
    if bad:
        print(f"SLOPE REGRESSION in {len(bad)} class(es): measured "
              f"I/O grows superlinearly in the fitted bound.")
        return 1
    print(f"slopes OK: {len(fits)} classes within 1+eps of linear")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate EXPERIMENTS.md tables or manage the "
                    "pinned Table-1 I/O baseline.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write-baseline", action="store_true",
                      help="measure the Table-1 classes and (re)write "
                           "the pinned baseline JSON")
    mode.add_argument("--check-baseline", action="store_true",
                      help="re-measure and exit 1 on any drift against "
                           "the committed baseline")
    mode.add_argument("--check-slopes", action="store_true",
                      help="refit the Table-1 bound constants and exit "
                           "1 on any superlinear log-log slope")
    parser.add_argument("--baseline-path", type=Path,
                        default=BASELINE_PATH, metavar="PATH",
                        help=f"baseline file (default {BASELINE_PATH})")
    parser.add_argument("--trace-summary-out", metavar="PATH",
                        help="also write per-class tracer "
                             "summaries to PATH (CI artifact)")
    parser.add_argument("--fit-out", metavar="PATH",
                        help="also write the full fit results (points, "
                             "term shares) to PATH (CI artifact)")
    args = parser.parse_args(argv)

    if args.write_baseline:
        return write_baseline_cmd(args.baseline_path,
                                  args.trace_summary_out)
    if args.check_baseline:
        return check_baseline_cmd(args.baseline_path,
                                  args.trace_summary_out)
    if args.check_slopes:
        return check_slopes_cmd(args.fit_out)

    for exp_id, module_name, fn_name, title in EXPERIMENTS:
        module = importlib.import_module(module_name)
        rows = getattr(module, fn_name)()
        print(f"### {exp_id} — {title}\n")
        print(markdown_table(rows))
    fits = _fit_all()
    if args.fit_out:
        _write_fits(args.fit_out, fits)
    print("### Fit — fitted constants of the Table 1 bounds\n")
    print(markdown_table(_fit_rows(fits)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
