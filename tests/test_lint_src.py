"""The load-bearing test: the real tree passes its own discipline.

Every byte of I/O in ``src/repro`` is accounted: the committed
baseline is empty, so a clean run here means zero violations — not
zero *new* violations — and any regression (a raw ``open()``, a layer
inversion, an uncharged materialization) fails CI by name.
"""

import json
from pathlib import Path

import pytest

from repro.lint import lint_paths, load_baseline

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BASELINE = ROOT / "lint-baseline.json"


def test_committed_baseline_is_empty():
    doc = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert doc["entries"] == [], (
        "lint-baseline.json has accepted violations; fix them or "
        "justify each entry in the PR")


def test_src_tree_is_clean_under_committed_baseline():
    result = lint_paths([SRC], root=ROOT,
                        baseline=load_baseline(BASELINE))
    assert result.clean, "\n".join(v.render() for v in result.violations)
    assert result.stale_baseline == []
    assert result.files_checked > 50


@pytest.mark.parametrize("layer", ["em", "core", "obs", "query", "data",
                                   "analysis", "internal", "workloads",
                                   "lint", "server"])
def test_layer_has_zero_violations(layer):
    """Per-layer zero-violation assertion (no baseline crutch)."""
    result = lint_paths([SRC / "repro" / layer], root=ROOT)
    assert result.clean, "\n".join(v.render() for v in result.violations)


def test_pragma_suppressions_are_few_and_only_em001():
    """Pragmas are reserved for host-side report writers (EM001).

    Current budget: the CLI's Prometheus metrics writer, 4 obs
    exporters/baselines, and the fitted-constants archive save/load in
    analysis/predict.py.
    """
    result = lint_paths([SRC], root=ROOT)
    codes = {v.code for v in result.suppressed_by_pragma}
    assert codes <= {"EM001"}
    assert len(result.suppressed_by_pragma) <= 7


# ------------------------------------------- effect signatures (emflow)


def test_core_layer_never_reaches_raw_io():
    """The strongest statement emflow can make about the real tree:
    no function in core/ or em/ has PHYS_IO in its *whole-call-graph*
    signature — every byte the algorithms move is simulated."""
    result = lint_paths([SRC], root=ROOT)
    funcs = result.signatures["functions"]
    offenders = [q for q, e in funcs.items()
                 if e["layer"] in ("core", "em")
                 and "PHYS_IO" in e["effects"]]
    assert offenders == []


def test_sanctioned_peek_sites_are_declared():
    """The audited peek_tuples() uses carry FREE_PEEK declarations
    with justifications (the core/acyclic.py clone audit and the plan
    pricer's snapshot in core/price.py)."""
    result = lint_paths([SRC], root=ROOT)
    funcs = result.signatures["functions"]
    clone = funcs["repro.core.acyclic.clone_instance"]
    assert clone["declared"] == ["FREE_PEEK"]
    assert "pre-existing inputs" in clone["justification"]
    snapshot = funcs["repro.core.price.snapshot"]
    assert snapshot["declared"] == ["FREE_PEEK"]
    assert "pre-existing inputs" in snapshot["justification"]
    sorted_probe = funcs["repro.em.sort.is_sorted"]
    assert sorted_probe["declared"] == ["FREE_PEEK"]


def test_host_only_declarations_cover_every_export_writer():
    """Each pragma'd EM001 writer is also declared HOST_ONLY, so the
    effect pass proves nothing counted can reach it (EM011)."""
    result = lint_paths([SRC], root=ROOT)
    funcs = result.signatures["functions"]
    for qual in ("repro.obs.tracer.Tracer.export_jsonl",
                 "repro.obs.export.write_chrome_trace",
                 "repro.obs.baseline.write_baseline",
                 "repro.obs.baseline.load_baseline",
                 "repro.data.io.load_csv",
                 "repro.data.io.instance_from_csv",
                 "repro.data.io.dump_results_csv",
                 "repro.cli.cmd_run",
                 "repro.cli.cmd_lint"):
        assert funcs[qual]["declared"] == ["HOST_ONLY"], qual


# ----------------------------------------------- symbolic costs (emcost)


def _cost_table():
    return lint_paths([SRC], root=ROOT).costs["functions"]


#: Table 1 algorithms whose ``# em-cost:`` declaration is *checked*
#: (machine-derived from the annotated body, not trusted).
CHECKED_TABLE1 = [
    "repro.core.twoway.nested_loop_join",
    "repro.core.twoway.sort_merge_join",
    "repro.core.line3.line3_join",
    "repro.core.line5.line5_unbalanced_join",
    "repro.core.triangle.triangle_join",
    "repro.core.reducer_em.full_reduce_em",
    "repro.core.acyclic.acyclic_join",
    "repro.core.acyclic.acyclic_join_best",
    "repro.core.planner.execute",
    "repro.em.sort.external_sort",
    "repro.em.loaders.group_boundaries",
    "repro.em.loaders.load_chunks",
    "repro.em.loaders.load_group_chunks",
    "repro.em.loaders.scan_matching",
]


def test_every_table1_algorithm_declares_its_bound():
    """Each algorithm entry point carries an ``# em-cost:`` bound, and
    for the checked (non-amortized) ones the derived symbolic cost
    equals the declaration exactly."""
    table = _cost_table()
    for qn in CHECKED_TABLE1:
        entry = table[qn]
        assert entry["declared"] is not None, qn
        assert not entry["amortized"], qn
        assert entry["cost"] == entry["declared"], (
            f"{qn}: derived {entry['cost']} != declared "
            f"{entry['declared']}")
    for qn in ("repro.core.lw.lw_join",
               "repro.core.yannakakis_em.yannakakis_em",
               "repro.core.line7.line7_unbalanced_join",
               "repro.core.line7.line6_unbalanced_join",
               "repro.core.line7.line7_cover11_join",
               "repro.core.line7.line8_join",
               "repro.core.line7.line_join_auto"):
        entry = table[qn]
        assert entry["declared"] is not None, qn
        assert entry["amortized"], qn
        assert entry["justification"], qn


def test_derived_costs_match_closed_form_bounds():
    """Cross-check: evaluating each derived symbolic expression
    numerically agrees with ``analysis/bounds.py``'s closed forms to
    within a constant factor, across an (N, M, B) sweep."""
    import math

    from repro.analysis import bounds
    from repro.lint import evaluate_cost, parse_cost

    cases = [
        ("repro.core.twoway.sort_merge_join",
         lambda N, M, B: bounds.two_relation_bound(N, N, M, B)),
        ("repro.core.twoway.nested_loop_join",
         lambda N, M, B: bounds.nested_loop_cascade_bound([N, N], M, B)),
        ("repro.core.line3.line3_join",
         lambda N, M, B: bounds.line3_bound(N, N, M, B, n2=N)),
        ("repro.core.line5.line5_unbalanced_join",
         lambda N, M, B: bounds.line5_unbalanced_bound([N] * 5, M, B)),
        ("repro.core.line7.line7_cover11_join",
         lambda N, M, B: bounds.line7_cover11_bound([N] * 7, M, B)),
        ("repro.core.triangle.triangle_join",
         lambda N, M, B: bounds.triangle_bound(N, N, N, M, B)),
        # LW_n's bound (N/M)^{n/(n-1)}·M/B is maximized at n = 3,
        # where it coincides with the triangle's closed form.
        ("repro.core.lw.lw_join",
         lambda N, M, B: bounds.triangle_bound(N, N, N, M, B)),
        ("repro.core.yannakakis_em.yannakakis_em",
         lambda N, M, B: bounds.yannakakis_em_bound(N, 3 * N, M, B)),
    ]
    table = _cost_table()
    sweep = [(2 ** 20, 2 ** 10, 32), (2 ** 18, 2 ** 12, 64),
             (2 ** 16, 2 ** 8, 16)]
    for qn, closed_form in cases:
        cost = parse_cost(table[qn]["cost"])
        for N, M, B in sweep:
            derived = evaluate_cost(
                cost, {"N": float(N), "M": float(M), "B": float(B),
                       "OUT": float(N)},
                log_value=max(1.0, math.log2(N / M)))
            expected = closed_form(N, M, B)
            ratio = derived / expected
            assert 1 / 32 <= ratio <= 32, (
                f"{qn} at (N={N}, M={M}, B={B}): derived "
                f"{derived:.3g} vs closed form {expected:.3g}")


def test_no_declaration_carries_a_placeholder_justification():
    """Every ``# em-cost:`` and ``# em-effects:`` justification in the
    tree is real: the ``--write-baseline`` placeholder never ships."""
    result = lint_paths([SRC], root=ROOT)
    tables = {"em-cost": result.costs["functions"],
              "em-effects": result.signatures["functions"]}
    offenders = [(kind, qn) for kind, table in tables.items()
                 for qn, e in table.items()
                 if str(e.get("justification", "")).startswith(
                     "TODO: justify")]
    assert offenders == []
