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
from repro.lint.baseline import PLACEHOLDER_JUSTIFICATION

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BASELINE = ROOT / "lint-baseline.json"


@pytest.fixture(scope="module")
def src_result():
    """One lint of the whole tree, shared by the tests that read it."""
    return lint_paths([SRC], root=ROOT, baseline=load_baseline(BASELINE))


def test_committed_baseline_is_empty():
    doc = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert doc["entries"] == [], (
        "lint-baseline.json has accepted violations; fix them or "
        "justify each entry in the PR")


def test_src_tree_is_clean_under_committed_baseline(src_result):
    assert src_result.clean, "\n".join(
        v.render() for v in src_result.violations)
    assert src_result.stale_baseline == []
    assert src_result.files_checked > 50


@pytest.mark.parametrize("layer", ["em", "core", "obs", "query", "data",
                                   "analysis", "internal", "workloads",
                                   "lint", "server"])
def test_layer_has_zero_violations(layer):
    """Per-layer zero-violation assertion (no baseline crutch)."""
    result = lint_paths([SRC / "repro" / layer], root=ROOT)
    assert result.clean, "\n".join(v.render() for v in result.violations)


def test_pragma_suppressions_are_few_and_only_em001(src_result):
    """Pragmas are reserved for host-side report writers (EM001).

    Current budget: the CLI's Prometheus metrics writer, 4 obs
    exporters/baselines, and the fitted-constants archive save/load in
    analysis/predict.py.
    """
    codes = {v.code for v in src_result.suppressed_by_pragma}
    assert codes <= {"EM001"}
    assert len(src_result.suppressed_by_pragma) <= 7


# ------------------------------------------- effect signatures (emflow)


def test_core_layer_never_reaches_raw_io(src_result):
    """The strongest statement emflow can make about the real tree:
    no function in core/ or em/ has PHYS_IO in its *whole-call-graph*
    signature — every byte the algorithms move is simulated."""
    funcs = src_result.signatures["functions"]
    offenders = [q for q, e in funcs.items()
                 if e["layer"] in ("core", "em")
                 and "PHYS_IO" in e["effects"]]
    assert offenders == []


def test_sanctioned_peek_sites_are_declared(src_result):
    """The audited peek_tuples() uses carry FREE_PEEK declarations
    with justifications (the core/acyclic.py clone audit and the plan
    pricer's snapshot in core/price.py)."""
    funcs = src_result.signatures["functions"]
    clone = funcs["repro.core.acyclic.clone_instance"]
    assert clone["declared"] == ["FREE_PEEK"]
    assert "pre-existing inputs" in clone["justification"]
    snapshot = funcs["repro.core.price.snapshot"]
    assert snapshot["declared"] == ["FREE_PEEK"]
    assert "pre-existing inputs" in snapshot["justification"]
    sorted_probe = funcs["repro.em.sort.is_sorted"]
    assert sorted_probe["declared"] == ["FREE_PEEK"]


def test_host_only_declarations_cover_every_export_writer(src_result):
    """Each pragma'd EM001 writer is also declared HOST_ONLY, so the
    effect pass proves nothing counted can reach it (EM011)."""
    funcs = src_result.signatures["functions"]
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


def test_no_declaration_carries_a_placeholder_justification(src_result):
    """Every ``# em-effects:`` justification in the tree is real: the
    ``--write-baseline`` placeholder never ships."""
    funcs = src_result.signatures["functions"]
    offenders = [qn for qn, e in funcs.items()
                 if str(e.get("justification", "")).startswith(
                     PLACEHOLDER_JUSTIFICATION)]
    assert offenders == []
