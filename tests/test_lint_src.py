"""The load-bearing test: the real tree passes its own discipline.

Every byte of I/O in ``src/repro`` is accounted: the only way to
accept a finding is a ``# emlint: disable=`` pragma on its line, so a
clean run here means zero violations, and any regression (a raw
``open()``, a layer inversion, an uncharged materialization) fails CI
by name.
"""

import ast
from pathlib import Path

import pytest

from repro.lint import lint_paths

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def src_result():
    """One lint of the whole tree, shared by the tests that read it."""
    return lint_paths([SRC], root=ROOT)


def test_src_tree_is_clean(src_result):
    assert src_result.clean, "\n".join(
        v.render() for v in src_result.violations)
    assert src_result.files_checked > 50


@pytest.mark.parametrize("layer", ["em", "core", "obs", "query", "data",
                                   "analysis", "internal", "workloads",
                                   "lint", "server"])
def test_layer_has_zero_violations(layer):
    """Per-layer zero-violation assertion."""
    result = lint_paths([SRC / "repro" / layer], root=ROOT)
    assert result.clean, "\n".join(v.render() for v in result.violations)


def test_pragma_suppressions_are_few_and_only_em001(src_result):
    """Pragmas are reserved for host-side report writers (EM001).

    Current budget: 4 obs exporters/baselines and the fitted-constants
    archive save/load in analysis/predict.py.
    """
    codes = {v.code for v in src_result.suppressed_by_pragma}
    assert codes <= {"EM001"}
    assert len(src_result.suppressed_by_pragma) <= 6


# ---------------------------------------------------- free scopes

#: Every ``stats.suspend()`` call in the tree, by enclosing function.
#: Inside one, the em/ layer lets rows move uncharged; outside one it
#: raises ``UnchargedAccess``.  A new free scope is a claim that some
#: access costs nothing in the model, so it has to be added here.
FREE_SCOPES = {
    "repro/core/price.py": {"snapshot": 1},
    # Reads the source device and fills the copy's: one each.
    "repro/core/acyclic.py": {"clone_instance": 2},
    "repro/em/sort.py": {"_merge_once": 1},
    # Moves the rows in bulk, then charges every page a merge would.
    "repro/em/loaders.py": {"write_semijoin": 1},
    "repro/em/device.py": {"Device.file_from_tuples_free": 1},
    "repro/cli.py": {"cmd_run": 1},
}


def _suspend_calls(tree):
    """``{qualname: count}`` of ``….stats.suspend()`` calls in a module."""
    found = {}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "suspend"
                    and isinstance(child.func.value, ast.Attribute)
                    and child.func.value.attr == "stats"):
                qual = ".".join(scope)
                found[qual] = found.get(qual, 0) + 1
            walk(child, scope)

    walk(tree, ())
    return found


def test_free_scopes_are_exactly_the_declared_ones():
    package = SRC / "repro"
    seen = {}
    for path in sorted(package.rglob("*.py")):
        calls = _suspend_calls(ast.parse(path.read_text(encoding="utf-8")))
        if calls:
            seen[path.relative_to(SRC).as_posix()] = calls
    assert seen == FREE_SCOPES


#: Every use in the tree of the two calls that write rows to disk
#: without charging the writes, by module.  They materialize inputs,
#: which the model assumes on disk; an intermediate an algorithm writes
#: goes through a charged writer (``Relation.rewrite``), so a new user
#: outside ``data/`` has to be added here.
FREE_WRITERS = {
    "repro/data/instance.py": {"from_tuples": 1},
    "repro/data/io.py": {"from_tuples": 1},
    "repro/data/relation.py": {"file_from_tuples_free": 1},
}


def test_free_writes_stay_in_the_data_layer():
    package = SRC / "repro"
    seen = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in
                    ("from_tuples", "file_from_tuples_free")):
                uses[node.attr] = uses.get(node.attr, 0) + 1
        if uses:
            seen[path.relative_to(SRC).as_posix()] = uses
    assert seen == FREE_WRITERS
