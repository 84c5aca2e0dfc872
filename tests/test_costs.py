"""emcost unit tests: the symbolic domain, derivation, and the CLI.

The fixture-level rule tests (EM017–EM021 firing exactly once) live in
``test_lint.py``; the real-tree certification (every Table 1 algorithm
deriving its declared bound) lives in ``test_lint_src.py``.  This file
covers the machinery: the cost expression algebra, annotation
attachment edges, and the ``repro lint`` exit codes on a cost
regression.
"""

import pytest

from repro.cli import main
from repro.lint import evaluate_cost, lint_paths, parse_cost
from repro.lint.symbolic import CostSyntaxError


# ------------------------------------------------- symbolic domain


class TestSymbolicDomain:
    def test_parse_render_normal_form(self):
        assert parse_cost("N^2/(M*B) + N/B").render() == "N^2/(B*M)"
        assert parse_cost("N/B + N/B").render() == "N/B"
        assert parse_cost("1").render() == "1"

    def test_dominated_terms_are_absorbed(self):
        # N/B is O(N^2/(MB)) under 1 <= B <= M <= N, so the antichain
        # keeps only the dominant term.
        c = parse_cost("N^2/(M*B) + N/B")
        assert len(c.terms) == 1

    def test_incomparable_terms_both_survive(self):
        # N^4/B vs N^6/(M^5 B): neither dominates (take M close to N
        # for one direction, M constant for the other).
        c = parse_cost("N^4/B + N^6/(M^5*B)")
        assert len(c.terms) == 2

    def test_out_is_incomparable_with_n(self):
        assert not parse_cost("OUT/B").le(parse_cost("N/B"))
        assert not parse_cost("N/B").le(parse_cost("OUT/B"))

    def test_le_is_o_tilde_logs_ignored_both_ways(self):
        assert parse_cost("N/B * log(N/M)").le(parse_cost("N/B"))
        assert parse_cost("N/B").le(parse_cost("N/B * log(N/M)"))

    def test_sqrt_is_fractional_exponent(self):
        assert (parse_cost("sqrt(N^3/M)/B").render()
                == parse_cost("N^(3/2)/(M^(1/2)*B)").render())

    def test_excess_over_names_the_offending_term(self):
        excess = parse_cost("N^2/B").excess_over(parse_cost("N/B"))
        assert [t.render() for t in excess] == ["N^2/B"]
        assert parse_cost("N/B").excess_over(parse_cost("N^2/B")) == []

    def test_evaluate_cost_numeric(self):
        c = parse_cost("N^2/(M*B) + OUT/B")
        v = evaluate_cost(c, {"N": 1024.0, "M": 64.0, "B": 8.0,
                              "OUT": 512.0})
        assert v == pytest.approx(1024.0 ** 2 / (64 * 8) + 512 / 8)

    def test_evaluate_cost_log_value(self):
        c = parse_cost("N/B * log(N/M)")
        assert (evaluate_cost(c, {"N": 100.0, "B": 10.0}, log_value=4.0)
                == pytest.approx(40.0))

    @pytest.mark.parametrize("bad", ["N +", "Q/B", "N^^2", "N^(1/)",
                                     "", "log(", "2N"])
    def test_parse_errors(self, bad):
        with pytest.raises(CostSyntaxError):
            parse_cost(bad)


# ------------------------------------------------- derivation edges


def _lint_tree(tmp_path, files):
    """Write ``files`` under ``tmp_path/src/repro`` and lint them."""
    paths = []
    for rel, text in files.items():
        p = tmp_path / "src" / "repro" / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
        paths.append(p)
    return lint_paths(paths, root=tmp_path)


class TestDerivation:
    def test_checked_declaration_matches_derived(self, tmp_path):
        result = _lint_tree(tmp_path, {"core/mod.py": (
            "# em-cost: N/B -- one block per iteration\n"
            "def scan(device, blocks):\n"
            "    # em-loop-bound: N/B -- one block each\n"
            "    for _ in blocks:\n"
            "        device.charge_read(1)\n")})
        assert result.clean, [v.render() for v in result.violations]
        entry = result.costs["functions"]["repro.core.mod.scan"]
        assert entry["cost"] == entry["declared"] == "N/B"

    def test_yields_gives_loops_their_trip_count(self, tmp_path):
        result = _lint_tree(tmp_path, {"core/mod.py": (
            "# em-cost: amortized N/B -- one scan across all chunks\n"
            "# em-yields: N/M\n"
            "def chunks(device):\n"
            "    yield []\n"
            "\n"
            "\n"
            "# em-cost: N/B -- the chunk loop: N/M trips, zero-cost "
            "body,\n"
            "# plus the generator's own scan\n"
            "def consume(device):\n"
            "    for _ in chunks(device):\n"
            "        pass\n")})
        assert result.clean, [v.render() for v in result.violations]
        entry = result.costs["functions"]["repro.core.mod.consume"]
        assert entry["cost"] == "N/B"

    def test_charges_override_replaces_call_cost(self, tmp_path):
        result = _lint_tree(tmp_path, {"core/mod.py": (
            "# em-cost: amortized N^2/(M*B) -- general two-way bound\n"
            "def join(device):\n"
            "    device.charge_read(1)\n"
            "\n"
            "\n"
            "# em-cost: N/B -- the restricted call is one merge pass\n"
            "def outer(device):\n"
            "    # em-charges: N/B -- inputs pre-sorted here\n"
            "    join(device)\n")})
        assert result.clean, [v.render() for v in result.violations]
        entry = result.costs["functions"]["repro.core.mod.outer"]
        assert entry["cost"] == "N/B"

    def test_amortized_member_breaks_recursive_cycle(self, tmp_path):
        src = (
            "{}def ping(device):\n"
            "    device.charge_read(1)\n"
            "    pong(device)\n"
            "\n"
            "\n"
            "def pong(device):\n"
            "    ping(device)\n")
        flagged = _lint_tree(tmp_path, {"core/loop.py": src.format("")})
        assert any(v.code == "EM019" and "recursive cycle" in v.message
                   for v in flagged.violations)
        ok = _lint_tree(tmp_path / "b", {"core/loop.py": src.format(
            "# em-cost: amortized N/B -- recursion depth is the "
            "query's\n# edge count, a query-size constant\n")})
        assert not any(v.code == "EM019" for v in ok.violations)

    def test_annotation_text_in_docstring_is_ignored(self, tmp_path):
        # Regression: the grammar documented inside a docstring must
        # not register as an orphaned annotation (EM020).
        result = _lint_tree(tmp_path, {"core/mod.py": (
            '"""Docs quoting the grammar:\n'
            "\n"
            "    # em-cost: <expr> -- justification\n"
            "    # em-loop-bound: <expr>\n"
            '"""\n')})
        assert result.clean, [v.render() for v in result.violations]

    def test_wrapped_declaration_comment_attaches(self, tmp_path):
        # A justification wrapped over several comment lines still
        # binds to the def below the comment block.
        result = _lint_tree(tmp_path, {"core/mod.py": (
            "# em-cost: N/B -- a justification long enough to wrap\n"
            "# onto a second comment line before the definition\n"
            "def scan(device, blocks):\n"
            "    # em-loop-bound: N/B -- one block each\n"
            "    for _ in blocks:\n"
            "        device.charge_read(1)\n")})
        assert result.clean, [v.render() for v in result.violations]


# ------------------------------------------------- CLI


CHECKED = ("# em-cost: N/B -- one pass\n"
           "def scan(device, blocks):\n"
           "    # em-loop-bound: N/B -- one block each\n"
           "    for _ in blocks:\n"
           "        device.charge_read(1)\n")

#: CHECKED with an accidental rescan per block and the declaration
#: left as it was: the regression the cost rules exist to catch.
RESCAN = ("# em-cost: N/B -- one pass\n"
          "def scan(device, blocks):\n"
          "    # em-loop-bound: N/B -- one block each\n"
          "    for _ in blocks:\n"
          "        # em-loop-bound: N/B -- rescan\n"
          "        for _ in blocks:\n"
          "            device.charge_read(1)\n")


class TestCliLint:
    def _run(self, tmp_path, source):
        src = tmp_path / "src" / "repro" / "core"
        src.mkdir(parents=True)
        (src / "mod.py").write_text(source)
        return main(["lint", str(tmp_path / "src"), "--root",
                     str(tmp_path), "--no-baseline"])

    def test_declared_bound_passes(self, tmp_path, capsys):
        assert self._run(tmp_path, CHECKED) == 0

    def test_undeclared_cost_growth_fails_em018(self, tmp_path, capsys):
        assert self._run(tmp_path, RESCAN) == 1
        assert "EM018" in capsys.readouterr().out
