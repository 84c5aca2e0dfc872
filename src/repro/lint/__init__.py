"""``emlint`` — the EM-model discipline checker.

Every number this reproduction reports (Table 1 rows, fitted
constants, the pinned ``BENCH_table1.json`` baseline) is only
meaningful if all data movement in the algorithm layer flows through
the charged :class:`~repro.em.device.Device` / EMFile API and all
in-memory state is policed by the
:class:`~repro.em.stats.MemoryGauge`.  This package enforces that
contract mechanically: a self-contained AST pass (stdlib only) with a
rule registry, per-rule codes, ``# emlint: disable=EM0xx`` pragma
support, a committed suppression baseline, JSON and human reporters,
and a ``repro lint`` CLI subcommand that exits non-zero on
violations.

Rules (see :data:`~repro.lint.registry.RULES` for the full text):

=======  ============================================================
EM001    no raw OS I/O outside ``em/`` and ``data/io.py``
EM002    no unbounded materialization of EM scans in ``core/``,
         ``query/``, or ``analysis/`` outside a
         ``MemoryGauge``-charged region
EM003    layering: ``em`` ↛ ``core``/``query``, ``core`` ↛
         ``internal``, ``obs`` ↛ ``core``
EM004    no wall-clock or randomness in counted paths (``core/``,
         ``em/``)
EM005    ``suspend()`` / ``span()`` / ``phase()`` must be ``with``
         statements, never discarded bare calls
EM006    ``core/`` modules passing phase-name literals must declare
         them in a module-level ``PHASES`` tuple
EM007    no *transitive* raw OS I/O through any call chain
         (interprocedural EM001)
EM008    no ``peek_tuples()`` reachable from ``core/`` algorithm
         code
EM009    ``obs/`` record paths must be effect-free on device
         counters
EM010    no wall-clock/randomness *reachable* from a counted path
         (interprocedural EM004)
EM011    ``# em-effects:`` declarations must name real effects,
         match the inferred reality, and never be called from
         counted paths when ``HOST_ONLY``
=======  ============================================================

EM012–EM016 are retired: they checked the lock discipline of a
threaded service, and the service now runs on one thread with no
locks.  EM017–EM021 are retired too: they certified hand-annotated
symbolic I/O bounds, a job the pinned I/O counts do on the measured
cost (the golden event streams, the seed counts, ``BENCH_table1``
and ``generate_report.py --check-slopes``).

EM007–EM011 run on a second, whole-program pass
(:mod:`repro.lint.callgraph` + :mod:`repro.lint.effects`) that
builds a project-wide call graph and infers per-function effect
signatures by fixpoint over SCCs (``LintResult.signatures``).
"""

from repro.lint.baseline import (Baseline, BaselineEntry, load_baseline,
                                 write_baseline)
from repro.lint.callgraph import (EFFECT_NAMES, UNKNOWN, FunctionNode,
                                  Program, build_program)
from repro.lint.effects import (EFFECTS_SCHEMA_VERSION, EffectFinding,
                                evaluate, signature_table)
from repro.lint.registry import RULES, Rule
from repro.lint.report import REPORT_SCHEMA_VERSION, to_human, to_json
from repro.lint.visitor import (LintResult, Violation, check_source,
                                lint_paths)

__all__ = [
    "RULES", "Rule",
    "Violation", "LintResult", "check_source", "lint_paths",
    "Baseline", "BaselineEntry", "load_baseline", "write_baseline",
    "to_human", "to_json", "REPORT_SCHEMA_VERSION",
    "EFFECT_NAMES", "UNKNOWN", "FunctionNode", "Program",
    "build_program", "EffectFinding", "evaluate", "signature_table",
    "EFFECTS_SCHEMA_VERSION",
]
