"""``emlint`` — the EM-model discipline checker.

Every number this reproduction reports (Table 1 rows, fitted
constants, the pinned ``BENCH_table1.json`` baseline) is only
meaningful if all data movement in the algorithm layer flows through
the charged :class:`~repro.em.device.Device` / EMFile API and all
in-memory state is policed by the
:class:`~repro.em.stats.MemoryGauge`.  This package enforces that
contract mechanically: a self-contained AST pass (stdlib only) with a
rule registry, per-rule codes, ``# emlint: disable=EM0xx`` pragma
support (the one way to accept a finding), JSON and human reporters,
and a ``repro lint`` CLI subcommand that exits non-zero on
violations.

Rules (see :data:`~repro.lint.registry.RULES` for the full text):

=======  ============================================================
EM001    no raw OS I/O outside ``em/`` and ``data/io.py``
EM002    no unbounded materialization of EM scans in ``core/``,
         ``query/``, or ``analysis/`` outside a
         ``MemoryGauge``-charged region
EM003    layering: ``em`` ↛ ``core``/``query``, ``core`` ↛
         ``internal``, ``core``/``em`` ↛ the host modules
         (``data.io``, ``cli``, ``server``, ``lint``,
         ``obs.export``, ``obs.baseline``), ``obs`` ↛ ``core``
EM004    no wall-clock or randomness in counted paths (``core/``,
         ``em/``) or the layers they import (``query/``, ``data/``)
EM005    ``suspend()`` / ``span()`` / ``phase()`` must be ``with``
         statements, never discarded bare calls
EM006    ``core/`` modules passing phase-name literals must declare
         them in a module-level ``PHASES`` tuple
=======  ============================================================

Uncharged row access is not a lint rule: :mod:`repro.em.file` refuses
it at run time outside ``stats.suspend()`` (``UnchargedAccess``), so
the check runs where rows are actually touched.  EM007–EM011 are
retired: they inferred the same thing from a whole-program call graph
and hand-written effect annotations.  EM012–EM016 are retired: they
checked the lock discipline of a threaded service, and the service
now runs on one thread with no locks.  EM017–EM021 are retired too:
they certified hand-annotated symbolic I/O bounds, a job the pinned
I/O counts do on the measured cost (the golden event streams, the
seed counts, ``BENCH_table1`` and ``generate_report.py
--check-slopes``).
"""

from repro.lint.registry import RULES, Rule
from repro.lint.report import REPORT_SCHEMA_VERSION, to_human, to_json
from repro.lint.visitor import (LintResult, Violation, check_source,
                                lint_paths)

__all__ = [
    "RULES", "Rule",
    "Violation", "LintResult", "check_source", "lint_paths",
    "to_human", "to_json", "REPORT_SCHEMA_VERSION",
]
