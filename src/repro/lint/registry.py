"""The rule registry: one entry per ``EM0xx`` code.

Rules are data, not classes: the actual detection logic lives in one
shared AST pass (:mod:`repro.lint.visitor`) because most rules need
the same facts (imports, call sites, the ``with``-statement stack).
The registry ties each code to its human description and rationale so
reporters, docs, and ``repro lint --list-rules`` never drift from the
implementation.

Codes are never reused.  EM007–EM011 are retired: they ran a
whole-program call-graph effect pass over hand-written effect
annotations.  Its two jobs moved elsewhere: uncharged row access is
refused at run time by :mod:`repro.em.file` outside
``stats.suspend()``, and the imports it guarded transitively are
banned directly by EM003 and EM004.  EM012–EM016 are retired: they
checked the lock discipline of a threaded service, and the service
now runs on one thread with no locks.  EM017–EM021 are retired too:
they certified hand-annotated symbolic I/O bounds, and the pinned I/O
counts (the golden event streams, the seed counts, ``BENCH_table1``
and the slope gate) check the measured cost instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One lint rule: its code, scope, and the model fact it protects."""

    code: str
    name: str
    summary: str
    #: Which layers (top-level directories under ``repro/``) the rule
    #: examines; empty means every linted file.
    layers: tuple[str, ...]
    #: Why violating the rule invalidates the I/O model.
    rationale: str


RULES: dict[str, Rule] = {}


def _register(rule: Rule) -> Rule:
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return rule


_register(Rule(
    code="EM000",
    name="parse-error",
    summary="file could not be parsed as Python",
    layers=(),
    rationale="A file the checker cannot parse is a file whose I/O "
              "discipline cannot be verified.",
))

_register(Rule(
    code="EM001",
    name="raw-os-io",
    summary="raw OS I/O (open, os.read/write, pathlib, shutil) outside "
            "em/ and data/io.py",
    layers=(),
    rationale="Any byte that moves without passing through the charged "
              "Device/EMFile API is invisible to IOStats, so the "
              "reported block-transfer counts no longer measure the "
              "algorithm the paper reasons about.  Host-side report "
              "writing is allowed via an explicit pragma.",
))

_register(Rule(
    code="EM002",
    name="unbounded-materialization",
    summary="list/sorted/set/dict/tuple over an EM scan in core/, "
            "query/, or analysis/ outside a MemoryGauge-charged "
            "region",
    layers=("core", "query", "analysis"),
    rationale="Materializing a scan pulls a disk-resident file into "
              "memory without charging the MemoryGauge, so the "
              "paper's M-bounded memory budget is silently violated "
              "while the peak-memory reports claim otherwise.",
))

_register(Rule(
    code="EM003",
    name="layering",
    summary="em/ must not import core/ or query/; core/ must not "
            "import internal/; neither may import the host modules "
            "(data.io, cli, server, lint, obs.export, obs.baseline); "
            "obs/ must not import core/",
    layers=("em", "core", "obs"),
    rationale="em/ is the machine (algorithms sit above it); "
              "internal/ holds uncharged in-memory baselines whose "
              "use inside core/ would bypass the accounting; the "
              "host modules read and write real files, which a "
              "counted path must never reach; obs/ is passive "
              "observation and must never drive the algorithms it "
              "watches.",
))

_register(Rule(
    code="EM004",
    name="nondeterminism",
    summary="wall-clock or randomness (time, random, datetime) in "
            "counted paths (core/, em/) and the layers they import "
            "(query/, data/)",
    layers=("core", "em", "query", "data"),
    rationale="The pinned baseline gate asserts byte-identical I/O "
              "counters across runs; any time- or randomness-derived "
              "control flow in a counted path makes the counters "
              "nondeterministic and the gate meaningless.",
))

_register(Rule(
    code="EM005",
    name="bare-context-call",
    summary="suspend()/span()/phase() called as a bare statement "
            "instead of a with statement",
    layers=(),
    rationale="These return context managers whose __exit__ "
              "reconciles counter state (resume counting, close the "
              "span, attribute the phase).  A discarded bare call "
              "leaks that state: counting stays on, spans never "
              "close, phase I/O is attributed to the wrong label.",
))

_register(Rule(
    code="EM006",
    name="undeclared-phase",
    summary="core/ module passes a phase-name literal not declared "
            "in its module-level PHASES tuple",
    layers=("core",),
    rationale="Phase names are the join key between the per-phase "
              "I/O report and the pinned baseline.  Declaring them "
              "in one greppable PHASES constant per module keeps the "
              "set auditable and catches typos that would silently "
              "split a phase's attribution.",
))
