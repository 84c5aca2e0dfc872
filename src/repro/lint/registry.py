"""The rule registry: one entry per ``EM0xx`` code.

Rules are data, not classes: the actual detection logic lives in one
shared AST pass (:mod:`repro.lint.visitor`) because most rules need
the same facts (imports, call sites, the ``with``-statement stack).
The registry ties each code to its human description and rationale so
reporters, docs, and ``repro lint --list-rules`` never drift from the
implementation.

Codes are never reused.  EM012–EM016 are retired: they checked the
lock discipline of a threaded service, and the service now runs on
one thread with no locks.  EM017–EM021 are retired too: they
certified hand-annotated symbolic I/O bounds, and the pinned I/O
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
            "import internal/; obs/ must not import core/",
    layers=("em", "core", "obs"),
    rationale="em/ is the machine (algorithms sit above it); "
              "internal/ holds uncharged in-memory baselines whose "
              "use inside core/ would bypass the accounting; obs/ is "
              "passive observation and must never drive the "
              "algorithms it watches.",
))

_register(Rule(
    code="EM004",
    name="nondeterminism",
    summary="wall-clock or randomness (time, random, datetime) in "
            "counted paths (core/, em/)",
    layers=("core", "em"),
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

_register(Rule(
    code="EM007",
    name="transitive-raw-io",
    summary="a counted-layer function reaches open/os.* through its "
            "call chain (interprocedural EM001)",
    layers=(),
    rationale="A helper that wraps open() two calls deep launders "
              "raw OS I/O past the intraprocedural EM001: the bytes "
              "still move without being charged to the Device.  The "
              "effect fixpoint makes the ban transitive, so the only "
              "sanctioned escape is an explicit `# em-effects: "
              "HOST_ONLY` declaration on the host-side entry point.",
))

_register(Rule(
    code="EM008",
    name="peek-from-core",
    summary="peek_tuples() reachable from core/ algorithm code",
    layers=("core",),
    rationale="peek_tuples() reads tuples without charging a single "
              "block transfer — it exists for free metadata (run "
              "formation in em/sort.py, test oracles).  An algorithm "
              "that reaches it gets input bytes for free and its "
              "measured I/O no longer bounds the paper's cost.  "
              "Sanctioned uses carry `# em-effects: FREE_PEEK -- "
              "why` as a permanent audit record.",
))

_register(Rule(
    code="EM009",
    name="observer-purity",
    summary="obs/ record paths must be effect-free on device "
            "counters (no PHYS_IO / MATERIALIZES)",
    layers=("obs",),
    rationale="The tracer/profiler promise byte-identical counters "
              "when enabled (baseline-checked).  An observer that "
              "transitively opens files or materializes scans would "
              "perturb the very counts it reports; host-side export "
              "writers are declared HOST_ONLY, which also bars them "
              "from counted paths (EM011).",
))

_register(Rule(
    code="EM010",
    name="transitive-nondeterminism",
    summary="wall-clock or randomness reachable from a counted path "
            "(interprocedural EM004)",
    layers=("core", "em"),
    rationale="EM004 catches `import time` in core/ and em/, but a "
              "helper in an unpoliced layer can smuggle the same "
              "nondeterminism in through a call.  The byte-identical "
              "baseline gate needs the whole call graph under a "
              "counted path to be deterministic, not just its top "
              "frame.",
))

_register(Rule(
    code="EM011",
    name="effect-declaration",
    summary="em-effects declaration errors: unknown effect names, "
            "drifted declarations, counted paths calling HOST_ONLY "
            "functions",
    layers=(),
    rationale="Declarations are audit records, so they must stay "
              "true: a declared effect the fixpoint no longer infers "
              "is documentation rot, and a core/ or em/ function "
              "calling into HOST_ONLY reporting would put uncounted "
              "host work under the algorithms the paper measures.",
))
