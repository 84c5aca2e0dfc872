"""Interprocedural effect inference: the ``emflow`` pass.

Given the linked :class:`~repro.lint.callgraph.Program`, this module
infers a per-function *effect signature* — which of

========= =========================================================
PHYS_IO   touches the real filesystem (``open``, ``os.read``, …)
MATERIAL… ``MATERIALIZES``: pulls an EM scan into memory outside a
          ``MemoryGauge``-charged region
NONDET    draws on wall-clock or randomness (``time``, ``random``,
          ``datetime``)
FREE_PEEK reads tuples via ``peek_tuples()``, the uncharged
          metadata escape hatch
HOST_ONLY declared-only: host-side reporting; never on a counted
          path (also acts as a propagation barrier)
UNKNOWN   inferred-only lattice top: contains a call the resolver
          could not prove anything about
========= =========================================================

a function *transitively* has, by propagating intrinsic effects up
the call graph.  Propagation is a single monotone sweep over the
SCCs in reverse topological order (callees first); inside an SCC the
members share one effect set, which is exactly the fixpoint of the
recursive system — so recursion converges in one pass, no iteration
needed.

Declarations (``# em-effects: EFFECT, … -- justification`` on the
``def`` line) *absorb*: a declared effect is suppressed at the
declaring function and not propagated to callers — the declaration
is the audit record.  ``HOST_ONLY`` is a full barrier: nothing
propagates out of a host-only function, and the effect rules skip
it, but EM011 polices counted-layer callers so host-only code cannot
leak back under the algorithms.  The ``lint/`` layer itself is a
baked-in barrier (the checker reads the sources it checks).
Declarations that stop matching the inferred reality ("drift") fail
the build via EM011, same as a stale baseline entry.

The rules built on the signatures:

* **EM007** — transitive raw I/O: an EM001-policed function
  *inherits* PHYS_IO through its call chain (intrinsic raw I/O is
  EM001's job; this closes the helper-laundering hole).
* **EM008** — ``peek_tuples()`` reachable from ``core/`` algorithm
  code (peeking is free metadata, sanctioned only where declared).
* **EM009** — observer purity: ``obs/`` record paths must be
  effect-free on device counters (no PHYS_IO / MATERIALIZES).
* **EM010** — transitive nondeterminism: NONDET inherited on a
  counted path (intrinsic imports are EM004's job).
* **EM011** — declaration discipline: unknown effect names, drifted
  declarations, and counted-layer calls into HOST_ONLY functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint import rules
from repro.lint.callgraph import (EFFECT_NAMES, UNKNOWN, FunctionNode,
                                  Program, strongly_connected)

#: Version of the signature-table document (``LintResult.signatures``).
EFFECTS_SCHEMA_VERSION = 1

#: Effects an ``obs/`` function must not have (EM009): anything that
#: moves counted bytes or memory.
OBSERVER_FORBIDDEN = frozenset({"PHYS_IO", "MATERIALIZES"})

#: Layers EM008 (peek from algorithm code) polices.
EM008_LAYERS = frozenset({"core"})

#: Layers EM010 (transitive nondeterminism) polices — same counted
#: paths as the intraprocedural EM004.
EM010_LAYERS = rules.EM004_LAYERS


@dataclass(frozen=True)
class EffectFinding:
    """One interprocedural finding, later wrapped as a Violation."""

    code: str
    path: str
    line: int
    message: str
    scope: str


def _is_barrier(fn: FunctionNode) -> bool:
    """Does nothing propagate out of this function?"""
    return "HOST_ONLY" in fn.declared or fn.layer == "lint"


def _contribution(fn: FunctionNode) -> set[str]:
    """What a call to ``fn`` contributes to the caller's signature."""
    if _is_barrier(fn):
        return set()
    return fn.total - fn.declared


def propagate(program: Program) -> None:
    """Fill :attr:`FunctionNode.inherited` for every node.

    One sweep over the SCC condensation in reverse topological order;
    within an SCC all members share the union of external
    contributions plus the SCC's own intrinsic effects (minus each
    member's declared absorptions) — the least fixpoint of the
    mutually recursive system.
    """
    for comp in strongly_connected(program):
        members = set(comp)
        cyclic = len(comp) > 1 or any(
            qn in program.nodes[qn].edges for qn in comp)
        external: set[str] = set()
        internal: set[str] = set()
        for qn in comp:
            fn = program.nodes[qn]
            internal |= fn.intrinsic - fn.declared
            for callee in fn.edges:
                if callee not in members and callee in program.nodes:
                    external |= _contribution(program.nodes[callee])
        for qn in comp:
            fn = program.nodes[qn]
            fn.inherited = set(external)
            if cyclic:
                # Recursion: every member sees the whole cycle's
                # (non-absorbed) effects.
                fn.inherited |= internal
            # A function's own intrinsics are never "inherited" —
            # EM001/EM002/EM004 own the intrinsic reports.
            fn.inherited -= fn.intrinsic


def _witness(program: Program, fn: FunctionNode, effect: str) -> str:
    """Name one callee whose contribution carries ``effect``."""
    for callee in fn.edges:
        node = program.nodes.get(callee)
        if node is not None and effect in _contribution(node):
            return f" (via {node.local_name} at {node.path}:{node.line})"
    return " (via its call graph)"


def evaluate(program: Program) -> list[EffectFinding]:
    """Run EM007–EM011 over the propagated signatures."""
    propagate(program)
    findings: list[EffectFinding] = []

    def add(code: str, fn: FunctionNode, message: str) -> None:
        findings.append(EffectFinding(
            code=code, path=fn.path, line=fn.line,
            message=message, scope=fn.local_name))

    ordered = sorted(program.nodes.values(),
                     key=lambda f: (f.path, f.line))
    for fn in ordered:
        host_only = "HOST_ONLY" in fn.declared
        # EM011: declaration discipline first — bad names and drift.
        for tok in fn.bad_declared:
            add("EM011", fn,
                f"unknown effect {tok!r} in em-effects declaration "
                f"(valid: {', '.join(sorted(EFFECT_NAMES))})")
        for eff in sorted(fn.declared - {"HOST_ONLY"}):
            if eff not in fn.total:
                add("EM011", fn,
                    f"declared effect {eff} is no longer inferred for "
                    f"{fn.local_name} — the declaration drifted; "
                    "delete it so the audit record matches reality")
        if fn.layer in EM010_LAYERS and not host_only:
            for callee in fn.edges:
                node = program.nodes.get(callee)
                if node is not None and "HOST_ONLY" in node.declared:
                    add("EM011", fn,
                        f"counted path {fn.layer}/ calls HOST_ONLY "
                        f"function {node.local_name} "
                        f"({node.path}:{node.line}); host-side "
                        "reporting must stay above the algorithms")
        if host_only:
            continue  # declared host-side: exempt from effect rules
        # EM007: inherited raw I/O in EM001-policed files.
        if (not rules.raw_io_exempt(fn.layer, fn.pkg_relfile)
                and "PHYS_IO" in fn.inherited
                and "PHYS_IO" not in fn.declared):
            add("EM007", fn,
                f"{fn.local_name} reaches raw OS I/O through its "
                f"call chain{_witness(program, fn, 'PHYS_IO')}; "
                "route bytes through the charged Device/EMFile API "
                "or declare the function `# em-effects: HOST_ONLY`")
        # EM008: peek_tuples reachable from core/ algorithm code.
        if (fn.layer in EM008_LAYERS and "FREE_PEEK" in fn.total
                and "FREE_PEEK" not in fn.declared):
            how = ("calls" if "FREE_PEEK" in fn.intrinsic
                   else "reaches")
            add("EM008", fn,
                f"{fn.local_name} {how} peek_tuples(), the uncharged "
                "metadata escape hatch, from core/ algorithm code"
                + ("" if "FREE_PEEK" in fn.intrinsic
                   else _witness(program, fn, "FREE_PEEK"))
                + "; read tuples via the charged scan()/reader() API "
                "or declare `# em-effects: FREE_PEEK -- why`")
        # EM009: observer purity.
        if fn.layer == "obs":
            bad = sorted((fn.total & OBSERVER_FORBIDDEN) - fn.declared)
            if bad:
                add("EM009", fn,
                    f"obs/ function {fn.local_name} has device-"
                    f"visible effects {', '.join(bad)}; observation "
                    "must never move counted bytes — export paths "
                    "need `# em-effects: HOST_ONLY`")
        # EM010: transitive nondeterminism on counted paths.
        if (fn.layer in EM010_LAYERS and "NONDET" in fn.inherited
                and "NONDET" not in fn.declared):
            add("EM010", fn,
                f"{fn.local_name} reaches wall-clock or randomness "
                f"through its call chain"
                f"{_witness(program, fn, 'NONDET')}; counted paths "
                "must stay deterministic for the byte-identical "
                "baseline gate")
    return findings


def signature_table(program: Program) -> dict[str, object]:
    """The full inferred-signature table as a JSON-ready document."""
    functions: dict[str, object] = {}
    effect_counts: dict[str, int] = {
        name: 0 for name in sorted(EFFECT_NAMES | {UNKNOWN})}
    unknown_functions = 0
    for qn in sorted(program.nodes):
        fn = program.nodes[qn]
        total = fn.total
        for eff in total:
            effect_counts[eff] += 1
        if UNKNOWN in total:
            unknown_functions += 1
        entry: dict[str, object] = {
            "path": fn.path,
            "line": fn.line,
            "layer": fn.layer,
            "intrinsic": sorted(fn.intrinsic),
            "inherited": sorted(fn.inherited),
            "effects": sorted(total),
            "declared": sorted(fn.declared),
            "calls": len(fn.edges),
            "unknown_calls": sorted(set(fn.unknown_calls))[:8],
        }
        if fn.justification:
            entry["justification"] = fn.justification
        functions[qn] = entry
    return {
        "schema_version": EFFECTS_SCHEMA_VERSION,
        "functions": functions,
        "summary": {
            "functions": len(program.nodes),
            "with_unknown_calls": unknown_functions,
            "by_effect": effect_counts,
        },
    }
