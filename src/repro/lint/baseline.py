"""The suppression baseline: accepted violations, explicit and counted.

A baseline makes pre-existing accepted exceptions *visible*: each
entry names the file, rule code, enclosing scope, how many findings
it covers, and why it is justified.  ``repro lint --write-baseline``
generates entries (with a TODO justification to fill in); a clean
tree keeps the committed ``lint-baseline.json`` empty so the
zero-violation state is load-bearing.

Keys are ``(path, code, scope)`` rather than line numbers: unrelated
edits move lines constantly, but a violation migrating to a different
function is a different violation and should resurface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.lint.visitor import Violation

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "lint-baseline.json"

#: The justification ``--write-baseline`` stamps on generated
#: entries.  It is a to-do, not an answer: the committed baseline is
#: kept empty (``tests/test_lint_src.py``).
PLACEHOLDER_JUSTIFICATION = "TODO: justify"


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted exception: where, what, how many, and why."""

    path: str
    code: str
    scope: str
    count: int
    justification: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.path, self.code, self.scope)

    def as_dict(self) -> dict[str, object]:
        return {"path": self.path, "code": self.code,
                "scope": self.scope, "count": self.count,
                "justification": self.justification}


@dataclass
class Baseline:
    """A set of accepted violations keyed by (path, code, scope)."""

    entries: list[BaselineEntry] = field(default_factory=list)

    def apply(self, violations: "list[Violation]") -> tuple[
            "list[Violation]", "list[Violation]", list[dict[str, object]]]:
        """Split findings into (kept, suppressed) and report stale entries.

        Each entry absorbs up to ``count`` matching findings; findings
        beyond the budget are kept (a *new* violation in an already-
        baselined scope must not hide behind the old one).  Entries
        matching nothing are returned as stale dictionaries so reports
        can demand the baseline be pruned.
        """
        budget: dict[tuple[str, str, str], int] = {}
        for e in self.entries:
            budget[e.key] = budget.get(e.key, 0) + e.count
        used: dict[tuple[str, str, str], int] = {}
        kept: "list[Violation]" = []
        suppressed: "list[Violation]" = []
        for v in violations:
            if used.get(v.key, 0) < budget.get(v.key, 0):
                used[v.key] = used.get(v.key, 0) + 1
                suppressed.append(v)
            else:
                kept.append(v)
        stale = [dict(e.as_dict(), unused=budget[e.key] - used.get(e.key, 0))
                 for e in self.entries
                 if used.get(e.key, 0) < budget[e.key]]
        return kept, suppressed, stale

    @classmethod
    def from_violations(cls, violations: "list[Violation]", *,
                        justification: str = PLACEHOLDER_JUSTIFICATION
                        ) -> "Baseline":
        """Build a baseline accepting exactly the given findings."""
        counts: dict[tuple[str, str, str], int] = {}
        for v in violations:
            counts[v.key] = counts.get(v.key, 0) + 1
        entries = [BaselineEntry(path=path, code=code, scope=scope,
                                 count=n, justification=justification)
                   for (path, code, scope), n in sorted(counts.items())]
        return cls(entries=entries)

    def as_dict(self) -> dict[str, object]:
        return {"version": BASELINE_VERSION,
                "entries": [e.as_dict() for e in self.entries]}


def load_baseline(path: str | Path) -> Baseline:
    """Read a baseline file; a missing file is an empty baseline."""
    p = Path(path)
    if not p.exists():
        return Baseline()
    data = json.loads(p.read_text(encoding="utf-8"))
    version = data.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"{p}: unsupported baseline version {version!r} "
            f"(expected {BASELINE_VERSION})")
    entries: list[BaselineEntry] = []
    for raw in data.get("entries", []):
        entries.append(BaselineEntry(
            path=str(raw["path"]), code=str(raw["code"]),
            scope=str(raw.get("scope", "<module>")),
            count=int(raw.get("count", 1)),
            justification=str(raw.get("justification", ""))))
    return Baseline(entries=entries)


def write_baseline(baseline: Baseline, path: str | Path) -> None:
    """Write a baseline file (sorted, one canonical formatting)."""
    p = Path(path)
    p.write_text(json.dumps(baseline.as_dict(), indent=2,
                            sort_keys=False) + "\n", encoding="utf-8")
