"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload for one second untraced and traced, through the
same command line the benchmark is driven by, and checks that every
metric ``BENCHMARK.json`` names is printed with its unit, that no
query failed, and that both trace reconciliations hold.  Takes about
a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(tmp_path: Path, *args: str, cwd: Path = ROOT
        ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300)


def measure(tmp_path: Path, workload: str, trace: int) -> tuple[dict, dict]:
    out = tmp_path / "runs.json"
    proc = run(tmp_path, "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stdout
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads(out.read_text(encoding="utf-8"))["runs"][-1]
    return line, record


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(tmp_path, workload):
    line, record = measure(tmp_path, workload, 0)
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0  # error_rate 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in line["metrics"].values())
    for name in ("qps", "latency_p50_ms", "setup_s"):
        assert record["raw"][name] > 0  # printed next to the calibrated
    assert record["meta"]["nproc"] >= 1
    assert record["meta"]["probe_s"]["min"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_reconcile(tmp_path, workload):
    line, record = measure(tmp_path, workload, 1)
    assert line["correct"] is True and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        units(SPEC["per_layer"])
    rec = record["reconcile"]
    assert rec["io_layers"] == rec["io_device"] > 0
    assert rec["io_outside_spans"] == 0
    assert abs(rec["self_ms"] - rec["latency_ms"]) <= \
        0.05 * rec["latency_ms"]


def _runs(path: Path, workload: str, io: float, qps: list[float]) -> None:
    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    runs = [{"workload": workload, "seed": seed, "trace": 0,
             "correct": True, "failed": 0,
             "values": {**values, "io_per_query": io, "qps": q}}
            for seed, q in enumerate(qps, start=1)]
    path.write_text(json.dumps({"runs": runs}), encoding="utf-8")


def test_compare_verdicts(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _runs(a, "w", 84, [100, 101, 99, 100])
    _runs(b, "w", 84, [100, 100, 101, 99])
    proc = run(tmp_path, "compare", str(a), str(b))
    assert proc.returncode == 0 and proc.stdout.split()[:2] == ["w", "ok"]
    _runs(b, "w", 84, [50, 51, 49, 50])  # qps halved
    proc = run(tmp_path, "compare", str(a), str(b))
    assert proc.returncode == 1 and "worse" in proc.stdout
    _runs(b, "w", 85, [100, 100, 101, 99])  # same seeds, other I/O
    proc = run(tmp_path, "compare", str(a), str(b))
    assert proc.returncode == 1 and "count drift" in proc.stdout
    _runs(a, "w", 84, [60, 140, 100, 100])  # spread wider than bound
    _runs(b, "w", 84, [95, 96, 94, 95])
    proc = run(tmp_path, "compare", str(a), str(b))
    assert proc.returncode == 0 and "unresolved" in proc.stdout


def test_refuses_without_sources(tmp_path):
    """A copy holding only the benchmark fails fast and prints no
    result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = run(tmp_path, "--workload", "star_emit", "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
