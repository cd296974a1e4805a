"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json declares is printed with its unit,
on every workload, untraced and traced; that a deliberately perturbed output
is counted as a failed operation and fails the run; and that the benchmark
refuses to run, printing no result, where the program's sources are missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = run(ROOT, "--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        line = rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b"
        assert re.search(line, proc.stdout, re.M), f"{m['name']} not printed with {m['unit']}"
    assert re.search(r"^failed_ops_ratio = 0 ratio", proc.stdout, re.M)
    if not trace:
        assert re.search(r"^run_s\.tail = \S+ s  \((max|p\d+) of \d+ passes", proc.stdout, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_output_counts_as_failed_operation(workload):
    proc = run(ROOT, "--workload", workload, "--trace", "0", "--tiny", "--perturb")
    assert proc.returncode != 0
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED:" in proc.stdout


def test_refuses_checkout_without_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = run(bare, "--workload", WORKLOADS[0], "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
