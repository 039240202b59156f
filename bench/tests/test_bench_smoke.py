"""Smoke test of the benchmark: tiny runs of every workload, both modes.

    python3 -m pytest bench/tests -q

Asserts that each run emits exactly the metrics BENCHMARK.json declares, with
their units, that the outputs check out, that the `verify --suite all
--seed 7` anchor still hashes to its committed digest, and that the
benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_declared_metrics(workload, trace, section):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--pass-ops", "3")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert "known-defect probe dstar-two-oracles:" in proc.stdout


def test_traced_run_counts_point_evaluations_through_rebound_names():
    result = _result(_bench("--workload", "cli-window", "--seed", "7", "--trace", "1"))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # harness, metrics and entropy call `evaluate` through their own imported names
    assert metrics["configs.evaluate.calls"] > 0
    assert metrics["cli.parse.self_ms"] > 0
    assert metrics["harness.emit.bytes"] > 0


def test_verify_all_seed7_anchor_matches_reference():
    refs = json.loads((BENCH / "references.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "amenshift.cli", *refs["anchor"]["argv"]],
        cwd=ROOT, capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == refs["anchor"]["sha256"]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "7", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
