"""Regenerate bench/references.json: per-op output digests for the two
reference seeds and the `verify --suite all --seed 7` byte-identity anchor.

    python3 bench/make_references.py

Run it only when a change is meant to alter outputs, and say so in the change.
Each workload runs in a fresh interpreter (bench/worker.py, one pass).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCES = BENCH / "references.json"

DEFAULT_SEED = 7
HELD_OUT_SEED = 4242  # not used while the workloads were tuned
ANCHOR_ARGV = ["verify", "--suite", "all", "--seed", "7"]


def _run(cmd: list[str], env=None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True, timeout=600, env=env)


def anchor_digest() -> str:
    """sha256 of the bytes `amenshift verify --suite all --seed 7` writes."""
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    proc = _run([sys.executable, "-m", "amenshift.cli", *ANCHOR_ARGV], env=env)
    return hashlib.sha256(proc.stdout).hexdigest()


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from run import WORKLOADS

    refs: dict = {"anchor": {"argv": ANCHOR_ARGV, "sha256": anchor_digest()}, "workloads": {}}
    # the workers compare against the committed file; start from an empty one
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"workloads": {}}, fh)
    for workload in WORKLOADS:
        refs["workloads"][workload] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            cmd = [sys.executable, str(BENCH / "worker.py"), "pass", "--workload", workload, "--seed", str(seed)]
            result = json.loads(_run(cmd).stdout.decode().strip().splitlines()[-1])
            if result["warmup_failed"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: failing ops {result['reasons']}")
            refs["workloads"][workload][str(seed)] = result["digests"]
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
