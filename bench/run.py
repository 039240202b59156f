"""The amenshift benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload verify-suites --seed 7 --seconds 20 --trace 0

Every workload runs in fresh interpreters started from here (bench/worker.py),
one at a time: a single process and a single thread issue each op only after
the previous one returned.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics:

* ``--trace 0``: the end-to-end metrics of an untraced timed run;
* ``--trace 1``: the per-layer metrics of a traced pass over the op list,
  plus ``trace.overhead_frac`` against an untraced pass over the same list.

The known-defect probe runs once per invocation in its own interpreter,
before and outside the measured work; its status is printed, not counted.
Timings are reported at the fixed reference speed of bench/reference.py,
which cancels the drift of a shared host; the raw figures are printed too.
See bench/README.md for the workloads, metrics and noise notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("verify-suites", "cli-window", "exhaustive-kernels")
SETUP_REPEATS = 5  # setup_s is the median over this many fresh interpreters
DEADLINE_S = 170.0  # every invocation ends well inside 180 s


class BenchError(Exception):
    pass


def _worker(mode: str, args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload, "--seed", str(args.seed)]
    cmd += list(extra)
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError(f"out of time before worker {mode}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker {mode} exceeded the deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
    }


def _setup_s(run: dict) -> tuple[float, float]:
    """(raw, reference-speed) set-up time of one worker."""
    return run["setup_s"], reference.adjust_one(run["setup_s"], run["setup_ref_ms"])


def _timed(args, deadline: float) -> tuple[dict, dict]:
    setups = [_setup_s(_worker("setup", args, deadline)) for _ in range(SETUP_REPEATS - 1)]
    extra = ["--seconds", str(args.seconds)]
    if args.pass_ops:
        extra += ["--pass-ops", str(args.pass_ops)]
    run = _worker("timed", args, deadline, *extra)
    setups.append(_setup_s(run))
    raw = run["latencies_ms"]
    lat = reference.adjust(raw, run["ref_ms"])
    attempted = len(lat)
    p90 = statistics.quantiles(lat, n=10)[-1]
    metrics = {
        "ops_per_s": (attempted / (sum(lat) / 1000.0), "1/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_p90": (p90, "ms"),
        "ok_frac": ((attempted - run["failed"]) / attempted, "ratio"),
        "setup_s": (statistics.median(adjusted for _, adjusted in setups), "s"),
        "peak_rss_mb": (run["maxrss_kb"] / 1024.0, "MB"),
    }
    details = {
        "samples": attempted,
        "beyond_p90": sum(v > p90 for v in lat),
        "passes": len(run["pass_walls_s"]),
        "ops_per_pass": run["ops_per_pass"],
        "wall_s": run["wall_s"],
        "failed_frac": run["failed"] / attempted,
        "warmup_failed": run["warmup_failed"],
        "ref_ms_median": statistics.median(run["ref_ms"]),
        "raw_ops_per_s": attempted / (sum(raw) / 1000.0),
        "raw_op_ms_p50": statistics.median(raw),
        "raw_op_ms_p90": statistics.quantiles(raw, n=10)[-1],
        "raw_setup_s": statistics.median(raw_s for raw_s, _ in setups),
        "setup_samples_s": setups,
        "pass_walls_s": run["pass_walls_s"],
        "latencies_ms": lat,
        "raw_latencies_ms": raw,
        "ref_ms": run["ref_ms"],
        "reasons": run["reasons"],
    }
    summary = {"attempted": attempted, "failed": run["failed"], "warmup_failed": run["warmup_failed"], "metrics": metrics}
    return summary, details


def _traced(args, deadline: float) -> tuple[dict, dict]:
    import tracing  # only for metric names and units; the library is traced in the worker

    extra = ["--pass-ops", str(args.pass_ops)] if args.pass_ops else []
    plain = _worker("pass", args, deadline, *extra)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    traced = _worker("pass", args, deadline, "--traced", "--trace-out", str(trace_file), *extra)
    values = dict(traced["per_layer"])
    plain_ms = sum(reference.adjust(plain["latencies_ms"], plain["ref_ms"]))
    traced_ms = sum(reference.adjust(traced["latencies_ms"], traced["ref_ms"]))
    values["trace.overhead_frac"] = (traced_ms - plain_ms) / plain_ms
    metrics = {name: (value, tracing.unit_of(name)) for name, value in values.items()}
    attempted = len(plain["latencies_ms"]) + len(traced["latencies_ms"])
    failed = plain["failed"] + traced["failed"]
    details = {
        "untraced_pass_s": plain["wall_s"],
        "traced_pass_s": traced["wall_s"],
        "trace_file": str(trace_file.relative_to(ROOT)),
        "reasons": plain["reasons"] + traced["reasons"],
    }
    warmup_failed = plain["warmup_failed"] + traced["warmup_failed"]
    summary = {"attempted": attempted, "failed": failed, "warmup_failed": warmup_failed, "metrics": metrics}
    return summary, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-ops", type=int, default=0, help="truncate the op list (smoke runs)")
    args = parser.parse_args(argv)

    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "amenshift" / "__init__.py").is_file():
        print(f"no amenshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        probe = _worker("probe", args, deadline)["probe"]
        summary, details = (_traced if args.trace else _timed)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "probe": probe,
        "details": details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in summary["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: {json.dumps(record['machine'])}")
    print(f"known-defect probe {probe['name']}: {probe['status']} (exit {probe['exit']})")
    for key, value in details.items():
        if key not in ("setup_samples_s", "pass_walls_s", "latencies_ms", "raw_latencies_ms", "ref_ms", "reasons"):
            print(f"{key}: {value}")
    for reason in details["reasons"]:
        print(f"FAILED {reason}")
    for name, (value, unit) in summary["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": summary["failed"] == 0 and summary["warmup_failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
