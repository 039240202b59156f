"""One workload in one fresh interpreter; prints a JSON result as its last line.

    python3 bench/worker.py MODE --workload NAME --seed N [--seconds S] [--pass-ops K] [--traced]

Modes:
  setup   import amenshift and generate the inputs, nothing else
  timed   setup, one untimed warm-up pass, then whole timed passes until
          --seconds have elapsed and at least MIN_SAMPLES ops were timed
          (--pass-ops, for smoke runs, truncates the pass and drops the minimum)
  pass    setup, warm-up, then exactly one measured pass (for the traced run
          and its untraced twin); --traced wraps the layers first
  probe   the known-defect probe

Every mode but probe also times the host-speed reference loop
(bench/reference.py): around the set-up, and before the first measured op
and after each one, so run.py can scale each timing to the reference speed.

`run.py` starts this script; it is not meant to be run by hand except for
debugging.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

MIN_SAMPLES = 100


def _import_library():
    sys.path.insert(0, str(SRC))
    import amenshift

    if Path(amenshift.__file__).resolve().parent != SRC / "amenshift":
        raise SystemExit(f"imported amenshift from {amenshift.__file__}, not from {SRC}")


def _load_references() -> dict:
    with open(BENCH / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Per-op correctness: the first (warm-up) digest of each op is the run's
    own reference, and committed digests exist for two seeds."""

    def __init__(self, workload: str, seed: int, labels: list[str]):
        committed = _load_references()["workloads"].get(workload, {}).get(str(seed))
        self.committed = None
        if committed is not None:
            self.committed = {i: (label, digest) for i, (label, digest) in enumerate(committed)}
        self.labels = labels
        self.first: dict[int, str] = {}
        self.reasons: list[str] = []

    def check(self, index: int, digest: str | None, error: str | None) -> bool:
        label = self.labels[index]
        if error is not None:
            self.reasons.append(f"{label}: {error}")
            return False
        expected = self.first.setdefault(index, digest)
        if digest != expected:
            self.reasons.append(f"{label}: digest changed between passes")
            return False
        if self.committed is not None:
            ref_label, ref_digest = self.committed.get(index, (None, None))
            if (ref_label, ref_digest) != (label, digest):
                self.reasons.append(f"{label}: digest differs from the committed reference")
                return False
        return True


def _execute(op):
    """Run one op: (seconds, digest, error); only op.call is timed."""
    start = perf_counter()
    try:
        value = op.call()
    except Exception as exc:  # a raising op is a failed op, the run goes on
        return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        data = op.render(value)
    except Exception as exc:
        return elapsed, None, f"{type(exc).__name__}: {exc}"
    return elapsed, hashlib.sha256(data).hexdigest(), None


def main(argv=None) -> int:
    reference.warm_up()
    setup_ref_ms = [reference.sample() for _ in range(3)]
    t0 = perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "timed", "pass", "probe"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--pass-ops", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    if args.mode == "probe":
        print(json.dumps({"probe": workloads.known_defect_probe()}))
        return 0

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.op_id = "setup"
        tracer.active = True
        build = tracer.span("bench.setup", workloads.BUILDERS[args.workload])
    else:
        build = workloads.BUILDERS[args.workload]
    ops = build(args.seed)
    if args.pass_ops:
        ops = ops[: args.pass_ops]
    setup_s = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    setup_ref_ms += [reference.sample() for _ in range(3)]
    result = {"setup_s": setup_s, "setup_ref_ms": setup_ref_ms}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    checker = Checker(args.workload, args.seed, [op.label for op in ops])
    warmup_failed = 0
    for i, op in enumerate(ops):
        _, digest, error = _execute(op)
        warmup_failed += not checker.check(i, digest, error)

    # a smoke run (--pass-ops) keeps only the time limit
    min_samples = 0 if args.pass_ops else MIN_SAMPLES
    execute = _execute if tracer is None else tracer.span("bench.op", _execute)
    latencies: list[float] = []
    ref_ms = [reference.sample()]
    pass_walls: list[float] = []
    failed = 0
    start = perf_counter()
    if tracer is not None:
        tracer.active = True
    while True:
        pass_start = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = f"pass{len(pass_walls)}/{i}"
            elapsed, digest, error = execute(op)
            latencies.append(elapsed * 1000.0)
            ref_ms.append(reference.sample())
            failed += not checker.check(i, digest, error)
        pass_walls.append(perf_counter() - pass_start)
        wall = perf_counter() - start
        if args.mode == "pass" or (wall >= args.seconds and len(latencies) >= min_samples):
            break
    if tracer is not None:
        tracer.active = False

    result.update(
        wall_s=wall,
        pass_walls_s=pass_walls,
        ops_per_pass=len(ops),
        latencies_ms=latencies,
        ref_ms=ref_ms,
        failed=failed,
        warmup_failed=warmup_failed,
        digests=[[op.label, checker.first.get(i)] for i, op in enumerate(ops)],
        reasons=checker.reasons[:20],
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        import tracing

        result["per_layer"] = tracing.per_layer_metrics(tracer)
        if args.trace_out:
            _write_trace(Path(args.trace_out), tracer)
    print(json.dumps(result))
    return 0


def _write_trace(path: Path, tracer) -> None:
    """All spans as JSON lines, after one header line of aggregates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "fields": ["name", "start", "end", "parent", "op", "self_s", "hot"],
        "totals": {k: v for k, v in tracer.totals.items()},
        "hot": tracer.hot,
        "counters": tracer.counters,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
