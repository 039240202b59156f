"""Command-line entry point.

One subcommand per experiment kind; specs may come from a JSON file
(--spec) or entirely from flags, flags winning on conflict; a flag's
default (``harness.PARAM_DEFAULTS``) fills only a key the spec file leaves
out.  Exit code 0 iff the report passed, 1 iff some verdict field of an
item is false, and 2 for every malformed spec or descriptor and every
other refused input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AmenshiftError, SpecError
from .harness import PARAM_DEFAULTS, ExperimentSpec, check_document, emit, run, spec_from_json
from .suites import SUITES

DEFAULT_SCALES = [2, 4, 8, 16, 32, 64, 128, 256]

# flags copied into params under their own names; the order is the order of
# the params echo in every report, and a default takes its key's place when
# neither the flag nor the spec file sets it
DIRECT_PARAMS = (
    "depth", "window", "level", "level_lo", "level_hi", "letter", "metric", "block_level",
    "boxes", "eps", "gamma", "alphabet_size", "stages", "action", "t", "suite",
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", help="JSON experiment spec file")
    parser.add_argument("--chain", help="chain spec JSON file ({'rank':d,'scales':[...]})")
    parser.add_argument("--rank", type=int, help="ambient group rank d")
    parser.add_argument("--scales", help="comma-separated chain scales q1,q2,...")
    parser.add_argument("--depth", type=int, help="construction / verification depth")
    parser.add_argument("--window", type=int, help="translate window radius")
    parser.add_argument("--seed", type=int, help="PRNG seed for randomized suites")
    parser.add_argument("--config", action="append", default=[], help="configuration descriptor (JSON)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), help="output format")
    parser.add_argument("--timing", action="store_true", help="include wall time in the report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amenshift",
        description="desk-scale symbolic dynamics over residually finite amenable groups",
    )
    sub = parser.add_subparsers(dest="kind", required=True)

    p = sub.add_parser("density", help="Banach density of a coset set or a letter set")
    _add_common(p)
    p.add_argument("--level", type=int, help="Følner level n")
    p.add_argument("--letter", help="letter whose positions form the set A")
    p.add_argument("--reps", help="comma-separated coset representatives (exact mode)")

    p = sub.add_parser("distance", help="pseudometric between two configurations")
    _add_common(p)
    p.add_argument("--metric", choices=("dstar", "weyl", "besicovitch", "dwprime"))
    p.add_argument("--level", type=int)
    p.add_argument("--level-lo", type=int)
    p.add_argument("--level-hi", type=int)
    p.add_argument("--block-level", type=int, help="level of the averaging block F for weyl")

    p = sub.add_parser("entropy", help="pattern-counting entropy estimates")
    _add_common(p)
    p.add_argument("--level", type=int)
    p.add_argument("--level-lo", type=int)
    p.add_argument("--level-hi", type=int)

    p = sub.add_parser("omega", help="empirical-measure trace along nested boxes")
    _add_common(p)
    p.add_argument("--boxes", choices=("chain", "linear", "geometric"))
    p.add_argument("--eps", help="geometric ratio parameter (rational)")
    p.add_argument("--level-lo", type=int)
    p.add_argument("--level-hi", type=int)

    p = sub.add_parser("path", help="the binary configuration path and its Lipschitz trace")
    _add_common(p)
    p.add_argument("--t-grid", help="comma-separated rationals in [0,1]")

    p = sub.add_parser("krieger", help="positive-entropy table construction")
    _add_common(p)
    p.add_argument("--gamma", help="entropy fraction in (0,1), rational")
    p.add_argument("--alphabet-size", type=int)
    p.add_argument("--stages", type=int)

    p = sub.add_parser("toeplitz", help="skeleton / regularity / approximation on a table")
    _add_common(p)
    p.add_argument("action", choices=("verify", "profile", "approx", "interpolate"))
    p.add_argument("--level", type=int)
    p.add_argument("--t", help="interpolation parameter (rational)")

    p = sub.add_parser("verify", help="bundled verification suites")
    _add_common(p)
    p.add_argument("--suite", help=f"one of {', '.join(SUITES)} or all")

    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    doc: dict = {}
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        # flags are merged into a well-formed file only
        check_document(doc)
    doc["kind"] = args.kind
    # flags win on conflict
    if args.chain:
        with open(args.chain, encoding="utf-8") as fh:
            doc["chain"] = json.load(fh)
    if args.rank is not None or args.scales is not None:
        rank = args.rank if args.rank is not None else (doc.get("chain") or {}).get("rank", 1)
        scales = (
            [int(q) for q in args.scales.split(",")]
            if args.scales is not None
            else (doc.get("chain") or {}).get("scales", DEFAULT_SCALES)
        )
        doc["chain"] = {"rank": rank, "scales": scales}
    if doc.get("chain") is None and args.kind != "verify":
        doc["chain"] = {"rank": 1, "scales": DEFAULT_SCALES}
    if args.config:
        doc["configs"] = [json.loads(c) for c in args.config]
    params = doc.setdefault("params", {})
    for key in DIRECT_PARAMS:
        value = getattr(args, key, None)
        if value is None and key not in params and hasattr(args, key):
            value = PARAM_DEFAULTS.get(key)
        if value is not None:
            params[key] = value
    if getattr(args, "t_grid", None):
        params["t_grid"] = args.t_grid.split(",")
    if getattr(args, "reps", None):
        level = params.get("level", 1)
        params["cosets"] = {
            "level": level,
            "reps": [int(r) for r in args.reps.split(",")],
        }
    if args.seed is not None:
        doc["seed"] = args.seed
    return spec_from_json(doc)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        report = run(spec, timing=args.timing)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except AmenshiftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = args.format or "json"
    payload = emit(report, fmt)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
