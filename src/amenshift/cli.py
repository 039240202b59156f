"""Command-line entry point.

One subcommand per experiment kind, with the spec-level flags and a flag for
each row of the param table ``harness.PARAMS`` that the kind reads.  A spec
may come from a JSON file (--spec) or from flags, flags winning on conflict; a
default the table marks ``echoed`` fills only a key the file leaves out.  Exit
code 0 iff the report passed, 1 iff some verdict field of an item is false,
and 2 for every refused input and a report that could not be written.  The
parser is built once per process and shared, so ``main`` is reentrant.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from .errors import AmenshiftError, SpecError
from .harness import (
    CHAINLESS_KINDS, PARAMS, RUNNERS, ExperimentSpec, check_document, emit, run, spec_from_json,
)

DEFAULT_SCALES = [2, 4, 8, 16, 32, 64, 128, 256]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", help="JSON experiment spec file")
    parser.add_argument("--chain", help="chain spec JSON file ({'rank':d,'scales':[...]})")
    parser.add_argument("--rank", type=int, help="ambient group rank d")
    parser.add_argument("--scales", help="comma-separated chain scales q1,q2,...")
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
    for kind, runner in RUNNERS.items():
        p = sub.add_parser(kind, help=runner.__doc__)
        _add_common(p)
        for key, row in PARAMS.items():
            if kind not in row.kinds:
                continue
            flag = row.flag or "--" + key.replace("_", "-")
            options = {"dest": key} if flag.startswith("-") else {}
            if row.choices:
                # listed, not enforced: the spec check refuses a bad value in one line
                options["metavar"] = "{" + ",".join(row.choices) + "}"
            p.add_argument(flag, type=int if row.type == "int" else str, help=row.help, **options)
    return parser


def _int_or_text(item: str) -> int | str:
    """A list flag's item as an int, or kept as text for the spec check to
    refuse at its pointer."""
    try:
        return int(item)
    except ValueError:
        return item


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    doc: dict = {}
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        # flags are merged into a well-formed file only
        check_document(doc, args.kind)
    doc["kind"] = args.kind
    # flags win on conflict
    if args.chain:
        with open(args.chain, encoding="utf-8") as fh:
            doc["chain"] = json.load(fh)
        check_document({"chain": doc["chain"]})
    if args.rank is not None or args.scales is not None:
        rank = args.rank if args.rank is not None else (doc.get("chain") or {}).get("rank", 1)
        scales = (
            [_int_or_text(q) for q in args.scales.split(",")]
            if args.scales is not None
            else (doc.get("chain") or {}).get("scales", DEFAULT_SCALES)
        )
        doc["chain"] = {"rank": rank, "scales": scales}
    if doc.get("chain") is None and args.kind not in CHAINLESS_KINDS:
        doc["chain"] = {"rank": 1, "scales": DEFAULT_SCALES}
    if args.config:
        doc["configs"] = [json.loads(c) for c in args.config]
    # in table order, which is the order of the params echo
    params = doc.setdefault("params", {})
    for key, row in PARAMS.items():
        if args.kind not in row.kinds:
            continue
        value = getattr(args, key)
        if value is None and row.echoed and key not in params:
            value = row.default
        # an empty list flag is left out
        if value is None or value == "" and row.type in ("unit array", "cosets"):
            continue
        if row.type == "unit array":
            value = value.split(",")
        elif row.type == "cosets":
            level = params.get("level", PARAMS["level"].default)
            value = {"level": level, "reps": [_int_or_text(r) for r in value.split(",")]}
        params[key] = value
    if args.seed is not None:
        doc["seed"] = args.seed
    return spec_from_json(doc)


# the process's one parser, built by the first main() call through the module
# name build_parser: parsing leaves a parser as it was (an append flag copies
# its default list), so every call and every thread shares it
_parser: argparse.ArgumentParser | None = None
_parser_lock = threading.Lock()


def _shared_parser() -> argparse.ArgumentParser:
    global _parser
    with _parser_lock:
        if _parser is None:
            _parser = build_parser()
    return _parser


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        report = run(spec, timing=args.timing)
        payload = emit(report, args.format or "json")
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload.decode())
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except AmenshiftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
