"""Experiment specs, runners, and deterministic JSON/CSV emitters.

A spec names an experiment kind, a chain, configuration descriptors and
parameters.  Reports echo their inputs, list one item per result, and carry
a pass flag for every asserted inequality together with both sides' values.
Identical specs (including the seed) produce byte-identical documents:
rationals are serialized as "p/q" strings in JSON and never as floats; CSV
uses 12-significant-digit decimals plus a serialization-exactness column;
wall time is reported as null unless timing is explicitly requested.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from . import suites
from .configs import (
    Alphabet,
    CosetSet,
    config_descriptor,
    config_from_descriptor,
    evaluate,
    geometric_box_lengths,
    per_set,
)
from .densities import IntervalEstimate, banach_density_exact, banach_density_windowed
from .entropy import entropy_estimate
from .errors import SpecError
from .groups import SubgroupChain, box, make_chain
from .measures import omega_profile
from .metrics import (
    besicovitch_estimate,
    dstar_distance,
    dw_prime_estimate,
    weyl_upper_bound,
)
from .toeplitz import (
    krieger_construct,
    meets_power_bound,
    periodic_approximation,
    psi_path,
    regularity_profile,
    toeplitz_interpolate,
    verify_skeleton,
)

@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    chain: dict | None = None
    configs: tuple[dict, ...] = ()
    params: dict = field(default_factory=dict)
    seed: int = 0

    def resolve_chain(self) -> SubgroupChain | None:
        if self.chain is None:
            return None
        return make_chain(int(self.chain["rank"]), list(self.chain["scales"]))


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    spec: dict
    items: tuple[dict, ...]
    passed: bool
    wall_time_ms: float | None = None


def _fail(pointer: str, message: str) -> SpecError:
    return SpecError(f"{pointer}: {message}")


def _is_int(value: Any) -> bool:
    # JSON true/false decode to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


# params the runners read as counts or levels
INT_PARAMS = (
    "depth", "window", "level", "level_lo", "level_hi", "block_level", "stages", "alphabet_size",
)


def check_document(doc: Any) -> None:
    """Raise SpecError, at a JSON pointer, where a document is malformed;
    whether its kind is known and its chain present is left to spec_from_json."""
    if not isinstance(doc, dict):
        raise _fail("", "spec must be an object")
    chain = doc.get("chain")
    if chain is not None:
        if not isinstance(chain, dict):
            raise _fail("/chain", "must be an object")
        rank = chain.get("rank")
        if not _is_int(rank) or rank < 1:
            raise _fail("/chain/rank", "must be a positive integer")
        scales = chain.get("scales")
        if not isinstance(scales, list) or not scales:
            raise _fail("/chain/scales", "must be a nonempty array")
        for i, q in enumerate(scales):
            if not _is_int(q) or q < 1:
                raise _fail(f"/chain/scales/{i}", "must be a positive integer")
    configs = doc.get("configs", [])
    if not isinstance(configs, list):
        raise _fail("/configs", "must be an array")
    for i, c in enumerate(configs):
        if not isinstance(c, dict) or "variant" not in c:
            raise _fail(f"/configs/{i}", "must be an object with a variant")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise _fail("/params", "must be an object")
    for key in INT_PARAMS:
        if key in params and (not _is_int(params[key]) or params[key] < 0):
            raise _fail(f"/params/{key}", "must be a nonnegative integer")
    if not _is_int(doc.get("seed", 0)):
        raise _fail("/seed", "must be an integer")


def spec_from_json(doc: Any) -> ExperimentSpec:
    """Validate a JSON experiment document; errors carry JSON-pointer paths."""
    check_document(doc)
    kind = doc.get("kind")
    if kind not in KINDS:
        raise _fail("/kind", f"must be one of {', '.join(KINDS)}")
    if doc.get("chain") is None and kind != "verify":
        raise _fail("/chain", "required for every kind but verify")
    return ExperimentSpec(
        kind=kind,
        chain=doc.get("chain"),
        configs=tuple(doc.get("configs", [])),
        params=dict(doc.get("params", {})),
        seed=doc.get("seed", 0),
    )


# ---------------------------------------------------------------------------
# value serialization
# ---------------------------------------------------------------------------

_RAT_FORMAT = "{}/{}"


def jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return _RAT_FORMAT.format(value.numerator, value.denominator)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _looks_rational(s: str) -> bool:
    head, _, tail = s.partition("/")
    if not tail:
        return False
    digits = head.lstrip("-")
    return bool(digits) and digits.isdigit() and tail.isdigit()


def from_jsonable(value: Any) -> Any:
    if isinstance(value, str) and _looks_rational(value):
        return Fraction(value)
    if isinstance(value, list):
        return [from_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: from_jsonable(v) for k, v in value.items()}
    return value


def interval_item(estimate: IntervalEstimate) -> dict:
    item = {
        "lower": estimate.lower,
        "upper": estimate.upper,
        "exact": estimate.exact,
        "method": estimate.method,
    }
    if estimate.caveat:
        item["caveat"] = estimate.caveat
    return item


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _run_density(spec: ExperimentSpec) -> tuple[list[dict], bool]:
    chain = spec.resolve_chain()
    params = spec.params
    if "cosets" in params:
        level = int(params["cosets"]["level"])
        cs = CosetSet.make(chain, level, params["cosets"]["reps"])
        est = banach_density_exact(cs)
        return [interval_item(est)], True
    if not spec.configs:
        raise _fail("/configs", "density needs a configuration or a coset set")
    x = config_from_descriptor(spec.configs[0], chain)
    letter = str(params.get("letter", "1"))
    level = int(params.get("level", 1))
    radius = int(params.get("window", chain.scale(level)))

    def member(g):
        v = evaluate(x, g)
        return None if v is None else v == letter

    est = banach_density_windowed(member, chain, level, radius)
    return [interval_item(est)], True


def _run_distance(spec: ExperimentSpec) -> tuple[list[dict], bool]:
    chain = spec.resolve_chain()
    if len(spec.configs) < 2:
        raise _fail("/configs", "distance needs two configurations")
    x = config_from_descriptor(spec.configs[0], chain)
    z = config_from_descriptor(spec.configs[1], chain)
    metric = spec.params.get("metric", "dstar")
    level = spec.params.get("level")
    radius = spec.params.get("window")
    if metric == "dstar":
        rep = dstar_distance(x, z, level, radius, chain)
        item = {"metric": "dstar", "basis": rep.basis, **interval_item(rep.value)}
        return [item], True
    if metric == "dwprime":
        rep = dw_prime_estimate(x, z, level, radius, chain)
        item = {"metric": "dwprime", "basis": rep.basis, **interval_item(rep.value)}
        return [item], True
    if metric == "weyl":
        n = int(spec.params.get("block_level", 1))
        bound = weyl_upper_bound(x, z, chain.domain(n), int(radius or 0))
        item = {
            "metric": "weyl",
            "window_proxy": bound.window_proxy,
            "label": "window proxy for an upper bound",
        }
        if bound.exact is not None:
            item["exact"] = bound.exact
        return [item], True
    if metric == "besicovitch":
        lo = int(spec.params.get("level_lo", 1))
        hi = int(spec.params.get("level_hi", chain.depth))
        trace = besicovitch_estimate(x, z, chain, lo, hi)
        items = [
            {"metric": "besicovitch", "level": n, "average": avg}
            for n, avg in zip(trace.levels, trace.averages)
        ]
        items.append(
            {"metric": "besicovitch", "level": "limsup-proxy", "average": trace.running_max}
        )
        return items, True
    raise _fail("/params/metric", "must be dstar|weyl|besicovitch|dwprime")


def _run_entropy(spec: ExperimentSpec) -> tuple[list[dict], bool]:
    chain = spec.resolve_chain()
    if not spec.configs:
        raise _fail("/configs", "entropy needs a configuration")
    x = config_from_descriptor(spec.configs[0], chain)
    lo = int(spec.params.get("level_lo", 1))
    hi = int(spec.params.get("level_hi", spec.params.get("level", 1)))
    radius = spec.params.get("window")
    items = []
    for n in range(lo, hi + 1):
        est = entropy_estimate(x, n, radius, chain)
        items.append(
            {
                "level": n,
                "pattern_count": est.pattern_count,
                "estimate_nats": est.value,
                "saturated": est.saturated,
                "exactness": "exact" if est.exact else "window-lower-bound",
            }
        )
    return items, True


def _box_sequence_from_params(chain, params) -> list:
    kind = params.get("boxes", "chain")
    levels = range(int(params.get("level_lo", 1)), int(params.get("level_hi", 1)) + 1)
    if kind == "chain":
        return [(n, chain.domain(n)) for n in levels]
    if kind == "linear":
        return [(n, box(1, n + 1)) for n in levels]
    if kind == "geometric":
        eps = Fraction(str(params.get("eps", "1/2")))
        lengths = geometric_box_lengths(eps, max(levels))
        return [(n, box(1, lengths[n])) for n in levels]
    raise _fail("/params/boxes", "must be chain|linear|geometric")


def _run_omega(spec: ExperimentSpec) -> tuple[list[dict], bool]:
    chain = spec.resolve_chain()
    if not spec.configs:
        raise _fail("/configs", "omega needs a configuration")
    x = config_from_descriptor(spec.configs[0], chain)
    pairs = _box_sequence_from_params(chain, spec.params)
    profile = omega_profile(x, [F for _, F in pairs])
    items = []
    ok = True
    for i, (n, _) in enumerate(pairs):
        item = {"level": n, "size": profile.sizes[i]}
        for atom, w in profile.measures[i].atoms:
            item[f"weight[{atom}]"] = w
        if i > 0:
            item["consecutive_dp"] = profile.steps[i - 1]
            item["nesting_bound"] = profile.step_bounds[i - 1]
            item["within_bound"] = profile.steps[i - 1] <= profile.step_bounds[i - 1]
            ok = ok and item["within_bound"]
        items.append(item)
    return items, ok


def _run_path(spec: ExperimentSpec) -> tuple[list[dict], bool]:
    chain = spec.resolve_chain()
    depth = int(spec.params.get("depth", chain.depth))
    grid = [Fraction(str(t)) for t in spec.params.get("t_grid", ["0", "1/2", "1"])]
    paths = [psi_path(t, chain, depth) for t in grid]
    items = []
    ok = True
    for t, p in zip(grid, paths):
        est = entropy_estimate(p.table, 1) if p.table.fully_resolved() else None
        item = {
            "t": t,
            "d_density": p.d_density,
            "terminated": p.terminated,
        }
        if est is not None:
            item["entropy_nats_level1"] = est.value
        items.append(item)
    slack = Fraction(1, chain.domain_size(depth))
    for i, (s, ps) in enumerate(zip(grid, paths)):
        for t, pt in zip(grid[i + 1 :], paths[i + 1 :]):
            rep = dstar_distance(ps.table, pt.table)
            bound = abs(t - s) + slack
            good = rep.value.upper <= bound
            ok = ok and good
            items.append(
                {
                    "s": min(s, t),
                    "t": max(s, t),
                    "dstar_upper": rep.value.upper,
                    "lipschitz_bound": bound,
                    "passed": good,
                }
            )
    return items, ok


def _run_krieger(spec: ExperimentSpec) -> tuple[list[dict], bool]:
    chain = spec.resolve_chain()
    if "depth" in spec.params:
        depth = int(spec.params["depth"])
        if depth < 1 or depth > chain.depth:
            raise _fail("/params/depth", f"must lie in 1..{chain.depth}")
        chain = make_chain(chain.rank, chain.scales[:depth])
    gamma = Fraction(str(spec.params.get("gamma", "1/2")))
    letters = spec.params.get("alphabet_size", 2)
    alphabet = Alphabet(tuple(chr(ord("a") + i) for i in range(int(letters))))
    stages = int(spec.params.get("stages", 2))
    result = krieger_construct(gamma, chain, alphabet, stages)
    items = []
    ok = True
    for st in result.stages:
        item = {
            "stage": st.index,
            "level": st.level,
            "quota": st.quota,
            "free_cells": st.free_cells,
            "planted": st.planted,
            "window_count": st.window_count,
        }
        if st.next_level is not None:
            size = chain.domain_size(st.level)
            cert = meets_power_bound(st.window_count, gamma * size, len(alphabet))
            est = result.entropy_at(st.index)
            item["certificate_floor"] = float(len(alphabet)) ** float(gamma * size)
            item["gamma_certificate"] = cert
            item["entropy_nats"] = est.value
            ok = ok and cert
        items.append(item)
    return items, ok


def _run_toeplitz(spec: ExperimentSpec) -> tuple[list[dict], bool]:
    chain = spec.resolve_chain()
    action = spec.params.get("action", "profile")
    if action == "interpolate":
        if len(spec.configs) < 2:
            raise _fail("/configs", "interpolate needs two coset tables")
        z = config_from_descriptor(spec.configs[0], chain)
        zp = config_from_descriptor(spec.configs[1], chain)
        t = Fraction(str(spec.params.get("t", "1/2")))
        u = toeplitz_interpolate(z, zp, t, spec.params.get("depth"))
        return [{"t": t, "table": config_descriptor(u)}], True
    if not spec.configs:
        raise _fail("/configs", "toeplitz needs a configuration")
    x = config_from_descriptor(spec.configs[0], chain)
    N = int(spec.params.get("depth", chain.depth))
    if action == "verify":
        rep = verify_skeleton(x, N)
        item = {
            "depth": rep.depth,
            "nonempty": list(rep.nonempty),
            "coverage": rep.coverage,
            "separation_failures": [[n, list(g)] for n, g in rep.separation_failures],
            "passed": rep.all_nonempty and rep.separation_ok,
        }
        return [item], bool(item["passed"])
    if action == "profile":
        prof = regularity_profile(x, N)
        items = [
            {"level": n, "per_density": d}
            for n, d in zip(prof.levels, prof.densities)
        ]
        items.append({"regular": prof.regular, "tolerance": prof.tolerance})
        return items, True
    if action == "approx":
        n = int(spec.params.get("level", N))
        approx = periodic_approximation(x, n)
        rep = dstar_distance(approx, x)
        bound = 1 - per_set(x, n).density()
        good = rep.value.upper <= bound
        item = {
            "level": n,
            "disagreement_upper": rep.value.upper,
            "bound": bound,
            "passed": good,
            "word": config_descriptor(approx)["word"],
        }
        return [item], good
    raise _fail("/params/action", "must be verify|profile|approx|interpolate")


def _run_verify(spec: ExperimentSpec) -> tuple[list[dict], bool]:
    name = spec.params.get("suite", "all")
    available = suites.SUITES
    if name == "all":
        chosen = list(available)
    elif name in available:
        chosen = [name]
    else:
        raise _fail("/params/suite", f"must be one of {', '.join(available)} or all")
    items = []
    ok = True
    for suite_name in chosen:
        result = available[suite_name](seed=spec.seed)
        for item in result.items:
            items.append({"suite": suite_name, **item})
        ok = ok and result.passed
    return items, ok


_RUNNERS: dict[str, Callable[[ExperimentSpec], tuple[list[dict], bool]]] = {
    "density": _run_density,
    "distance": _run_distance,
    "entropy": _run_entropy,
    "omega": _run_omega,
    "path": _run_path,
    "krieger": _run_krieger,
    "toeplitz": _run_toeplitz,
    "verify": _run_verify,
}
KINDS = tuple(_RUNNERS)


def run(spec: ExperimentSpec, timing: bool = False) -> ExperimentReport:
    """Dispatch a spec to its runner; deterministic for a fixed spec."""
    start = time.monotonic()
    items, passed = _RUNNERS[spec.kind](spec)
    elapsed = (time.monotonic() - start) * 1000.0
    echo = {
        "kind": spec.kind,
        "chain": spec.chain,
        "configs": list(spec.configs),
        "params": jsonable(spec.params),
        "seed": spec.seed,
    }
    return ExperimentReport(
        kind=spec.kind,
        spec=echo,
        # the in-memory items equal what the JSON emitter writes, read back
        items=tuple(from_jsonable(jsonable(item)) for item in items),
        passed=passed,
        wall_time_ms=elapsed if timing else None,
    )


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def emit(report: ExperimentReport, fmt: str = "json") -> bytes:
    """Serialize a report with stable field ordering.

    JSON keeps rationals as "p/q" strings; CSV renders them as decimals with
    12 significant digits and adds a serialization column recording whether
    that rendering was exact.
    """
    if fmt == "json":
        doc = {
            "kind": report.kind,
            "spec": jsonable(report.spec),
            "items": [jsonable(item) for item in report.items],
            "passed": report.passed,
            "wall_time_ms": report.wall_time_ms,
        }
        return (json.dumps(doc, indent=2, sort_keys=False) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        columns: list[str] = []
        for item in report.items:
            for key in item:
                if key not in columns:
                    columns.append(key)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns + ["serialization"])
        for item in report.items:
            row = []
            exact_render = True
            for col in columns:
                v = item.get(col, "")
                if isinstance(v, Fraction):
                    rendered = f"{float(v):.12g}"
                    if Fraction(rendered) != v:
                        exact_render = False
                    row.append(rendered)
                elif isinstance(v, float):
                    row.append(f"{v:.12g}")
                elif isinstance(v, (list, dict)):
                    row.append(json.dumps(jsonable(v)))
                else:
                    row.append(v)
            row.append("exact" if exact_render else "inexact-serialization")
            writer.writerow(row)
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")


def report_from_json(data: bytes) -> ExperimentReport:
    """Inverse of the JSON emitter: parse(emit(r, json)) == r."""
    doc = json.loads(data.decode())
    return ExperimentReport(
        kind=doc["kind"],
        spec=doc["spec"],  # the echo is stored in its serialized form already
        items=tuple(from_jsonable(item) for item in doc["items"]),
        passed=doc["passed"],
        wall_time_ms=doc["wall_time_ms"],
    )
