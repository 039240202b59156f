"""Experiment specs, runners, and deterministic JSON/CSV emitters.

A spec names an experiment kind, a chain, configuration descriptors and
parameters, and checks itself when built; errors carry JSON-pointer paths.
Runners return only their items.  An item records each asserted inequality
with both sides' values and a flag named in ``VERDICTS``, and ``run``
decides the verdict: a report passes iff every such flag is true.

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
    _is_element,
    _is_int,
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


def _fail(pointer: str, message: str) -> SpecError:
    return SpecError(f"{pointer}: {message}")


def _is_array(value: Any) -> bool:
    # JSON arrays decode to lists; a spec built in Python may hold tuples
    return isinstance(value, (list, tuple))


# params the runners read as counts or levels
INT_PARAMS = (
    "depth", "window", "level", "level_lo", "level_hi", "block_level", "stages", "alphabet_size",
)

# params with a default that both the runners and the CLI fill in
PARAM_DEFAULTS = {
    "metric": "dstar", "boxes": "chain", "alphabet_size": 2, "stages": 2, "suite": "all",
}

# item fields that record an asserted inequality
VERDICTS = ("passed", "within_bound", "gamma_certificate")


def check_document(doc: Any) -> None:
    """Raise SpecError, at a JSON pointer, where a document is malformed;
    whether its kind is known and its chain present is left to ExperimentSpec."""
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
        if not _is_array(scales) or not scales:
            raise _fail("/chain/scales", "must be a nonempty array")
        for i, q in enumerate(scales):
            if not _is_int(q) or q < 1:
                raise _fail(f"/chain/scales/{i}", "must be a positive integer")
    configs = doc.get("configs", [])
    if not _is_array(configs):
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
    if "cosets" in params:
        cosets = params["cosets"]
        if not isinstance(cosets, dict):
            raise _fail("/params/cosets", "must be an object with a level and reps")
        if not _is_int(cosets.get("level")) or cosets["level"] < 0:
            raise _fail("/params/cosets/level", "must be a nonnegative integer")
        reps = cosets.get("reps")
        if not _is_array(reps) or not all(map(_is_element, reps)):
            raise _fail("/params/cosets/reps", "must be an array of integers or integer arrays")
    if "t_grid" in params and not _is_array(params["t_grid"]):
        raise _fail("/params/t_grid", "must be an array")
    if not _is_int(doc.get("seed", 0)):
        raise _fail("/seed", "must be an integer")


@dataclass(frozen=True)
class ExperimentSpec:
    """An experiment request; building one validates it (see check_document)."""

    kind: str
    chain: dict | None = None
    configs: tuple[dict, ...] = ()
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        check_document(vars(self))
        if self.kind not in KINDS:
            raise _fail("/kind", f"must be one of {', '.join(KINDS)}")
        if self.chain is None and self.kind != "verify":
            raise _fail("/chain", "required for every kind but verify")
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "params", dict(self.params))

    def resolve_chain(self) -> SubgroupChain | None:
        if self.chain is None:
            return None
        return make_chain(self.chain["rank"], self.chain["scales"])


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    spec: dict
    items: tuple[dict, ...]
    passed: bool
    wall_time_ms: float | None = None


def spec_from_json(doc: Any) -> ExperimentSpec:
    """The spec of a JSON experiment document, which checks itself."""
    if not isinstance(doc, dict):
        raise _fail("", "spec must be an object")
    fields = ("chain", "configs", "params", "seed")
    return ExperimentSpec(doc.get("kind"), **{key: doc[key] for key in fields if key in doc})


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


def _run_density(spec: ExperimentSpec) -> list[dict]:
    chain = spec.resolve_chain()
    params = spec.params
    if "cosets" in params:
        cs = CosetSet.make(chain, params["cosets"]["level"], params["cosets"]["reps"])
        est = banach_density_exact(cs)
        return [interval_item(est)]
    if not spec.configs:
        raise _fail("/configs", "density needs a configuration or a coset set")
    x = config_from_descriptor(spec.configs[0], chain)
    letter = str(params.get("letter", "1"))
    level = params.get("level", 1)
    radius = params.get("window", chain.scale(level))

    def member(g):
        v = evaluate(x, g)
        return None if v is None else v == letter

    est = banach_density_windowed(member, chain, level, radius)
    return [interval_item(est)]


def _run_distance(spec: ExperimentSpec) -> list[dict]:
    chain = spec.resolve_chain()
    if len(spec.configs) < 2:
        raise _fail("/configs", "distance needs two configurations")
    x = config_from_descriptor(spec.configs[0], chain)
    z = config_from_descriptor(spec.configs[1], chain)
    metric = spec.params.get("metric", PARAM_DEFAULTS["metric"])
    level = spec.params.get("level")
    radius = spec.params.get("window")
    if metric == "dstar":
        rep = dstar_distance(x, z, level, radius, chain)
        item = {"metric": "dstar", "basis": rep.basis, **interval_item(rep.value)}
        return [item]
    if metric == "dwprime":
        rep = dw_prime_estimate(x, z, level, radius, chain)
        item = {"metric": "dwprime", "basis": rep.basis, **interval_item(rep.value)}
        return [item]
    if metric == "weyl":
        n = spec.params.get("block_level", 1)
        bound = weyl_upper_bound(x, z, chain.domain(n), radius or 0)
        item = {
            "metric": "weyl",
            "window_proxy": bound.window_proxy,
            "label": "window proxy for an upper bound",
        }
        if bound.exact is not None:
            item["exact"] = bound.exact
        return [item]
    if metric == "besicovitch":
        lo = spec.params.get("level_lo", 1)
        hi = spec.params.get("level_hi", chain.depth)
        trace = besicovitch_estimate(x, z, chain, lo, hi)
        items = [
            {"metric": "besicovitch", "level": n, "average": avg}
            for n, avg in zip(trace.levels, trace.averages)
        ]
        items.append(
            {"metric": "besicovitch", "level": "limsup-proxy", "average": trace.running_max}
        )
        return items
    raise _fail("/params/metric", "must be dstar|weyl|besicovitch|dwprime")


def _run_entropy(spec: ExperimentSpec) -> list[dict]:
    chain = spec.resolve_chain()
    if not spec.configs:
        raise _fail("/configs", "entropy needs a configuration")
    x = config_from_descriptor(spec.configs[0], chain)
    lo = spec.params.get("level_lo", 1)
    hi = spec.params.get("level_hi", spec.params.get("level", 1))
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
    return items


def _box_sequence_from_params(chain, params) -> list:
    kind = params.get("boxes", PARAM_DEFAULTS["boxes"])
    levels = range(params.get("level_lo", 1), params.get("level_hi", 1) + 1)
    if kind == "chain":
        return [(n, chain.domain(n)) for n in levels]
    if kind == "linear":
        return [(n, box(1, n + 1)) for n in levels]
    if kind == "geometric":
        eps = Fraction(str(params.get("eps", "1/2")))
        lengths = geometric_box_lengths(eps, max(levels))
        return [(n, box(1, lengths[n])) for n in levels]
    raise _fail("/params/boxes", "must be chain|linear|geometric")


def _run_omega(spec: ExperimentSpec) -> list[dict]:
    chain = spec.resolve_chain()
    if not spec.configs:
        raise _fail("/configs", "omega needs a configuration")
    x = config_from_descriptor(spec.configs[0], chain)
    pairs = _box_sequence_from_params(chain, spec.params)
    profile = omega_profile(x, [F for _, F in pairs])
    items = []
    for i, (n, _) in enumerate(pairs):
        item = {"level": n, "size": profile.sizes[i]}
        for atom, w in profile.measures[i].atoms:
            item[f"weight[{atom}]"] = w
        if i > 0:
            item["consecutive_dp"] = profile.steps[i - 1]
            item["nesting_bound"] = profile.step_bounds[i - 1]
            item["within_bound"] = profile.steps[i - 1] <= profile.step_bounds[i - 1]
        items.append(item)
    return items


def _run_path(spec: ExperimentSpec) -> list[dict]:
    chain = spec.resolve_chain()
    depth = spec.params.get("depth", chain.depth)
    grid = [Fraction(str(t)) for t in spec.params.get("t_grid", ["0", "1/2", "1"])]
    paths = [psi_path(t, chain, depth) for t in grid]
    items = []
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
            items.append(
                {
                    "s": min(s, t),
                    "t": max(s, t),
                    "dstar_upper": rep.value.upper,
                    "lipschitz_bound": bound,
                    "passed": good,
                }
            )
    return items


def _run_krieger(spec: ExperimentSpec) -> list[dict]:
    chain = spec.resolve_chain()
    if "depth" in spec.params:
        depth = spec.params["depth"]
        if depth < 1 or depth > chain.depth:
            raise _fail("/params/depth", f"must lie in 1..{chain.depth}")
        chain = make_chain(chain.rank, chain.scales[:depth])
    gamma = Fraction(str(spec.params.get("gamma", "1/2")))
    letters = spec.params.get("alphabet_size", PARAM_DEFAULTS["alphabet_size"])
    alphabet = Alphabet(tuple(chr(ord("a") + i) for i in range(letters)))
    stages = spec.params.get("stages", PARAM_DEFAULTS["stages"])
    result = krieger_construct(gamma, chain, alphabet, stages)
    items = []
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
        items.append(item)
    return items


def _run_toeplitz(spec: ExperimentSpec) -> list[dict]:
    chain = spec.resolve_chain()
    action = spec.params.get("action", "profile")
    if action == "interpolate":
        if len(spec.configs) < 2:
            raise _fail("/configs", "interpolate needs two coset tables")
        z = config_from_descriptor(spec.configs[0], chain)
        zp = config_from_descriptor(spec.configs[1], chain)
        t = Fraction(str(spec.params.get("t", "1/2")))
        u = toeplitz_interpolate(z, zp, t, spec.params.get("depth"))
        return [{"t": t, "table": config_descriptor(u)}]
    if not spec.configs:
        raise _fail("/configs", "toeplitz needs a configuration")
    x = config_from_descriptor(spec.configs[0], chain)
    N = spec.params.get("depth", chain.depth)
    if action == "verify":
        rep = verify_skeleton(x, N)
        item = {
            "depth": rep.depth,
            "nonempty": list(rep.nonempty),
            "coverage": rep.coverage,
            "separation_failures": [[n, list(g)] for n, g in rep.separation_failures],
            "passed": rep.all_nonempty and rep.separation_ok,
        }
        return [item]
    if action == "profile":
        prof = regularity_profile(x, N)
        items = [
            {"level": n, "per_density": d}
            for n, d in zip(prof.levels, prof.densities)
        ]
        items.append({"regular": prof.regular, "tolerance": prof.tolerance})
        return items
    if action == "approx":
        n = spec.params.get("level", N)
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
        return [item]
    raise _fail("/params/action", "must be verify|profile|approx|interpolate")


def _run_verify(spec: ExperimentSpec) -> list[dict]:
    name = spec.params.get("suite", PARAM_DEFAULTS["suite"])
    available = suites.SUITES
    # a tuple test compares by ==, so an unhashable value is refused, not raised on
    if name not in ("all", *available):
        raise _fail("/params/suite", f"must be one of {', '.join(available)} or all")
    chosen = list(available) if name == "all" else [name]
    return [
        {"suite": suite_name, **item}
        for suite_name in chosen
        for item in available[suite_name](seed=spec.seed)
    ]


_RUNNERS: dict[str, Callable[[ExperimentSpec], list[dict]]] = {
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
    """Dispatch a spec to its runner and decide the verdict; deterministic
    for a fixed spec.  The report passes iff every VERDICTS field of every
    item is true."""
    start = time.monotonic()
    raw = _RUNNERS[spec.kind](spec)
    elapsed = (time.monotonic() - start) * 1000.0
    # the in-memory items equal what the JSON emitter writes, read back
    items = tuple(from_jsonable(jsonable(item)) for item in raw)
    return ExperimentReport(
        kind=spec.kind,
        spec=jsonable(vars(spec)),
        items=items,
        passed=all(item[key] for item in items for key in VERDICTS if key in item),
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
