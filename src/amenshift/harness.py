"""Experiment specs, runners, and deterministic JSON/CSV emitters.

A spec names an experiment kind, a chain, configuration descriptors and
parameters, and is checked when built and again when run; errors carry
JSON-pointer paths.
Runners return only their items.  An item records each asserted inequality
with both sides' values and a flag named in ``VERDICTS``, and ``run``
decides the verdict: a report passes iff every such flag is true.

A report holds its runner's values as returned (Fractions, floats, lists,
dicts, letters as given), and ``emit`` encodes them once.  Identical specs
(including the seed) produce byte-identical documents: rationals are
serialized as "p/q" strings in JSON and never as floats; CSV uses
12-significant-digit decimals plus a serialization-exactness column; wall
time is reported as null unless timing is explicitly requested.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from . import suites
from .configs import (
    Alphabet,
    CosetSet,
    _geometric_lengths,
    _is_element,
    _is_int,
    config_descriptor,
    config_from_descriptor,
    per_set,
)
from .densities import IntervalEstimate, _windowed, banach_density_exact
from .entropy import entropy_estimates
from .errors import SpecError
from .groups import SubgroupChain, box, make_chain
from .measures import omega_profile
from .metrics import besicovitch_estimate, dstar_distance, weyl_upper_bound
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


def _escape(key: Any) -> str:
    """A key as one JSON-pointer token."""
    return str(key).replace("~", "~0").replace("/", "~1")


def _is_array(value: Any) -> bool:
    # JSON arrays decode to lists; a spec built in Python may hold tuples
    return isinstance(value, (list, tuple))


def _rational(value: Any) -> Fraction | None:
    """The rational a param value spells (an integer, a decimal or "p/q"), else None."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        return None


# each param type's test of a value, and what a value failing it must be
_TYPES = {
    "int": (lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
    "rational": (lambda v: _rational(v) is not None, 'a rational, an integer or a "p/q" string'),
    "unit": (lambda v: _rational(v) is not None and 0 <= _rational(v) <= 1, "a rational in [0, 1]"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "unit array": (_is_array, "an array"),
    "cosets": (lambda v: isinstance(v, dict), "an object with a level and reps"),
}


class Param(NamedTuple):
    """One row of the param table: its type (enum or a key of _TYPES), the
    kinds whose runners read it, its flag's help, its constant default and its
    enum choices.  The CLI writes an ``echoed`` default into the spec it builds,
    and ``flag`` replaces the flag named after the key."""

    type: str
    kinds: tuple[str, ...]
    help: str
    default: Any = None
    choices: tuple[str, ...] = ()
    echoed: bool = False
    flag: str | None = None

    def check(self, value: Any, pointer: str) -> None:
        """Raise SpecError at the pointer unless the value has this param's type."""
        if self.type == "enum":
            # a tuple test compares by ==, so an unhashable value is refused, not raised on
            valid, kind = self.choices.__contains__, f"one of {', '.join(self.choices)}"
        else:
            valid, kind = _TYPES[self.type]
        if not valid(value):
            raise _fail(pointer, f"must be {kind}")
        if self.type == "unit array":
            for i, t in enumerate(value):
                Param("unit", (), "").check(t, f"{pointer}/{i}")
        if self.type == "cosets":
            Param("int", (), "").check(value.get("level"), f"{pointer}/level")
            reps = value.get("reps")
            if not _is_array(reps) or not all(map(_is_element, reps)):
                raise _fail(f"{pointer}/reps", "must be an array of integers or integer arrays")


# every param a spec may hold, in the order of the params echo of a spec the
# CLI builds from flags; a default the runner derives from the chain (a window
# of q_level, a depth or level_hi of the chain's depth) is stated in the runner
PARAMS = {
    "depth": Param("int", ("path", "krieger", "toeplitz"), "construction / verification depth"),
    "window": Param("int", ("density", "distance", "entropy"), "translate window radius", 0),
    "level": Param("int", ("density", "distance", "entropy", "toeplitz"), "Følner level n", 1),
    "level_lo": Param("int", ("distance", "entropy", "omega"), "first Følner level", 1),
    "level_hi": Param("int", ("distance", "entropy", "omega"), "last Følner level", 1),
    "letter": Param("string", ("density",), "letter whose positions form the set A", "1"),
    "metric": Param(
        "enum", ("distance",), "pseudometric", "dstar", ("dstar", "weyl", "besicovitch", "dwprime"),
        echoed=True,
    ),
    "block_level": Param("int", ("distance",), "level of the averaging block F for weyl", 1),
    "boxes": Param(
        "enum", ("omega",), "nested box sequence", "chain", ("chain", "linear", "geometric"),
        echoed=True,
    ),
    "eps": Param("rational", ("omega",), "geometric ratio parameter (rational)", "1/2"),
    "gamma": Param("rational", ("krieger",), "entropy fraction in (0,1), rational", "1/2"),
    "alphabet_size": Param("int", ("krieger",), "number of letters", 2, echoed=True),
    "stages": Param("int", ("krieger",), "number of construction stages", 2, echoed=True),
    "action": Param(
        "enum", ("toeplitz",), "table diagnostic", "profile",
        ("verify", "profile", "approx", "interpolate"), flag="action",
    ),
    "t": Param("unit", ("toeplitz",), "interpolation parameter (rational)", "1/2"),
    "suite": Param("enum", ("verify",), "suite", "all", (*suites.SUITES, "all"), echoed=True),
    "t_grid": Param(
        "unit array", ("path",), "comma-separated rationals in [0,1]", ("0", "1/2", "1")
    ),
    "cosets": Param(
        "cosets", ("density",), "comma-separated coset representatives (exact mode)", flag="--reps"
    ),
}

# the kinds whose spec needs no chain
CHAINLESS_KINDS = ("verify",)

# the keys of a spec document
SPEC_KEYS = ("kind", "chain", "configs", "params", "seed")

# item fields that record an asserted inequality
VERDICTS = ("passed", "within_bound", "gamma_certificate")


def check_document(doc: Any, kind: Any = None) -> None:
    """Raise SpecError, at a JSON pointer, where a document is malformed; its
    params are checked for the given kind, by default its own.  Whether the
    kind is known and the chain present is left to ExperimentSpec."""
    if not isinstance(doc, dict):
        raise _fail("", "spec must be an object")
    for key in doc:
        if key not in SPEC_KEYS:
            raise _fail("/" + _escape(key), "unknown key")
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
    kind = doc.get("kind") if kind is None else kind
    for key, value in params.items():
        pointer = "/params/" + _escape(key)
        row = PARAMS.get(key)
        if row is None:
            raise _fail(pointer, "unknown param")
        row.check(value, pointer)
        if kind in KINDS and kind not in row.kinds:
            raise _fail(pointer, f"not read by {kind}, only by {', '.join(row.kinds)}")
    if not _is_int(doc.get("seed", 0)):
        raise _fail("/seed", "must be an integer")


@dataclass(frozen=True)
class ExperimentSpec:
    """An experiment request; building one validates it (see check), and run
    checks it again, so a spec changed after it was built is refused."""

    kind: str
    chain: dict | None = None
    configs: tuple[dict, ...] = ()
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        # its own copies: changing the caller's dicts leaves the spec as checked
        for key in ("chain", "configs", "params"):
            object.__setattr__(self, key, _own(getattr(self, key)))
        self.check()
        object.__setattr__(self, "configs", tuple(self.configs))

    def check(self) -> None:
        """Raise SpecError, at a JSON pointer, where this spec breaks a rule."""
        check_document(vars(self))
        if self.kind not in KINDS:
            raise _fail("/kind", f"must be one of {', '.join(KINDS)}")
        if self.chain is None and self.kind not in CHAINLESS_KINDS:
            raise _fail("/chain", f"required for every kind but {', '.join(CHAINLESS_KINDS)}")

    def param(self, key: str, default: Any = None) -> Any:
        """A param's value: the spec's own, else the given default (one the
        runner derives from the chain), else the table's; rationals as Fractions."""
        row = PARAMS[key]
        value = self.params.get(key, row.default if default is None else default)
        if row.type in ("rational", "unit"):
            return Fraction(str(value))
        if row.type == "unit array":
            return [Fraction(str(t)) for t in value]
        return value

    def resolve_chain(self) -> SubgroupChain | None:
        return None if self.chain is None else make_chain(self.chain["rank"], self.chain["scales"])


@dataclass(frozen=True)
class ExperimentReport:
    """A run's verdict, its runner's items as returned and its spec's fields,
    both converted to JSON only by :func:`emit`."""

    kind: str
    spec: dict
    items: tuple[dict, ...]
    passed: bool
    wall_time_ms: float | None = None


# the immutable JSON leaves, which a spec's copy shares
_SHARED = (str, int, float, bool, type(None))


def _own(value: Any) -> Any:
    """A copy of a JSON tree: dicts, lists and tuples rebuilt, str, int,
    float, bool and None shared, any other value deep-copied."""
    t = type(value)
    if t is dict:
        return {k: _own(v) for k, v in value.items()}
    if t is list or t is tuple:
        return t(map(_own, value))
    return value if t in _SHARED else copy.deepcopy(value)


def spec_from_json(doc: Any) -> ExperimentSpec:
    """The spec of a JSON experiment document, which checks itself; a key
    that is no field of a spec is refused."""
    check_document(doc)
    fields = {key: doc[key] for key in SPEC_KEYS if key in doc and key != "kind"}
    return ExperimentSpec(doc.get("kind"), **fields)


# ---------------------------------------------------------------------------
# value serialization
# ---------------------------------------------------------------------------

_RAT_FORMAT = "{}/{}"


def jsonable(value: Any) -> Any:
    """A report value as a JSON tree, exact: a Fraction becomes the string
    "p/q", a float is rounded to 12 significant digits, a tuple becomes a
    list, and dicts and lists are converted item by item (keys as they are)."""
    if isinstance(value, Fraction):
        return _RAT_FORMAT.format(value.numerator, value.denominator)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


_encode = json.encoder.encode_basestring_ascii

# the text of each exact leaf type: jsonable's conversion, then json's
_LEAVES: dict[type, Callable[[Any], str]] = {
    str: _encode,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
    float: lambda v: json.dumps(float(f"{v:.12g}")),
    Fraction: lambda v: _encode(_RAT_FORMAT.format(v.numerator, v.denominator)),
}


def _write(value: Any, out: list, newline: str) -> None:
    """Append the text of ``json.dumps(jsonable(value), indent=2)`` to out, in
    one walk: an exact leaf type through _LEAVES, a dict or list item by item
    at the next indent, and any other value as jsonable and then json take it."""
    t = type(value)
    if t is dict or t is list or t is tuple:
        if not value:
            out.append("{}" if t is dict else "[]")
            return
        inner = newline + "  "
        sep = ("{" if t is dict else "[") + inner
        if t is dict:
            for k, v in value.items():
                out.append(sep)
                # a key json writes as text, or json's own TypeError
                out.append(_encode(k) if type(k) is str else json.dumps({k: 0})[1:-4])
                out.append(": ")
                leaf = _LEAVES.get(type(v))
                if leaf is None:
                    _write(v, out, inner)
                else:
                    out.append(leaf(v))
                sep = "," + inner
        else:
            for v in value:
                out.append(sep)
                leaf = _LEAVES.get(type(v))
                if leaf is None:
                    _write(v, out, inner)
                else:
                    out.append(leaf(v))
                sep = "," + inner
        out.append(newline + ("}" if t is dict else "]"))
    elif t in _LEAVES:
        out.append(_LEAVES[t](value))
    else:
        # json escapes every newline inside a string, so each raw one is layout
        out.append(json.dumps(jsonable(value), indent=2).replace("\n", newline))


def _json_text(value: Any) -> str:
    """``json.dumps(jsonable(value), indent=2)``, written in one walk."""
    out: list[str] = []
    _write(value, out, "\n")
    return "".join(out)


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


def _level_range(spec: ExperimentSpec, hi_default: int | None = None) -> range:
    """The levels level_lo..level_hi, level_hi by default the given one, else
    the table's; SpecError at /params/level_hi when the range is empty."""
    lo, hi = spec.param("level_lo"), spec.param("level_hi", hi_default)
    if hi < lo:
        raise _fail("/params/level_hi", f"{hi} is below level_lo {lo}: the level range is empty")
    return range(lo, hi + 1)


def _configs(spec: ExperimentSpec, chain, needs: str, count: int = 1) -> list:
    """A spec's first count configurations over the chain; SpecError if it has fewer."""
    if len(spec.configs) < count:
        raise _fail("/configs", needs)
    return [config_from_descriptor(desc, chain) for desc in spec.configs[:count]]


def _run_density(spec: ExperimentSpec) -> list[dict]:
    """Banach density of a coset set or a letter set"""
    chain = spec.resolve_chain()
    if "cosets" in spec.params:
        if spec.configs:
            raise _fail("/configs", "density reads a coset set or a configuration, not both")
        cosets = CosetSet.make(chain, spec.params["cosets"]["level"], spec.params["cosets"]["reps"])
        return [interval_item(banach_density_exact(cosets))]
    [x] = _configs(spec, chain, "density needs a configuration or a coset set")
    letter = spec.param("letter")
    if letter not in x.alphabet:
        letters = ", ".join(map(repr, x.alphabet.letters))
        raise _fail("/params/letter", f"{letter!r} is not a letter of the configuration: {letters}")
    level = spec.param("level")
    radius = spec.param("window", chain.scale(level))

    def read(lo, sides):
        return [None if v is None else v == letter for v in x._read(lo, sides)]

    return [interval_item(_windowed(read, chain, level, radius))]


def _run_distance(spec: ExperimentSpec) -> list[dict]:
    """pseudometric between two configurations"""
    chain = spec.resolve_chain()
    x, z = _configs(spec, chain, "distance needs two configurations", 2)
    metric = spec.param("metric")
    if metric in ("dstar", "dwprime"):
        # with the discrete letter metric D_W' is D*; the item names which was asked for;
        # a coset pair needs no level or window, and another pair needs both
        rep = dstar_distance(x, z, spec.params.get("level"), spec.params.get("window"), chain)
        return [{"metric": metric, "basis": rep.basis, **interval_item(rep.value)}]
    if metric == "weyl":
        n = spec.param("block_level")
        bound = weyl_upper_bound(x, z, chain.domain(n), spec.param("window"))
        item = {
            "metric": "weyl",
            "window_proxy": bound.window_proxy,
            "label": "window proxy for an upper bound",
        }
        if bound.exact is not None:
            item["exact"] = bound.exact
        return [item]
    levels = _level_range(spec, chain.depth)
    trace = besicovitch_estimate(x, z, chain, levels[0], levels[-1])
    items = [
        {"metric": "besicovitch", "level": n, "average": avg}
        for n, avg in zip(trace.levels, trace.averages)
    ]
    items.append({"metric": "besicovitch", "level": "limsup-proxy", "average": trace.running_max})
    return items


def _run_entropy(spec: ExperimentSpec) -> list[dict]:
    """pattern-counting entropy estimates"""
    chain = spec.resolve_chain()
    [x] = _configs(spec, chain, "entropy needs a configuration")
    # no window: a periodic configuration needs none, and another is refused
    radius = spec.params.get("window")
    return [
        {
            "level": est.level,
            "pattern_count": est.pattern_count,
            "estimate_nats": est.value,
            "saturated": est.saturated,
            "exactness": "exact" if est.exact else "window-lower-bound",
        }
        for est in entropy_estimates(x, _level_range(spec, spec.param("level")), radius, chain)
    ]


def _run_omega(spec: ExperimentSpec) -> list[dict]:
    """empirical-measure trace along nested boxes"""
    chain = spec.resolve_chain()
    [x] = _configs(spec, chain, "omega needs a configuration")
    levels = _level_range(spec)
    # the boxes are built as the trace reads them, so it stops at the first
    # Unknown cell before building a larger box
    if spec.param("boxes") == "chain":
        sets = (chain.domain(n) for n in levels)
    elif spec.param("boxes") == "linear":
        sets = (box(1, n + 1) for n in levels)
    else:
        lengths = zip(range(levels.stop), _geometric_lengths(spec.param("eps")))
        sets = (box(1, length) for n, length in lengths if n in levels)
    profile = omega_profile(x, sets)
    items = []
    for i, n in enumerate(levels):
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
    """the binary configuration path and its Lipschitz trace"""
    chain = spec.resolve_chain()
    depth = spec.param("depth", chain.depth)
    grid = spec.param("t_grid")
    paths = [psi_path(t, chain, depth) for t in grid]
    items = []
    for t, p in zip(grid, paths):
        est = entropy_estimates(p.table, (1,))[0] if p.table.fully_resolved() else None
        item = {"t": t, "d_density": p.d_density, "terminated": p.terminated}
        if est is not None:
            item["entropy_nats_level1"] = est.value
        items.append(item)
    slack = Fraction(1, chain.domain_size(depth))
    for i, (s, ps) in enumerate(zip(grid, paths)):
        for t, pt in zip(grid[i + 1 :], paths[i + 1 :]):
            rep = dstar_distance(ps.table, pt.table)
            bound = abs(t - s) + slack
            items.append(
                {
                    "s": min(s, t),
                    "t": max(s, t),
                    "dstar_upper": rep.value.upper,
                    "lipschitz_bound": bound,
                    "passed": rep.value.upper <= bound,
                }
            )
    return items


def _run_krieger(spec: ExperimentSpec) -> list[dict]:
    """positive-entropy table construction"""
    chain = spec.resolve_chain()
    if "depth" in spec.params:
        depth = spec.params["depth"]
        if depth < 1 or depth > chain.depth:
            raise _fail("/params/depth", f"must lie in 1..{chain.depth}")
        chain = make_chain(chain.rank, chain.scales[:depth])
    gamma = spec.param("gamma")
    alphabet = Alphabet(tuple(chr(ord("a") + i) for i in range(spec.param("alphabet_size"))))
    result = krieger_construct(gamma, chain, alphabet, spec.param("stages"))
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
            exponent = gamma * chain.domain_size(st.level)
            item["certificate_floor"] = float(len(alphabet)) ** float(exponent)
            item["gamma_certificate"] = meets_power_bound(st.window_count, exponent, len(alphabet))
            item["entropy_nats"] = result.entropy_at(st.index).value
        items.append(item)
    return items


def _run_toeplitz(spec: ExperimentSpec) -> list[dict]:
    """skeleton / regularity / approximation on a table"""
    chain = spec.resolve_chain()
    action = spec.param("action")
    if action == "interpolate":
        z, zp = _configs(spec, chain, "interpolate needs two coset tables", 2)
        t = spec.param("t")
        u = toeplitz_interpolate(z, zp, t, spec.param("depth"))
        return [{"t": t, "table": config_descriptor(u)}]
    [x] = _configs(spec, chain, "toeplitz needs a configuration")
    N = spec.param("depth", chain.depth)
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
        items = [{"level": n, "per_density": d} for n, d in zip(prof.levels, prof.densities)]
        items.append({"regular": prof.regular, "tolerance": prof.tolerance})
        return items
    n = spec.param("level", N)
    approx = periodic_approximation(x, n)
    rep = dstar_distance(approx, x)
    bound = 1 - per_set(x, n).density()
    item = {
        "level": n,
        "disagreement_upper": rep.value.upper,
        "bound": bound,
        "passed": rep.value.upper <= bound,
        "word": config_descriptor(approx)["word"],
    }
    return [item]


def _run_verify(spec: ExperimentSpec) -> list[dict]:
    """bundled verification suites"""
    name = spec.param("suite")
    chosen = list(suites.SUITES) if name == "all" else [name]
    return [{"suite": s, **item} for s in chosen for item in suites.SUITES[s](seed=spec.seed)]


RUNNERS: dict[str, Callable[[ExperimentSpec], list[dict]]] = {
    "density": _run_density,
    "distance": _run_distance,
    "entropy": _run_entropy,
    "omega": _run_omega,
    "path": _run_path,
    "krieger": _run_krieger,
    "toeplitz": _run_toeplitz,
    "verify": _run_verify,
}
KINDS = tuple(RUNNERS)


def run(spec: ExperimentSpec, timing: bool = False) -> ExperimentReport:
    """Check a spec, dispatch it to its runner and decide the verdict;
    deterministic for a fixed spec.  The report passes iff every VERDICTS field of every
    item is true."""
    spec.check()
    start = time.monotonic()
    items = tuple(RUNNERS[spec.kind](spec))
    elapsed = (time.monotonic() - start) * 1000.0
    return ExperimentReport(
        kind=spec.kind,
        spec=dict(vars(spec)),
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
            "spec": report.spec,
            "items": report.items,
            "passed": report.passed,
            "wall_time_ms": report.wall_time_ms,
        }
        return (_json_text(doc) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        columns = list(dict.fromkeys(key for item in report.items for key in item))
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
                elif isinstance(v, (list, tuple, dict)):
                    row.append(json.dumps(jsonable(v)))
                else:
                    row.append(v)
            row.append("exact" if exact_render else "inexact-serialization")
            writer.writerow(row)
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")
