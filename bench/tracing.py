"""Out-of-library tracing for the benchmark's traced run.

`install` wraps the public functions of every layer module of `amenshift`
and rebinds each wrapped name in every module of the package that imported
it (``from .configs import evaluate`` leaves a second reference in
`metrics`, `measures`, `entropy`, `toeplitz` and `harness`).  Nothing under
``src/`` changes, and the untraced run never imports this module.

A *span* records name, start, end, parent span and op id; its self time is
its duration minus the time covered by its children.  Point functions
(`configs.evaluate`, `ToeplitzTable.lookup`) are called hundreds of
thousands of times per op, so they get no span per call: their count and
time are aggregated into the enclosing span and into per-name totals, and
their time is excluded from the enclosing span's self time.

Spans and counters live in memory; the worker writes them out at exit.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = (
    "groups",
    "configs",
    "densities",
    "metrics",
    "measures",
    "entropy",
    "toeplitz",
    "harness",
    "cli",
    "suites",
)

# Element arithmetic and per-point helpers run inside every inner loop and
# are not layer boundaries; their time stays in the caller's self time.
UNWRAPPED = {
    "groups.add",
    "groups.sub",
    "groups.neg",
    "groups.aselem",
    "groups.identity",
    "configs.require_known",
    "measures.discrete_metric",
}

HOT = ("configs.evaluate", "configs.lookup")


class Tracer:
    """In-memory spans, hot-call aggregates and counters of one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.op_id: str | None = None
        # frames: [child seconds, span index or None, hot aggregates of the span]
        self._stack: list[list] = []
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.hot: dict[str, list] = {name: [0, 0.0, 0] for name in HOT}  # calls, self s, Unknown
        self.counters: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(counters, arguments, result) runs after it
        with the call's arguments bound by name, defaults included."""
        tracer = self
        totals = self.totals[name]
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [0.0, index, {}]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self_s = duration - frame[0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += self_s
                tracer.spans[index] = (name, start, end, parent, tracer.op_id, self_s, frame[2] or None)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer.counters, bound.arguments, result)
            return result

        return wrapper

    def hot_call(self, name: str, fn, count_unknown: bool = False):
        """Wrap a point function: aggregated counts and time, no span per call."""
        tracer = self
        agg = self.hot[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            enclosing = stack[-1] if stack else None
            frame = [0.0, None, enclosing[2] if enclosing else None]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if enclosing is not None:
                    enclosing[0] += duration
                self_s = duration - frame[0]
                agg[0] += 1
                agg[1] += self_s
                if frame[2] is not None:
                    per_span = frame[2].setdefault(name, [0, 0.0])
                    per_span[0] += 1
                    per_span[1] += self_s
            if count_unknown and result is None:
                agg[2] += 1
            return result

        return wrapper

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer module, spans and hot calls together."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self_s * 1000.0
        for name, (_, self_s, _) in self.hot.items():
            out[name.split(".", 1)[0]] += self_s * 1000.0
        return out


# ---------------------------------------------------------------------------
# counters computed from a call's inputs and result
# ---------------------------------------------------------------------------


def _observe_windowed(counters, a, result):
    chain = a["chain"]
    counters["densities.windowed.points"] += (2 * a["radius"] + 1) ** chain.rank * chain.domain_size(a["n"])


def _observe_dstar(counters, a, result):
    if result.basis == "exact-coset":
        counters["metrics.dstar.exact_calls"] += 1
        return
    chain = a["chain"]
    for side in (a["x"], a["z"]):
        if chain is None and hasattr(side, "chain"):
            chain = side.chain
    counters["metrics.dstar.window_points"] += (2 * a["radius"] + 1) ** chain.rank * chain.domain_size(a["n"])


def _observe_prokhorov(counters, a, result):
    """max_support and subset_checks = 2^n · |thresholds|, computed from the inputs."""
    support = sorted(set(a["mu"].support) | set(a["nu"].support), key=repr)
    metric = a["metric"]
    n = len(support)
    thresholds = {Fraction(0)} | {
        Fraction(metric(support[i], support[j])) for i in range(n) for j in range(i + 1, n)
    }
    counters["measures.prokhorov.max_support"] = max(counters["measures.prokhorov.max_support"], n)
    counters["measures.prokhorov.subset_checks"] += 2**n * len(thresholds)


def _observe_pattern_set(counters, a, result):
    x = a["x"]
    if result.exact:
        from amenshift.configs import Periodic

        level = x.level if isinstance(x, Periodic) else x.max_level
        windows = x.chain.domain_size(level)
    else:
        windows = (2 * result.window_radius + 1) ** x.rank
    counters["entropy.pattern_set.windows"] += windows
    counters["entropy.pattern_set.distinct"] += len(result)


def _observe_emit(counters, a, result):
    counters["harness.emit.bytes"] += len(result)


OBSERVERS = {
    "densities.banach_density_windowed": _observe_windowed,
    "metrics.dstar_distance": _observe_dstar,
    "measures.prokhorov_distance": _observe_prokhorov,
    "entropy.pattern_set": _observe_pattern_set,
    "harness.emit": _observe_emit,
}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _rebind(replacements: dict[int, object]) -> None:
    """Point every module-level reference to a wrapped function at its wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "amenshift" and not mod_name.startswith("amenshift."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module, plus the two table
    methods and the CLI's parse steps."""
    import importlib

    from amenshift import cli, configs, suites

    replacements: dict[int, object] = {}
    suite_names = {id(fn): key for key, fn in suites.SUITES.items()}
    for layer in LAYERS:
        module = importlib.import_module(f"amenshift.{layer}")
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in UNWRAPPED:
                continue
            if name == "configs.evaluate":
                wrapper = tracer.hot_call(name, fn, count_unknown=True)
            elif id(fn) in suite_names:
                wrapper = tracer.span(f"suites.{suite_names[id(fn)]}", fn)
            else:
                wrapper = tracer.span(name, fn, OBSERVERS.get(name))
            replacements[id(fn)] = wrapper
    for key, fn in list(suites.SUITES.items()):
        suites.SUITES[key] = replacements[id(fn)]

    # cli.parse: building the parser, parse_args on it, and spec assembly
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.span("cli.parse_args", parser.parse_args)
        return parser

    replacements[id(build_parser)] = tracer.span("cli.build_parser", traced_build_parser)
    replacements[id(cli._spec_from_args)] = tracer.span("cli._spec_from_args", cli._spec_from_args)
    _rebind(replacements)

    table = configs.ToeplitzTable
    table.lookup = tracer.hot_call("configs.lookup", table.lookup)
    table.__post_init__ = tracer.span("configs.table_build", table.__post_init__)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric prefix -> span names whose calls and self times it sums
GROUPS = {
    "groups.make_chain": ["groups.make_chain"],
    "configs.table_build": ["configs.table_build"],
    "configs.per_set": ["configs.per_set", "configs.per_set_letter"],
    "configs.disagreement_set": ["configs.disagreement_set"],
    "densities.windowed": ["densities.banach_density_windowed"],
    "metrics.dstar": ["metrics.dstar_distance"],
    "metrics.block": [
        "metrics.delta_star_exact",
        "metrics.weyl_upper_bound",
        "metrics.besicovitch_estimate",
        "metrics.shearer_values",
    ],
    "measures.prokhorov": ["measures.prokhorov_distance"],
    "measures.empirical": ["measures.empirical_measure"],
    "measures.hausdorff": ["measures.hausdorff_distance"],
    "entropy.pattern_set": ["entropy.pattern_set"],
    "entropy.search": ["entropy.separated_max", "entropy.spanning_min"],
    "entropy.comparators": [
        "entropy.es_entropy",
        "entropy.binomial_tail",
        "entropy.es_binomial_bound_holds",
        "entropy.pattern_counting_bound_holds",
        "entropy.entropy_continuity_bound",
    ],
    "toeplitz.verify_skeleton": ["toeplitz.verify_skeleton"],
    "toeplitz.psi_path": ["toeplitz.psi_path"],
    "toeplitz.interpolate": ["toeplitz.toeplitz_interpolate"],
    "toeplitz.krieger": ["toeplitz.krieger_construct"],
    "toeplitz.regularity": ["toeplitz.regularity_profile", "toeplitz.periodic_approximation"],
    "harness.run": ["harness.run"],
    "harness.emit": ["harness.emit"],
    "cli.parse": ["cli.build_parser", "cli.parse_args", "cli._spec_from_args"],
}

CALLS = (
    "groups.make_chain",
    "configs.table_build",
    "configs.per_set",
    "configs.disagreement_set",
    "densities.windowed",
    "metrics.dstar",
    "measures.prokhorov",
    "measures.empirical",
    "entropy.pattern_set",
    "entropy.search",
    "toeplitz.verify_skeleton",
    "toeplitz.psi_path",
)

# the 13 bundled suites at the commit that defined the benchmark; fixed here
# so the metric set does not follow later edits of suites.SUITES
SUITE_NAMES = (
    "chain",
    "coset-density",
    "psi",
    "path-connect",
    "krieger",
    "entropy-counting",
    "es-binomial",
    "prokhorov",
    "omega-split",
    "omega-connected",
    "regular",
    "shearer",
    "sandwich",
)

UNITS = {
    "measures.prokhorov.subset_checks": "computed_count",
    "harness.emit.bytes": "bytes",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac, from one traced run."""
    values: dict[str, float] = {}
    for prefix, names in GROUPS.items():
        if prefix in CALLS:
            values[f"{prefix}.calls"] = sum(tracer.totals[n][0] for n in names if n in tracer.totals)
        values[f"{prefix}.self_ms"] = sum(tracer.totals[n][2] for n in names if n in tracer.totals) * 1000.0
    for hot in HOT:
        calls, self_s, _ = tracer.hot[hot]
        values[f"{hot}.calls"] = calls
        values[f"{hot}.self_ms"] = self_s * 1000.0
    calls, _, unknown = tracer.hot["configs.evaluate"]
    values["configs.evaluate.unknown_frac"] = unknown / calls if calls else 0.0
    c = tracer.counters
    values["densities.windowed.points"] = c["densities.windowed.points"]
    values["metrics.dstar.window_points"] = c["metrics.dstar.window_points"]
    dstar_calls = values["metrics.dstar.calls"]
    values["metrics.dstar.exact_frac"] = c["metrics.dstar.exact_calls"] / dstar_calls if dstar_calls else 0.0
    values["measures.prokhorov.max_support"] = c["measures.prokhorov.max_support"]
    values["measures.prokhorov.subset_checks"] = c["measures.prokhorov.subset_checks"]
    windows = c["entropy.pattern_set.windows"]
    values["entropy.pattern_set.windows"] = windows
    values["entropy.pattern_set.distinct_frac"] = c["entropy.pattern_set.distinct"] / windows if windows else 0.0
    values["harness.emit.bytes"] = c["harness.emit.bytes"]
    for name in SUITE_NAMES:
        entry = tracer.totals.get(f"suites.{name}")
        values[f"suites.{name}.ms"] = entry[1] * 1000.0 if entry else 0.0
    for layer, ms in tracer.layer_self_ms().items():
        values[f"layer.{layer}.self_ms"] = ms
    return values
