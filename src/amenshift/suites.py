"""Bundled verification suites: seeded, deterministic desk-scale checks of
the package's checkable claims, runnable via ``amenshift verify``.

Each suite returns one item per checked instance with both sides of every
asserted inequality; randomized suites draw from ``random.Random(seed)`` so a
spec (including its seed) pins the byte-exact report.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .configs import (
    Alphabet,
    BINARY,
    CosetSet,
    Periodic,
    block_alternating,
    geometric_box_lengths,
    per_set,
)
from .densities import banach_density_exact, lower_banach_density
from .entropy import (
    SampledSystem,
    binomial_tail,
    entropy_estimate,
    es_binomial_bound_holds,
    pattern_counting_bound_holds,
    pattern_set,
    separated_max,
    spanning_min,
)
from .groups import box, make_chain
from .measures import (
    EmpiricalMeasure,
    empirical_measure,
    omega_profile,
    prokhorov_distance,
    total_variation,
)
from .metrics import dstar_distance, shearer_values
from .toeplitz import (
    krieger_construct,
    meets_power_bound,
    periodic_approximation,
    psi_path,
    regular_table,
    toeplitz_interpolate,
)


@dataclass(frozen=True)
class SuiteResult:
    items: list
    passed: bool


def _random_periodic(chain, level, rng, letters=("0", "1")) -> Periodic:
    alphabet = Alphabet(tuple(letters))
    word = {f: rng.choice(letters) for f in chain.domain(level)}
    return Periodic(chain, level, word, alphabet)


def suite_chain(seed: int = 0) -> SuiteResult:
    """Chain validity for the three stated scale families: make_chain checks
    the scales, which imply the four chain conditions for box domains, so
    surviving construction is the pass."""
    cases = [(1, [2, 4, 8, 16, 32, 64, 128, 256]), (1, [3, 6, 12, 24]), (2, [2, 4])]
    items = []
    ok = True
    for rank, scales in cases:
        try:
            chain = make_chain(rank, scales)
            items.append({"rank": rank, "scales": scales, "depth": chain.depth, "passed": True})
        except Exception as exc:  # pragma: no cover - a failure is a bug
            items.append({"rank": rank, "scales": scales, "error": str(exc), "passed": False})
            ok = False
    return SuiteResult(items, ok)


def suite_coset_density(seed: int = 0) -> SuiteResult:
    """Exact coset densities: |reps|/|F_n| and complement summing to 1."""
    rng = random.Random(seed)
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])
    items = []
    ok = True
    for n in range(1, 9):
        dom = chain.domain(n)
        level_ok = True
        for _ in range(50):
            size = rng.randrange(0, len(dom) + 1)
            reps = rng.sample(dom, size)
            cs = CosetSet.make(chain, n, reps)
            d = banach_density_exact(cs).value
            dc = banach_density_exact(cs.complement()).value
            low = lower_banach_density(cs).value
            level_ok = level_ok and d == Fraction(size, len(dom)) and d + dc == 1 and low == d
        items.append({"level": n, "instances": 50, "passed": level_ok})
        ok = ok and level_ok
    return SuiteResult(items, ok)


def suite_psi(seed: int = 0) -> SuiteResult:
    """Path endpoints, the 17-point Lipschitz grid at depth 8, spot values,
    and monotone nesting of the one-sides."""
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])
    depth = 8
    grid = [Fraction(k, 16) for k in range(17)]
    paths = {t: psi_path(t, chain, depth) for t in grid}
    slack = Fraction(1, chain.domain_size(depth))
    items = []
    ok = True

    zero, one = paths[Fraction(0)], paths[Fraction(1)]
    endpoint_ok = (
        not zero.d_cosets
        and zero.terminated
        and not one.e_cosets
        and one.terminated
    )
    items.append({"check": "endpoints", "passed": endpoint_ok})
    ok = ok and endpoint_ok

    worst = Fraction(0)
    lipschitz_ok = True
    nesting_ok = True
    one_sides = {t: [p.d_repset(n) for n in range(1, depth + 1)] for t, p in paths.items()}
    for s, t in combinations(grid, 2):
        d = dstar_distance(paths[s].table, paths[t].table).value.upper
        lipschitz_ok = lipschitz_ok and d <= (t - s) + slack
        worst = max(worst, d - (t - s))
        if not all(ds <= dt for ds, dt in zip(one_sides[s], one_sides[t])):
            nesting_ok = False
    items.append({"check": "lipschitz-grid", "worst_excess": worst, "passed": lipschitz_ok})
    items.append({"check": "monotone-nesting", "passed": nesting_ok})
    ok = ok and lipschitz_ok and nesting_ok

    half = paths[Fraction(1, 2)]
    spot_half = half.d_cosets == ((1, (0,)),) and dstar_distance(
        zero.table, half.table
    ).value.value == Fraction(1, 2)
    third = psi_path(Fraction(1, 3), chain, 4)
    spot_third = third.d_density == Fraction(5, 16)
    items.append({"check": "spot-t=1/2", "passed": spot_half})
    items.append({"check": "spot-t=1/3-depth4", "d_density": third.d_density, "passed": spot_third})
    ok = ok and spot_half and spot_third
    return SuiteResult(items, ok)


def suite_path_connect(seed: int = 0) -> SuiteResult:
    """Interpolation endpoints and domination by the Ψ disagreement."""
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])
    z = regular_table(chain, ("a", "b"))
    zp = regular_table(chain, ("b", "a"))
    grid = [Fraction(k, 16) for k in range(17)]
    tables = {t: toeplitz_interpolate(z, zp, t) for t in grid}
    items = []
    ends = (
        dstar_distance(tables[Fraction(1)], z).value.value == 0
        and dstar_distance(tables[Fraction(0)], zp).value.value == 0
    )
    items.append({"check": "endpoints", "passed": ends})
    ok = ends
    dominated = True
    for s, t in combinations(grid, 2):
        du = dstar_distance(tables[s], tables[t]).value.upper
        dpsi = dstar_distance(
            psi_path(s, chain).table, psi_path(t, chain).table
        ).value.upper
        dominated = dominated and du <= dpsi
    items.append({"check": "dominated-by-psi", "passed": dominated})
    return SuiteResult(items, ok and dominated)


def suite_krieger(seed: int = 0) -> SuiteResult:
    """Two-stage positive-entropy build at γ=1/2 with its exact certificates."""
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])
    gamma = Fraction(1, 2)
    result = krieger_construct(gamma, chain, BINARY, stages=2)
    items = []
    ok = True
    for st in result.stages[:-1]:
        size = chain.domain_size(st.level)
        cert = meets_power_bound(st.window_count, gamma * size, 2)
        entropy = result.entropy_at(st.index).value
        floor = float(gamma) * math.log(2) - math.log(2) / size
        good = cert and entropy >= floor
        ok = ok and good
        items.append(
            {
                "stage": st.index,
                "level": st.level,
                "window_count": st.window_count,
                "entropy_nats": entropy,
                "entropy_floor": floor,
                "passed": good,
            }
        )
    reserved_ok = all(
        result.claimed_cells_within(n) <= (1 - gamma) * chain.domain_size(result.levels[n])
        for n in range(len(result.levels))
    )
    items.append({"check": "reserved-cells-bound", "passed": reserved_ok})
    return SuiteResult(items, ok and reserved_ok)


def suite_entropy_counting(seed: int = 7) -> SuiteResult:
    """Exact pattern-count inequality for random periodic pairs at level 6."""
    rng = random.Random(seed)
    chain = make_chain(1, [2, 4, 8, 16, 32, 64])
    dom = chain.domain(6)
    items = []
    ok = True
    for i in range(20):
        x = _random_periodic(chain, 6, rng)
        flips = rng.randrange(1, 16)  # disagreement density flips/64 < 1/4
        cells = rng.sample(dom, flips)
        word = dict(x.word)
        for c in cells:
            word[c] = "1" if word[c] == "0" else "0"
        z = Periodic(chain, 6, word, x.alphabet)
        d = dstar_distance(x, z).value.value
        cx = len(pattern_set(x, 6))
        cz = len(pattern_set(z, 6))
        good = pattern_counting_bound_holds(cz, cx, d, 64, 2) and pattern_counting_bound_holds(
            cx, cz, d, 64, 2
        )
        ok = ok and good
        items.append({"instance": i, "density": d, "count_x": cx, "count_z": cz, "passed": good})
    return SuiteResult(items, ok)


def suite_es_binomial(seed: int = 0) -> SuiteResult:
    """Σ_{j≤⌊nε⌋} C(n,j) ≤ 2^{n·E_S(ε)} exactly, n ≤ 30, ε on the 0.05 grid."""
    items = []
    ok = True
    for n in range(1, 31):
        for k in range(1, 11):
            eps = Fraction(k, 20)
            good = es_binomial_bound_holds(n, eps)
            ok = ok and good
    spot = binomial_tail(20, Fraction(1, 4))
    items.append({"check": "grid-n<=30", "passed": ok})
    items.append({"check": "spot-n=20-eps=1/4", "lhs": spot, "passed": spot == 21700})
    return SuiteResult(items, ok and spot == 21700)


def suite_prokhorov(seed: int = 3) -> SuiteResult:
    """Spot values and metric axioms for the exact Prokhorov distance."""
    rng = random.Random(seed)
    items = []

    def random_measure():
        atoms = rng.sample("abcdef", rng.randrange(1, 5))
        weights = [rng.randrange(1, 6) for _ in atoms]
        total = sum(weights)
        return EmpiricalMeasure(
            tuple((a, Fraction(w, total)) for a, w in zip(atoms, weights))
        )

    spot = prokhorov_distance(
        EmpiricalMeasure.point_mass("a"), EmpiricalMeasure.point_mass("b")
    )
    items.append({"check": "delta-vs-delta", "value": spot, "passed": spot == 1})
    ok = spot == 1
    axioms = True
    for _ in range(100):
        mu, nu, la = random_measure(), random_measure(), random_measure()
        dmn = prokhorov_distance(mu, nu)
        axioms = axioms and dmn == prokhorov_distance(nu, mu)
        axioms = axioms and (dmn == 0) == (mu.atoms == nu.atoms)
        axioms = axioms and dmn <= prokhorov_distance(mu, la) + prokhorov_distance(la, nu)
        axioms = axioms and dmn <= total_variation(mu, nu)
    items.append({"check": "metric-axioms-100", "passed": axioms})
    return SuiteResult(items, ok and axioms)


def suite_omega_split(seed: int = 0) -> SuiteResult:
    """Letter-1 weights along geometric boxes approach 1/3 and 2/3."""
    eps = Fraction(1, 2)
    lengths = geometric_box_lengths(eps, 12)
    x = block_alternating(eps, radius=lengths[-1] + 1)
    boxes = [box(1, L) for L in lengths[1:]]
    profile = omega_profile(x, boxes)
    even_target = (1 - eps) / (2 - eps)
    odd_target = 1 / (2 - eps)
    items = []
    ok = True
    for n, measure in zip(range(1, 13), profile.measures):
        w = measure.weight("1")
        target = odd_target if n % 2 == 1 else even_target
        good = n < 8 or abs(w - target) <= Fraction(2, 100)
        ok = ok and good
        items.append({"level": n, "weight_1": w, "target": target, "passed": good})
    return SuiteResult(items, ok)


def suite_omega_connected(seed: int = 0) -> SuiteResult:
    """Consecutive Prokhorov steps along linearly growing boxes obey the
    (|F_{n+1}|-|F_n|)/|F_{n+1}| bound."""
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128])
    configs = {
        "even-indicator": Periodic(
            chain, 1, {(0,): "1", (1,): "0"}, BINARY
        ),
        "regular-table": regular_table(chain, ("0", "1")),
    }
    boxes = [box(1, n + 1) for n in range(52)]
    items = []
    ok = True
    for name, x in configs.items():
        profile = omega_profile(x, boxes)
        good = all(s <= b for s, b in zip(profile.steps, profile.step_bounds))
        ok = ok and good
        items.append({"config": name, "levels": 51, "passed": good})
    return SuiteResult(items, ok)


def suite_regular(seed: int = 0) -> SuiteResult:
    """Periodic approximations of a regular table: exact disagreement bound,
    nonincreasing entropy, and TV-Cauchy letter frequencies."""
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])
    x = regular_table(chain, ("a", "b"))
    items = []
    ok = True
    prev_entropy = None
    prev_measure = None
    for n in range(1, 9):
        approx = periodic_approximation(x, n)
        d = dstar_distance(approx, x).value.upper
        bound = 1 - per_set(x, n).density()
        good = d <= bound
        h = entropy_estimate(x, n).value
        if prev_entropy is not None:
            good = good and h <= prev_entropy + 1e-12
        prev_entropy = h
        mu = empirical_measure(x, chain.domain(n))
        if prev_measure is not None:
            good = good and total_variation(mu, prev_measure) <= Fraction(2, 2**n)
        prev_measure = mu
        ok = ok and good
        items.append(
            {"level": n, "disagreement": d, "bound": bound, "entropy": h, "passed": good}
        )
    return SuiteResult(items, ok)


def suite_shearer(seed: int = 7) -> SuiteResult:
    """H(F) ≤ (1/k) Σ H(K_i) on seeded random periodic pairs and k-covers."""
    rng = random.Random(seed)
    chain = make_chain(1, [2, 4, 8, 16])
    dom = chain.domain(4)
    items = []
    ok = True
    for i in range(100):
        x = _random_periodic(chain, rng.randrange(1, 5), rng)
        z = _random_periodic(chain, rng.randrange(1, 5), rng)
        F = tuple(sorted(rng.sample(dom, rng.randrange(1, 9))))
        cover = [
            tuple(sorted(rng.sample(dom, rng.randrange(1, 9))))
            for _ in range(rng.randrange(1, 5))
        ]
        counts = [sum(1 for K in cover if g in K) for g in F]
        k = min(counts)
        if k == 0:
            cover.append(F)
            k = 1
        hf, hks = shearer_values(x, z, F, cover, k)
        good = hf <= Fraction(sum(hks), k)
        ok = ok and good
        if i < 5 or not good:
            items.append({"instance": i, "H_F": hf, "sum_H_K": sum(hks), "k": k, "passed": good})
    items.append({"check": "all-100", "passed": ok})
    return SuiteResult(items, ok)


def suite_sandwich(seed: int = 11) -> SuiteResult:
    """spanning_min ≤ separated_max and monotonicity on random systems."""
    rng = random.Random(seed)
    items = []
    ok = True
    for i in range(50):
        m = rng.randrange(2, 11)
        size = rng.randrange(4, 9)
        points = [tuple(rng.choice("01") for _ in range(size)) for _ in range(m)]
        sys = SampledSystem.from_points(points)
        # keep delta·|F| away from integers so maximal separated sets span
        deltas = [Fraction(2 * j + 1, 2 * size) for j in range(size)]
        eps = Fraction(1, 2)
        good = True
        prev_sep, prev_span = None, None
        for delta in deltas:
            sep = separated_max(sys, eps, delta)
            span = spanning_min(sys, eps, delta)
            good = good and span <= sep
            if prev_sep is not None:
                good = good and sep <= prev_sep and span <= prev_span
            prev_sep, prev_span = sep, span
        # epsilon monotonicity: crossing 1 relaxes separation, eases spanning
        good = good and separated_max(sys, Fraction(3, 2), deltas[0]) <= separated_max(
            sys, eps, deltas[0]
        )
        good = good and spanning_min(sys, Fraction(3, 2), deltas[0]) <= spanning_min(
            sys, eps, deltas[0]
        )
        ok = ok and good
        if i < 5 or not good:
            items.append({"instance": i, "points": m, "passed": good})
    items.append({"check": "all-50", "passed": ok})
    return SuiteResult(items, ok)


SUITES = {
    "chain": suite_chain,
    "coset-density": suite_coset_density,
    "psi": suite_psi,
    "path-connect": suite_path_connect,
    "krieger": suite_krieger,
    "entropy-counting": suite_entropy_counting,
    "es-binomial": suite_es_binomial,
    "prokhorov": suite_prokhorov,
    "omega-split": suite_omega_split,
    "omega-connected": suite_omega_connected,
    "regular": suite_regular,
    "shearer": suite_shearer,
    "sandwich": suite_sandwich,
}
