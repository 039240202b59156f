"""Bundled verification suites: seeded, deterministic desk-scale checks of
the package's checkable claims, runnable via ``amenshift verify``.

Each suite returns its items, one per checked instance, with both sides of
every asserted inequality and a ``passed`` flag; the report's verdict is
read off those flags (``harness.VERDICTS``).  Randomized suites draw from
``random.Random(seed)`` so a spec (including its seed) pins the byte-exact
report.
"""

from __future__ import annotations

import math
import random
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
from .densities import banach_density_exact
from .entropy import (
    SampledSystem,
    binomial_tail,
    entropy_estimates,
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
from .metrics import _cover_counts, dstar_distance, shearer_values
from .toeplitz import (
    krieger_construct,
    meets_power_bound,
    periodic_approximation,
    psi_path,
    regular_table,
    toeplitz_interpolate,
)


def _random_periodic(chain, level, rng, letters=("0", "1")) -> Periodic:
    alphabet = Alphabet(tuple(letters))
    word = {f: rng.choice(letters) for f in chain.domain(level)}
    return Periodic(chain, level, word, alphabet)


def suite_chain(seed: int = 0) -> list[dict]:
    """Chain validity for the three stated scale families: make_chain checks
    the scales, which imply the four chain conditions for box domains, so
    surviving construction is the pass."""
    cases = [(1, [2, 4, 8, 16, 32, 64, 128, 256]), (1, [3, 6, 12, 24]), (2, [2, 4])]
    items = []
    for rank, scales in cases:
        try:
            chain = make_chain(rank, scales)
            items.append({"rank": rank, "scales": scales, "depth": chain.depth, "passed": True})
        except Exception as exc:  # pragma: no cover - a failure is a bug
            items.append({"rank": rank, "scales": scales, "error": str(exc), "passed": False})
    return items


def suite_coset_density(seed: int = 0) -> list[dict]:
    """Exact coset densities: |reps|/|F_n| and complement summing to 1."""
    rng = random.Random(seed)
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])

    def instance_ok(n, dom) -> bool:
        size = rng.randrange(0, len(dom) + 1)
        # cells of chain.domain(n) are canonical: no normalization through make
        cs = CosetSet(chain, n, frozenset(rng.sample(dom, size)))
        d = banach_density_exact(cs).value
        return (
            d == Fraction(size, len(dom))
            and d + banach_density_exact(cs.complement()).value == 1
        )

    items = []
    for n in range(1, 9):
        dom = chain.domain(n)
        # a list, not a generator: all 50 instances are drawn whatever the outcome
        passed = all([instance_ok(n, dom) for _ in range(50)])
        items.append({"level": n, "instances": 50, "passed": passed})
    return items


def suite_psi(seed: int = 0) -> list[dict]:
    """Path endpoints, the 17-point Lipschitz grid at depth 8, spot values,
    and monotone nesting of the one-sides."""
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])
    depth = 8
    grid = [Fraction(k, 16) for k in range(17)]
    paths = {t: psi_path(t, chain, depth) for t in grid}
    slack = Fraction(1, chain.domain_size(depth))
    zero, half, one = paths[Fraction(0)], paths[Fraction(1, 2)], paths[Fraction(1)]
    third = psi_path(Fraction(1, 3), chain, 4)
    pairs = list(combinations(grid, 2))
    excess = [
        dstar_distance(paths[s].table, paths[t].table).value.upper - (t - s) for s, t in pairs
    ]
    one_sides = {t: [p.d_repset(n) for n in range(1, depth + 1)] for t, p in paths.items()}
    nesting_ok = all(ds <= dt for s, t in pairs for ds, dt in zip(one_sides[s], one_sides[t]))
    endpoint_ok = not zero.d_cosets and zero.terminated and not one.e_cosets and one.terminated
    spot_half = half.d_cosets == ((1, (0,)),) and dstar_distance(
        zero.table, half.table
    ).value.value == Fraction(1, 2)
    return [
        {"check": "endpoints", "passed": endpoint_ok},
        {
            "check": "lipschitz-grid",
            "worst_excess": max([Fraction(0), *excess]),
            "passed": all(e <= slack for e in excess),
        },
        {"check": "monotone-nesting", "passed": nesting_ok},
        {"check": "spot-t=1/2", "passed": spot_half},
        {
            "check": "spot-t=1/3-depth4",
            "d_density": third.d_density,
            "passed": third.d_density == Fraction(5, 16),
        },
    ]


def suite_path_connect(seed: int = 0) -> list[dict]:
    """Interpolation endpoints and domination by the Ψ disagreement."""
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])
    z = regular_table(chain, ("a", "b"))
    zp = regular_table(chain, ("b", "a"))
    grid = [Fraction(k, 16) for k in range(17)]
    tables = {t: toeplitz_interpolate(z, zp, t) for t in grid}
    psis = {t: psi_path(t, chain).table for t in grid}
    ends = (
        dstar_distance(tables[Fraction(1)], z).value.value == 0
        and dstar_distance(tables[Fraction(0)], zp).value.value == 0
    )
    dominated = all(
        dstar_distance(tables[s], tables[t]).value.upper
        <= dstar_distance(psis[s], psis[t]).value.upper
        for s, t in combinations(grid, 2)
    )
    return [
        {"check": "endpoints", "passed": ends},
        {"check": "dominated-by-psi", "passed": dominated},
    ]


def suite_krieger(seed: int = 0) -> list[dict]:
    """Two-stage positive-entropy build at γ=1/2 with its exact certificates."""
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])
    gamma = Fraction(1, 2)
    result = krieger_construct(gamma, chain, BINARY, stages=2)
    items = []
    for st in result.stages[:-1]:
        size = chain.domain_size(st.level)
        cert = meets_power_bound(st.window_count, gamma * size, 2)
        entropy = result.entropy_at(st.index).value
        floor = float(gamma) * math.log(2) - math.log(2) / size
        items.append(
            {
                "stage": st.index,
                "level": st.level,
                "window_count": st.window_count,
                "entropy_nats": entropy,
                "entropy_floor": floor,
                # c ≥ 2^{γ|F|} puts ln(c)/|F| at γ·ln 2, above the floor
                "passed": cert,
            }
        )
    reserved_ok = all(
        result.claimed_cells_within(n) <= (1 - gamma) * chain.domain_size(result.levels[n])
        for n in range(len(result.levels))
    )
    items.append({"check": "reserved-cells-bound", "passed": reserved_ok})
    return items


def suite_entropy_counting(seed: int = 7) -> list[dict]:
    """Exact pattern-count inequality for random periodic pairs at level 6."""
    rng = random.Random(seed)
    chain = make_chain(1, [2, 4, 8, 16, 32, 64])
    dom = chain.domain(6)
    items = []
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
        items.append({"instance": i, "density": d, "count_x": cx, "count_z": cz, "passed": good})
    return items


def suite_es_binomial(seed: int = 0) -> list[dict]:
    """Σ_{j≤⌊nε⌋} C(n,j) ≤ 2^{n·E_S(ε)} exactly, n ≤ 30, ε on the 0.05 grid."""
    grid_ok = all(
        es_binomial_bound_holds(n, Fraction(k, 20)) for n in range(1, 31) for k in range(1, 11)
    )
    spot = binomial_tail(20, Fraction(1, 4))
    return [
        {"check": "grid-n<=30", "passed": grid_ok},
        {"check": "spot-n=20-eps=1/4", "lhs": spot, "passed": spot == 21700},
    ]


def suite_prokhorov(seed: int = 3) -> list[dict]:
    """Spot values and metric axioms for the exact Prokhorov distance."""
    rng = random.Random(seed)

    def random_measure():
        atoms = rng.sample("abcdef", rng.randrange(1, 5))
        weights = [rng.randrange(1, 6) for _ in atoms]
        total = sum(weights)
        return EmpiricalMeasure(
            tuple((a, Fraction(w, total)) for a, w in zip(atoms, weights))
        )

    def axioms_hold(mu, nu, la) -> bool:
        dmn = prokhorov_distance(mu, nu)
        return (
            dmn == prokhorov_distance(nu, mu)
            and (dmn == 0) == (mu.atoms == nu.atoms)
            and dmn <= prokhorov_distance(mu, la) + prokhorov_distance(la, nu)
            and dmn <= total_variation(mu, nu)
        )

    spot = prokhorov_distance(
        EmpiricalMeasure.point_mass("a"), EmpiricalMeasure.point_mass("b")
    )
    # a list, not a generator: all 100 triples are drawn whatever the outcome
    axioms = all(
        [axioms_hold(random_measure(), random_measure(), random_measure()) for _ in range(100)]
    )
    return [
        {"check": "delta-vs-delta", "value": spot, "passed": spot == 1},
        {"check": "metric-axioms-100", "passed": axioms},
    ]


def suite_omega_split(seed: int = 0) -> list[dict]:
    """Letter-1 weights along geometric boxes approach 1/3 and 2/3."""
    eps = Fraction(1, 2)
    lengths = geometric_box_lengths(eps, 12)
    x = block_alternating(eps, radius=lengths[-1] + 1)
    boxes = [box(1, L) for L in lengths[1:]]
    profile = omega_profile(x, boxes)
    even_target = (1 - eps) / (2 - eps)
    odd_target = 1 / (2 - eps)
    items = []
    for n, measure in zip(range(1, 13), profile.measures):
        w = measure.weight("1")
        target = odd_target if n % 2 == 1 else even_target
        good = n < 8 or abs(w - target) <= Fraction(2, 100)
        items.append({"level": n, "weight_1": w, "target": target, "passed": good})
    return items


def suite_omega_connected(seed: int = 0) -> list[dict]:
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
    for name, x in configs.items():
        profile = omega_profile(x, boxes)
        good = all(s <= b for s, b in zip(profile.steps, profile.step_bounds))
        items.append({"config": name, "levels": 51, "passed": good})
    return items


def suite_regular(seed: int = 0) -> list[dict]:
    """Periodic approximations of a regular table: exact disagreement bound,
    nonincreasing entropy, and TV-Cauchy letter frequencies."""
    chain = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])
    x = regular_table(chain, ("a", "b"))
    items = []
    prev_count = prev_size = prev_measure = None
    for n, est in zip(range(1, 9), entropy_estimates(x, range(1, 9))):
        approx = periodic_approximation(x, n)
        d = dstar_distance(approx, x).value.upper
        bound = 1 - per_set(x, n).density()
        count, size = est.pattern_count, chain.domain_size(n)
        mu = empirical_measure(x, chain.domain(n))
        # ln(c_n)/|F_n| ≤ ln(c_{n-1})/|F_{n-1}|, decided on integers
        good = (
            d <= bound
            and (prev_count is None or count**prev_size <= prev_count**size)
            and (prev_measure is None or total_variation(mu, prev_measure) <= Fraction(2, 2**n))
        )
        prev_count, prev_size, prev_measure = count, size, mu
        items.append(
            {"level": n, "disagreement": d, "bound": bound, "entropy": est.value, "passed": good}
        )
    return items


def suite_shearer(seed: int = 7) -> list[dict]:
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
        k = min(hits for _, hits in _cover_counts(F, cover))
        if k == 0:
            cover.append(F)
            k = 1
        hf, hks = shearer_values(x, z, F, cover, k)
        good = hf <= Fraction(sum(hks), k)
        ok = ok and good
        if i < 5 or not good:
            items.append({"instance": i, "H_F": hf, "sum_H_K": sum(hks), "k": k, "passed": good})
    items.append({"check": "all-100", "passed": ok})
    return items


def _nonincreasing(values: list) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def suite_sandwich(seed: int = 11) -> list[dict]:
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
        seps = [separated_max(sys, eps, delta) for delta in deltas]
        spans = [spanning_min(sys, eps, delta) for delta in deltas]
        # epsilon monotonicity: crossing 1 relaxes separation, eases spanning
        good = (
            all(span <= sep for span, sep in zip(spans, seps))
            and _nonincreasing(seps)
            and _nonincreasing(spans)
            and separated_max(sys, Fraction(3, 2), deltas[0]) <= seps[0]
            and spanning_min(sys, Fraction(3, 2), deltas[0]) <= spans[0]
        )
        ok = ok and good
        if i < 5 or not good:
            items.append({"instance": i, "points": m, "passed": good})
    items.append({"check": "all-50", "passed": ok})
    return items


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
