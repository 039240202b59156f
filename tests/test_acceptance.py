"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Expected values tagged as derived in the module docstrings come from
independent oracles implemented here or in `oracles.py` (hand recursion for
the path, literal subset brute force for the Prokhorov metric, direct set
arithmetic for the chain conditions); nothing asserts a number that was not
recomputed.
"""

import itertools
import math
import random
from fractions import Fraction

from amenshift.configs import (
    Alphabet,
    BINARY,
    CosetSet,
    Periodic,
    ToeplitzTable,
    block_alternating,
    evaluate,
    geometric_box_lengths,
    per_set,
)
from amenshift.densities import banach_density_exact
from amenshift.entropy import (
    SampledSystem,
    binomial_tail,
    entropy_estimates,
    es_binomial_bound_holds,
    es_entropy,
    pattern_counting_bound_holds,
    pattern_set,
    separated_max,
    spanning_min,
)
from amenshift.groups import box, make_chain
from amenshift.measures import (
    EmpiricalMeasure,
    discrete_metric,
    empirical_measure,
    omega_profile,
    prokhorov_distance,
    total_variation,
)
from amenshift.metrics import dstar_distance, shearer_values
from amenshift.toeplitz import (
    krieger_construct,
    periodic_approximation,
    psi_path,
    regular_table,
    toeplitz_interpolate,
)
from oracles import in_subgroup, prokhorov_oracle, translate

DYADIC8 = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])


def report(criterion: str, passed: bool) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}")
    assert passed, criterion


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_chain_validity():
    violations = 0
    for rank, scales in [(1, [2, 4, 8, 16, 32, 64, 128, 256]), (1, [3, 6, 12, 24]), (2, [2, 4])]:
        chain = make_chain(rank, scales)  # construction checks the scales only
        e = (0,) * rank
        # independent re-derivation of the four conditions
        for i in range(chain.depth):
            inner = set(chain.subgroup_in_domain(i + 1, i + 1))
            if not all(in_subgroup(chain, v, i) for v in inner):
                violations += 1  # nesting H_{i+1} within H_i
        if chain.domain(0) != (e,):
            violations += 1
        for i in range(chain.depth):
            if not set(chain.domain(i)) < set(chain.domain(i + 1)):
                violations += 1
        for n in range(chain.depth + 1):
            dom = chain.domain(n)
            if sorted(chain.coset_rep(f, n) for f in dom) != sorted(dom):
                violations += 1  # fundamental domain property
        for i in range(chain.depth):
            tiles = []
            for v in chain.domain(i + 1):
                if in_subgroup(chain, v, i):
                    tiles.extend(translate(chain.domain(i), v))
            if sorted(tiles) != sorted(chain.domain(i + 1)):
                violations += 1  # disjoint translate decomposition
    report("1. chain validity (three scale families, four conditions)", violations == 0)


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_exact_coset_density():
    rng = random.Random(2024)
    ok = True
    for n in range(1, 9):
        dom = DYADIC8.domain(n)
        for _ in range(50):
            reps = rng.sample(dom, rng.randrange(0, len(dom) + 1))
            cs = CosetSet.make(DYADIC8, n, reps)
            d = banach_density_exact(cs).value
            ok = ok and d == Fraction(len(set(reps)), len(dom))
            ok = ok and d + banach_density_exact(cs.complement()).value == 1
            ok = ok and 1 - banach_density_exact(cs.complement()).value == d
    report("2. exact coset densities, 50 random sets per level <= 8", ok)


# -- criteria 3 and 4: the path -------------------------------------------------


def psi_reference(t: Fraction, scales, depth: int):
    """Hand-executed recursion (ints only) used as the recorded oracle."""
    d_side, e_side = [], []
    density = Fraction(0)
    residual, prev_q = 0, 1
    for m in range(1, depth + 1):
        q = scales[m - 1]
        fresh = [residual + v for v in range(0, q, prev_q)]
        quota = 0
        while quota < len(fresh) and Fraction(quota + 1, q) <= t - density:
            quota += 1
        d_side += [(m, f) for f in fresh[:quota]]
        density += Fraction(quota, q)
        if density == t:
            return d_side, e_side + [(m, f) for f in fresh[quota:]], None, density
        e_side += [(m, f) for f in fresh[quota + 1 :]]
        residual, prev_q = fresh[quota], q
    return d_side, e_side, residual, density


def test_criterion_03_path_lipschitz_grid():
    grid = [Fraction(k, 16) for k in range(17)]
    paths = {t: psi_path(t, DYADIC8, 8) for t in grid}
    slack = Fraction(1, 256)
    ok = True
    zero, one = paths[Fraction(0)], paths[Fraction(1)]
    ok = ok and all(evaluate(zero.table, g) == "0" for g in range(-8, 8))
    ok = ok and all(evaluate(one.table, g) == "1" for g in range(-8, 8))
    for s, t in itertools.combinations(grid, 2):
        rep = dstar_distance(paths[s].table, paths[t].table)
        ok = ok and rep.value.exact and rep.value.value <= (t - s) + slack
        for n in range(1, 9):
            ok = ok and paths[s].d_repset(n) <= paths[t].d_repset(n)
    report("3. path Lipschitz bound + endpoints + monotone nesting (17-grid, depth 8)", ok)


def test_criterion_04_path_spot_values():
    ok = True
    # oracle first: the hand recursion fixes both expected answers
    d_half, _, res_half, den_half = psi_reference(Fraction(1, 2), DYADIC8.scales, 8)
    assert d_half == [(1, 0)] and res_half is None and den_half == Fraction(1, 2)
    d_third, _, _, den_third = psi_reference(Fraction(1, 3), DYADIC8.scales, 4)
    assert d_third == [(2, 0), (4, 2)] and den_third == Fraction(5, 16)

    half = psi_path(Fraction(1, 2), DYADIC8)
    ok = ok and half.d_cosets == ((1, (0,)),)  # indicator of 0 + 2Z
    d = dstar_distance(psi_path(0, DYADIC8).table, half.table).value
    ok = ok and d.exact and d.value == Fraction(1, 2)
    third = psi_path(Fraction(1, 3), DYADIC8, 4)
    ok = ok and third.d_density == Fraction(5, 16)
    ok = ok and [(l, r[0]) for l, r in third.d_cosets] == d_third
    report("4. path spot values t=1/2 and t=1/3 against the hand recursion", ok)


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_05_path_connected_interpolation():
    z = ToeplitzTable(DYADIC8, ((1, (0,), "a"), (1, (1,), "b")), Alphabet(("a", "b")))
    zp = ToeplitzTable(
        DYADIC8, ((1, (0,), "b"), (2, (1,), "a"), (2, (3,), "b")), Alphabet(("a", "b"))
    )
    grid = [Fraction(k, 16) for k in range(17)]
    tables = {t: toeplitz_interpolate(z, zp, t) for t in grid}
    end1 = dstar_distance(tables[Fraction(1)], z).value
    end0 = dstar_distance(tables[Fraction(0)], zp).value
    ok = end1.exact and end1.value == 0 and end0.exact and end0.value == 0
    for s, t in itertools.combinations(grid, 2):
        du = dstar_distance(tables[s], tables[t]).value
        dpsi = dstar_distance(
            psi_path(s, DYADIC8).table, psi_path(t, DYADIC8).table
        ).value
        ok = ok and du.exact and dpsi.exact and du.value <= dpsi.value
    report("5. interpolation endpoints exact + dominated by the path (17-grid)", ok)


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_06_positive_entropy_certificate():
    gamma = Fraction(1, 2)
    result = krieger_construct(gamma, DYADIC8, BINARY, stages=2)
    ok = True
    for st in result.stages[:-1]:
        size = result.chain.domain_size(st.level)
        # |patterns| >= 2^{|F|/2}, compared as integers after squaring
        ok = ok and st.window_count**2 >= 2**size
        floor = 0.5 * math.log(2) - math.log(2) / size
        ok = ok and result.entropy_at(st.index).value >= floor
    report("6. positive-entropy certificates at both construction levels", ok)


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_07_pattern_counting_inequality():
    rng = random.Random(777)
    chain = make_chain(1, [2, 4, 8, 16, 32, 64])
    dom = chain.domain(6)
    alphabet = BINARY
    ok = True
    for _ in range(20):
        word = {f: rng.choice("01") for f in dom}
        x = Periodic(chain, 6, word, alphabet)
        flipped = dict(word)
        for f in rng.sample(dom, rng.randrange(1, 16)):  # density < 1/4
            flipped[f] = "1" if flipped[f] == "0" else "0"
        z = Periodic(chain, 6, flipped, alphabet)
        d = dstar_distance(x, z).value.value
        assert d < Fraction(1, 4)
        cx, cz = len(pattern_set(x, 6)), len(pattern_set(z, 6))
        ok = ok and pattern_counting_bound_holds(cz, cx, d, 64, 2)
        ok = ok and pattern_counting_bound_holds(cx, cz, d, 64, 2)
    report("7. exact pattern-count inequality, 20 random periodic pairs at level 6", ok)


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_08_binary_entropy_tail_bound():
    ok = True
    for n in range(1, 31):
        for k in range(1, 11):
            ok = ok and es_binomial_bound_holds(n, Fraction(k, 20))
    lhs = binomial_tail(20, Fraction(1, 4))
    ok = ok and lhs == 21700
    ok = ok and lhs <= 2 ** (20 * es_entropy(Fraction(1, 4)))
    report("8. binomial tail bound, exact big integers, n <= 30", ok)


# -- criterion 9 ---------------------------------------------------------------


def _random_measure(rng, atoms):
    chosen = rng.sample(atoms, rng.randrange(1, len(atoms) + 1))
    weights = [rng.randrange(1, 8) for _ in chosen]
    total = sum(weights)
    return EmpiricalMeasure(tuple((a, Fraction(w, total)) for a, w in zip(chosen, weights)))


def test_criterion_09_prokhorov_against_brute_force():
    rng = random.Random(99)
    atoms = list("abcdef")
    ok = True
    for trial in range(200):
        mu, nu = _random_measure(rng, atoms), _random_measure(rng, atoms)
        if trial % 2:
            pts = {a: Fraction(rng.randrange(0, 9), 8) for a in atoms}
            metric = lambda a, b, p=pts: abs(p[a] - p[b])
        else:
            metric = discrete_metric
        ok = ok and prokhorov_distance(mu, nu, metric) == prokhorov_oracle(mu, nu, metric)
    for _ in range(100):
        mu, nu, la = (_random_measure(rng, list("abcd")) for _ in range(3))
        d = prokhorov_distance(mu, nu)
        ok = ok and d == prokhorov_distance(nu, mu)
        ok = ok and (d == 0) == (mu.atoms == nu.atoms)
        ok = ok and d <= prokhorov_distance(mu, la) + prokhorov_distance(la, nu)
    for rho in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        metric = lambda a, b, r=rho: Fraction(0) if a == b else r
        d = prokhorov_distance(
            EmpiricalMeasure.point_mass("a"), EmpiricalMeasure.point_mass("b"), metric
        )
        ok = ok and d == min(rho, 1)
    report("9. Prokhorov equals subset brute force (200 pairs) + axioms + spots", ok)


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_disconnected_trace():
    eps = Fraction(1, 2)
    lengths = geometric_box_lengths(eps, 12)
    x = block_alternating(eps, radius=lengths[-1] + 1)
    ok = True
    for n in (12, 10, 8):
        w = empirical_measure(x, box(1, lengths[n])).weight("1")
        ok = ok and abs(w - Fraction(1, 3)) <= Fraction(2, 100)
    for n in (11, 9):
        w = empirical_measure(x, box(1, lengths[n])).weight("1")
        ok = ok and abs(w - Fraction(2, 3)) <= Fraction(2, 100)
    report("10. alternating-shell trace splits to 1/3 and 2/3 within 0.02 by level 12", ok)


# -- criterion 11 ----------------------------------------------------------------


def test_criterion_11_connected_trace_bound():
    chain = make_chain(1, [2, 4, 8])
    configs = [
        Periodic(chain, 1, {(0,): "1", (1,): "0"}, BINARY),
        Periodic(
            chain, 2, {(0,): "a", (1,): "b", (2,): "b", (3,): "a"}, Alphabet(("a", "b"))
        ),
        regular_table(DYADIC8, ("0", "1")),
        block_alternating(Fraction(1, 2), radius=128),
    ]
    boxes = [box(1, n + 1) for n in range(52)]
    ok = True
    for x in configs:
        profile = omega_profile(x, boxes)
        for step, bound in zip(profile.steps, profile.step_bounds):
            ok = ok and step <= bound
    report("11. consecutive Prokhorov steps within (|F_{n+1}|-|F_n|)/|F_{n+1}|, n <= 50", ok)


# -- criterion 12 ----------------------------------------------------------------


def test_criterion_12_regular_table_consequences():
    table = regular_table(DYADIC8, ("a", "b"), depth=8)
    ok = True
    entropies = []
    measures = []
    for n in range(1, 9):
        approx = periodic_approximation(table, n)
        rep = dstar_distance(approx, table).value
        bound = 1 - per_set(table, n).density()
        ok = ok and rep.exact and rep.value <= bound
        entropies.append(entropy_estimates(table, (n,))[0].value)
        measures.append(empirical_measure(table, DYADIC8.domain(n)))
    ok = ok and all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))
    ok = ok and entropies[-1] <= math.log(256) / 256 + 1e-12
    for n, (mu, nu) in enumerate(zip(measures, measures[1:]), start=1):
        ok = ok and total_variation(mu, nu) <= Fraction(2, 2**n)
    report("12. regular table: approximation bound, entropy decay, TV-Cauchy trace", ok)


# -- criterion 13 ----------------------------------------------------------------


def test_criterion_13_shearer_inequality():
    rng = random.Random(7)
    chain = make_chain(1, [2, 4, 8, 16])
    dom = chain.domain(4)
    ok = True
    for _ in range(100):
        def rand_periodic():
            level = rng.randrange(1, 5)
            word = {f: rng.choice("01") for f in chain.domain(level)}
            return Periodic(chain, level, word, BINARY)

        x, z = rand_periodic(), rand_periodic()
        F = tuple(sorted(rng.sample(dom, rng.randrange(1, 9))))
        cover = [
            tuple(sorted(rng.sample(dom, rng.randrange(1, 9))))
            for _ in range(rng.randrange(1, 5))
        ]
        k = min(sum(1 for K in cover if g in K) for g in F)
        if k == 0:
            cover.append(F)
            k = 1
        hf, hks = shearer_values(x, z, F, cover, k)
        ok = ok and hf <= Fraction(sum(hks), k)
    report("13. Shearer-type subadditivity on 100 seeded random instances", ok)


# -- criterion 14 ----------------------------------------------------------------


def test_criterion_14_separated_spanning_sandwich():
    rng = random.Random(14)
    ok = True
    for _ in range(50):
        m = rng.randrange(2, 11)
        size = rng.randrange(4, 9)
        pts = [tuple(rng.choice("01") for _ in range(size)) for _ in range(m)]
        sys = SampledSystem.from_points(pts)
        deltas = [Fraction(2 * j + 1, 2 * size) for j in range(size)]
        eps_grid = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(3, 2)]
        prev_sep = prev_span = None
        for delta in deltas:
            sep = separated_max(sys, Fraction(1, 2), delta)
            span = spanning_min(sys, Fraction(1, 2), delta)
            ok = ok and span <= sep
            if prev_sep is not None:
                ok = ok and sep <= prev_sep and span <= prev_span
            prev_sep, prev_span = sep, span
        seps = [separated_max(sys, e, deltas[0]) for e in eps_grid]
        spans = [spanning_min(sys, e, deltas[0]) for e in eps_grid]
        ok = ok and all(a >= b for a, b in zip(seps, seps[1:]))
        ok = ok and all(a >= b for a, b in zip(spans, spans[1:]))
    report("14. spanning <= separated and monotonicity on 50 random systems", ok)
