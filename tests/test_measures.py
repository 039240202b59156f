import inspect
import random
from fractions import Fraction

import pytest

from amenshift.configs import BINARY, Periodic, block_alternating, geometric_box_lengths
from amenshift.errors import UnknownMembership
from amenshift.groups import box, make_chain
from amenshift.measures import (
    EmpiricalMeasure,
    discrete_metric,
    empirical_measure,
    hausdorff_distance,
    omega_profile,
    prokhorov_distance,
    total_variation,
)
from amenshift.metrics import dstar_distance
from oracles import prokhorov_oracle

CHAIN = make_chain(1, [2, 4, 8, 16])
EVENS = Periodic(CHAIN, 1, {(0,): "1", (1,): "0"}, BINARY)


# --- independent oracle: the subset tables the library used to build -------


def subset_table_oracle(mu, nu, metric=discrete_metric):
    """The subset-table search the library used before the max-flow: subset
    masses and closed expansions as bitmask tables at every distance
    threshold, then a binary search over every subset mass difference for
    the least ε feasible in both directions.  Exponential in the joint
    support, so it reaches the mid-size supports the literal oracle cannot."""
    support = sorted(set(mu.support) | set(nu.support), key=repr)
    n = len(support)
    full = (1 << n) - 1
    mw = [mu.weight(a) for a in support]
    nw = [nu.weight(a) for a in support]
    dist = [[Fraction(metric(a, b)) for b in support] for a in support]
    thresholds = sorted({Fraction(0)} | {dist[i][j] for i in range(n) for j in range(i + 1, n)})
    mu_mass = [Fraction(0)] * (1 << n)
    nu_mass = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        mu_mass[mask] = mu_mass[mask ^ low] + mw[i]
        nu_mass[mask] = nu_mass[mask ^ low] + nw[i]
    expansions = {}
    for t in thresholds:
        near = [sum(1 << j for j in range(n) if dist[i][j] <= t) for i in range(n)]
        exp = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            exp[mask] = exp[mask ^ low] | near[low.bit_length() - 1]
        expansions[t] = exp

    def feasible(eps):
        exp = expansions[max(d for d in thresholds if d <= eps)]
        return all(
            mu_mass[m] <= nu_mass[exp[m]] + eps and nu_mass[m] <= mu_mass[exp[m]] + eps
            for m in range(1, full + 1)
        )

    candidates = set(thresholds)
    for exp in expansions.values():
        for m in range(1, full + 1):
            candidates.add(mu_mass[m] - nu_mass[exp[m]])
            candidates.add(nu_mass[m] - mu_mass[exp[m]])
    ordered = sorted(c for c in candidates if c >= 0)
    lo, hi = 0, len(ordered) - 1
    assert feasible(ordered[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]


def grid_metric(scale):
    """L∞ distance between integer grid points, times scale."""
    return lambda a, b: max(abs(a[0] - b[0]), abs(a[1] - b[1])) * scale


def line_metric(points):
    return lambda a, b: abs(points[a] - points[b])


def full_measure(rng, atoms):
    weights = [rng.randrange(1, 7) for _ in atoms]
    total = sum(weights)
    return EmpiricalMeasure(tuple((a, Fraction(w, total)) for a, w in zip(atoms, weights)))


def random_measure(rng, atoms):
    return full_measure(rng, rng.sample(atoms, rng.randrange(1, len(atoms) + 1)))


# --- empirical measures ------------------------------------------------------


def test_empirical_letter_frequencies():
    mu = empirical_measure(EVENS, CHAIN.domain(2))
    assert mu.weight("1") == Fraction(1, 2) and mu.weight("0") == Fraction(1, 2)


def test_empirical_constant_config():
    ones = Periodic(CHAIN, 1, {(0,): "1", (1,): "1"}, BINARY)
    mu = empirical_measure(ones, CHAIN.domain(3))
    assert mu.atoms == (("1", Fraction(1)),)


def test_empirical_pattern_atoms():
    # the four windows of the even-indicator on F_2 with shape {0,1},
    # enumerated by hand: 10, 01, 10, 01
    mu = empirical_measure(EVENS, CHAIN.domain(2), shape=((0,), (1,)))
    assert mu.weight(("1", "0")) == Fraction(1, 2)
    assert mu.weight(("0", "1")) == Fraction(1, 2)


def test_empirical_unknown_raises():
    from amenshift.configs import champernowne_binary

    x = champernowne_binary(4)
    with pytest.raises(UnknownMembership):
        empirical_measure(x, box(1, 32))


def test_weights_sum_exactly_to_one():
    rng = random.Random(5)
    for _ in range(20):
        mu = random_measure(rng, list("abcde"))
        assert sum(w for _, w in mu.atoms) == 1


# --- prokhorov ---------------------------------------------------------------


def test_prokhorov_identical_measures():
    mu = EmpiricalMeasure((("a", Fraction(1, 3)), ("b", Fraction(2, 3))))
    assert prokhorov_distance(mu, mu) == 0


def test_prokhorov_point_masses_discrete():
    assert prokhorov_distance(
        EmpiricalMeasure.point_mass("a"), EmpiricalMeasure.point_mass("b")
    ) == 1


def test_prokhorov_point_masses_min_rho_one():
    # D_P(δ_a, δ_b) = min(ρ(a,b), 1) for any atom metric
    for rho in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)):
        metric = lambda a, b, r=rho: Fraction(0) if a == b else r
        d = prokhorov_distance(
            EmpiricalMeasure.point_mass("a"), EmpiricalMeasure.point_mass("b"), metric
        )
        assert d == min(rho, 1)


def test_prokhorov_mixture_spot_value():
    # B = {a} forces eps >= 1/4
    mu = EmpiricalMeasure.point_mass("a")
    nu = EmpiricalMeasure((("a", Fraction(3, 4)), ("b", Fraction(1, 4))))
    assert prokhorov_distance(mu, nu) == Fraction(1, 4)
    assert prokhorov_oracle(mu, nu) == Fraction(1, 4)


def test_prokhorov_matches_oracle_random_instances():
    rng = random.Random(11)
    atoms = list("abcdef")
    for trial in range(60):
        mu = random_measure(rng, atoms)
        nu = random_measure(rng, atoms)
        if trial % 2:
            points = {a: Fraction(rng.randrange(0, 9), 8) for a in atoms}
            metric = line_metric(points)
        else:
            metric = discrete_metric
        assert prokhorov_distance(mu, nu, metric) == prokhorov_oracle(mu, nu, metric)


def test_prokhorov_metric_axioms_small_supports():
    rng = random.Random(23)
    atoms = list("abcde")
    for _ in range(40):
        mu, nu, la = (random_measure(rng, atoms) for _ in range(3))
        dmn = prokhorov_distance(mu, nu)
        assert dmn == prokhorov_distance(nu, mu)
        assert (dmn == 0) == (mu.atoms == nu.atoms)
        assert dmn <= prokhorov_distance(mu, la) + prokhorov_distance(la, nu)


def test_prokhorov_bounded_by_total_variation():
    rng = random.Random(31)
    atoms = list("abcd")
    for _ in range(40):
        mu, nu = random_measure(rng, atoms), random_measure(rng, atoms)
        tv = total_variation(mu, nu)
        dp = prokhorov_distance(mu, nu)
        assert dp <= tv
        if tv < 1:
            assert dp == tv  # discrete metric: all inter-atom distances are 1


def test_prokhorov_signature_binds_mu_nu_metric():
    # callers and tracing wrappers bind the arguments by these names
    assert list(inspect.signature(prokhorov_distance).parameters) == ["mu", "nu", "metric"]


def test_prokhorov_matches_subset_tables_mid_size():
    rng = random.Random(37)
    for n in range(7, 14):
        for kind in ("discrete", "line", "grid"):
            if kind == "grid":
                atoms = rng.sample([(i, j) for i in range(5) for j in range(5)], n)
                metric = grid_metric(Fraction(1, rng.choice([3, 5, 10])))
            else:
                atoms = list(range(n))
                points = {a: Fraction(rng.randrange(0, 2 * n), 2 * n) for a in atoms}
                metric = line_metric(points) if kind == "line" else discrete_metric
            # full supports overlapping in at least two atoms, n atoms jointly
            cut = rng.randrange(1, n)
            mu = full_measure(rng, atoms[: cut + 1])
            nu = full_measure(rng, atoms[cut - 1 :] if rng.random() < 0.5 else atoms)
            expected = subset_table_oracle(mu, nu, metric)
            assert prokhorov_distance(mu, nu, metric) == expected, (n, kind)
            assert prokhorov_distance(nu, mu, metric) == expected, (n, kind)


def test_prokhorov_large_support_uniform_vs_point_mass():
    # 16 atoms, beyond any subset search: D_P = TV = 15/16 under the discrete metric
    atoms = [f"a{i}" for i in range(16)]
    mu = EmpiricalMeasure(tuple((a, Fraction(1, 16)) for a in atoms))
    delta = EmpiricalMeasure.point_mass("a0")
    assert prokhorov_distance(mu, delta) == Fraction(15, 16) == total_variation(mu, delta)
    assert prokhorov_distance(delta, mu) == Fraction(15, 16)


def test_prokhorov_large_support_shifted_uniform():
    # uniform on {0..39} against uniform on {1..40} with metric |a - b|·h:
    # moving everything by one costs h, leaving the mass at 0 costs 1/40
    mu = EmpiricalMeasure(tuple((a, Fraction(1, 40)) for a in range(40)))
    nu = EmpiricalMeasure(tuple((a, Fraction(1, 40)) for a in range(1, 41)))
    for h in (Fraction(1, 100), Fraction(1, 10)):
        metric = lambda a, b, h=h: abs(a - b) * h
        assert prokhorov_distance(mu, nu, metric) == min(h, Fraction(1, 40))
        assert prokhorov_distance(nu, mu, metric) == min(h, Fraction(1, 40))


# --- hausdorff ---------------------------------------------------------------


def test_hausdorff_examples():
    da, db = EmpiricalMeasure.point_mass("a"), EmpiricalMeasure.point_mass("b")
    A, B = (da,), (da, db)
    assert hausdorff_distance(A, A) == 0
    assert hausdorff_distance(A, B) == 1
    assert hausdorff_distance((da,), (db,)) == prokhorov_distance(da, db)
    with pytest.raises(ValueError):
        hausdorff_distance((), B)


def test_hausdorff_matches_both_directed_passes():
    # one matrix read both ways equals the two directed sup-inf passes
    rng = random.Random(41)
    atoms = list(range(6))
    metric = line_metric({a: Fraction(a, 5) for a in atoms})
    for _ in range(10):
        A = [random_measure(rng, atoms) for _ in range(rng.randrange(1, 4))]
        B = [random_measure(rng, atoms) for _ in range(rng.randrange(1, 4))]
        d_ab = max(min(prokhorov_distance(mu, nu, metric) for nu in B) for mu in A)
        d_ba = max(min(prokhorov_distance(nu, mu, metric) for mu in A) for nu in B)
        assert hausdorff_distance(A, B, metric) == max(d_ab, d_ba) == hausdorff_distance(B, A, metric)


def test_hausdorff_bounded_by_disagreement_density():
    # per-level empirical measures of two periodic configurations differ by
    # at most their disagreement density once the level reaches the period
    x = Periodic(CHAIN, 2, {(0,): "1", (1,): "0", (2,): "1", (3,): "1"}, BINARY)
    z = Periodic(CHAIN, 2, {(0,): "1", (1,): "1", (2,): "1", (3,): "1"}, BINARY)
    delta = dstar_distance(x, z).value.value
    levels = [CHAIN.domain(n) for n in (2, 3, 4)]
    prof_x = omega_profile(x, levels)
    prof_z = omega_profile(z, levels)
    for mx, mz in zip(prof_x.measures, prof_z.measures):
        assert total_variation(mx, mz) <= delta
        assert prokhorov_distance(mx, mz) <= delta
    assert hausdorff_distance(prof_x.measures, prof_z.measures) <= delta


# --- omega profiles ----------------------------------------------------------


def test_omega_constant_config_is_flat():
    ones = Periodic(CHAIN, 1, {(0,): "1", (1,): "1"}, BINARY)
    profile = omega_profile(ones, [CHAIN.domain(n) for n in (1, 2, 3)])
    assert all(step == 0 for step in profile.steps)
    assert len(set(profile.measures)) == 1


def test_omega_block_alternating_splits():
    lengths = geometric_box_lengths(Fraction(1, 2), 12)
    x = block_alternating(Fraction(1, 2), radius=lengths[-1] + 1)
    profile = omega_profile(x, [box(1, L) for L in lengths[1:]])
    w_even = profile.measures[11].weight("1")  # level 12
    w_odd = profile.measures[10].weight("1")  # level 11
    assert abs(w_even - Fraction(1, 3)) < Fraction(2, 100)
    assert abs(w_odd - Fraction(2, 3)) < Fraction(2, 100)


def test_omega_consecutive_steps_respect_nesting_bound():
    profile = omega_profile(EVENS, [CHAIN.domain(n) for n in (1, 2, 3, 4)])
    for step, bound in zip(profile.steps, profile.step_bounds):
        assert step <= bound
    assert profile.step_bounds[0] == Fraction(1, 2)
