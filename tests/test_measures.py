import inspect
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amenshift import measures
from amenshift.configs import BINARY, Alphabet, Periodic, block_alternating, geometric_box_lengths
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
from oracles import prokhorov_oracle, total_variation_oracle

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


def table_metric(atoms, table):
    """The shortest-path closure of a symmetric table of distances between
    distinct atoms: a pseudometric that keeps the table's ties and zeros."""
    d = {(a, b): 0 if a == b else table[frozenset((a, b))] for a in atoms for b in atoms}
    for m in atoms:
        for a in atoms:
            for b in atoms:
                d[a, b] = min(d[a, b], d[a, m] + d[m, b])
    return lambda a, b: d[a, b]


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


def test_measures_from_counts_refuse_what_counts_can_break():
    # a dict's atoms are distinct and its frequencies sum to 1, so from_counts
    # checks only a zero total and a negative count (which is checked first:
    # {"a": -1} once gave a measure of weight 1, {"a": 1, "b": -1} a
    # ZeroDivisionError); atoms are sorted by repr, zero counts dropped
    for counts in ({}, {"a": 0}, {"a": 0, "b": 0}):
        with pytest.raises(ValueError, match="^measure needs at least one atom$"):
            EmpiricalMeasure.from_counts(counts)
    for counts in ({"a": -1}, {"a": 2, "b": -1}, {"a": 1, "b": -1}):
        with pytest.raises(ValueError, match="^weights must be positive$"):
            EmpiricalMeasure.from_counts(counts)
    mu = EmpiricalMeasure.from_counts({"b": 3, 10: 2, "c": 0, "a": 1, (0,): 6})
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    assert mu.atoms == (("a", Fraction(1, 12)), ("b", Fraction(1, 4)), ((0,), Fraction(1, 2)), (10, sixth))
    assert mu == EmpiricalMeasure(mu.atoms[::-1])
    assert EmpiricalMeasure.from_counts({"x": 2, "y": 4}).atoms == (("x", third), ("y", 2 * third))


def test_the_public_measure_constructor_keeps_every_check():
    half = Fraction(1, 2)
    for atoms, message in [
        ((), "measure needs at least one atom"),
        ((("a", half), ("a", half)), "atoms must be distinct"),
        ((("a", Fraction(3, 2)), ("b", -half)), "weights must be positive"),
        ((("a", half), ("b", Fraction(0))), "weights must be positive"),
        ((("a", half), ("b", Fraction(1, 3))), "weights sum to 5/6, not 1"),
        # a float or a string weight never reaches the distances, which read
        # numerator and denominator; a float that sums to 1.0 included
        ((("a", 0.5), ("b", 0.5)), "weight 0.5 is not an int or a Fraction"),
        ((("a", half), ("b", 0.5)), "weight 0.5 is not an int or a Fraction"),
        ((("a", 1.0),), "weight 1.0 is not an int or a Fraction"),
        ((("a", -0.5), ("b", Fraction(3, 2))), "weight -0.5 is not an int or a Fraction"),
        ((("a", "1/2"), ("b", half)), "weight '1/2' is not an int or a Fraction"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EmpiricalMeasure(atoms)
    # int weights are exact and kept: a point mass of weight 1
    delta = EmpiricalMeasure((("a", 1),))
    assert prokhorov_distance(delta, EmpiricalMeasure.point_mass("a"), lambda a, b: 0) == 0
    assert total_variation(delta, EmpiricalMeasure.point_mass("b")) == 1


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


# hypothesis: random pseudometric tables, ties and zeros, every return type

TABLE_ATOMS = "abcdefg"
QUARTERS = [Fraction(k, 4) for k in range(9)]  # 0 .. 2 in steps of 1/4: ties, zeros, > 1
TWELFTHS = sorted({*QUARTERS, *(Fraction(k, 3) for k in range(7))})  # coprime denominators too
# the spellings of one distance a metric may return: each reads as the same
# Fraction, so equal distances stay one threshold however they are written
SPELLINGS = [Fraction, float, lambda v: f"{v.numerator}/{v.denominator}", lambda v: f"{2 * v.numerator}/{2 * v.denominator}"]


@st.composite
def measures_on(draw, atoms):
    """A measure with random positive weights on a nonempty subset of atoms."""
    support = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=len(atoms), unique=True))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(support), max_size=len(support)))
    return EmpiricalMeasure(tuple((a, Fraction(w, sum(weights))) for a, w in zip(support, weights)))


@st.composite
def table_metrics(draw, atoms):
    """A pseudometric on atoms returning Fractions, ints, dyadic floats, "p/q"
    strings, or per atom pair one of several types ("mixed": a float or a
    Fraction; "spelled": a Fraction, a float, "p/q" or "2p/2q"), so one
    distance of its table may come back spelled several ways."""
    kind = draw(st.sampled_from(["fraction", "int", "float", "string", "mixed", "spelled"]))
    # a float spells only the dyadic values exactly
    values = [Fraction(k) for k in range(3)] if kind == "int" else TWELFTHS if kind in ("fraction", "string") else QUARTERS
    pairs = [frozenset((a, b)) for i, a in enumerate(atoms) for b in atoms[i + 1 :]]
    table = {p: draw(st.sampled_from(values)) for p in pairs}
    closure = table_metric(atoms, table)
    if kind == "fraction":
        return closure
    spellings = {"mixed": [float, Fraction], "spelled": SPELLINGS}.get(kind)
    cast = {"int": int, "float": float, "string": SPELLINGS[2]}.get(kind)
    types = {(a, b): cast or draw(st.sampled_from(spellings)) for a in atoms for b in atoms}
    return lambda a, b: types[a, b](closure(a, b))


@st.composite
def table_instances(draw, size):
    """(μ, ν, metric) on a joint support of at most `size` atoms."""
    atoms = TABLE_ATOMS[:size]
    return draw(measures_on(atoms)), draw(measures_on(atoms)), draw(table_metrics(atoms))


def exactly(metric):
    """metric read through Fraction: what the oracles compare ("p/q" strings do not order)."""
    return lambda a, b: Fraction(metric(a, b))


def _check_against(oracle, instance):
    mu, nu, metric = instance
    d = prokhorov_distance(mu, nu, metric)
    assert type(d) is Fraction
    assert d == prokhorov_distance(nu, mu, metric) == oracle(mu, nu, exactly(metric))
    assert 0 <= d <= total_variation(mu, nu)


@settings(max_examples=80, deadline=None)
@given(table_instances(5))
def test_prokhorov_matches_literal_oracle_on_pseudometric_tables(instance):
    _check_against(prokhorov_oracle, instance)


@settings(max_examples=60, deadline=None)
@given(table_instances(7))
def test_prokhorov_matches_subset_tables_on_pseudometric_tables(instance):
    _check_against(subset_table_oracle, instance)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hausdorff_matches_directed_oracle_passes_on_pseudometric_tables(data):
    # the library's one matrix against the literal oracle's, read by rows and by columns
    atoms = TABLE_ATOMS[:4]
    metric = data.draw(table_metrics(atoms))
    A, B = (data.draw(st.lists(measures_on(atoms), min_size=1, max_size=3)) for _ in range(2))
    matrix = [[prokhorov_oracle(mu, nu, exactly(metric)) for nu in B] for mu in A]
    d_ab = max(min(row) for row in matrix)
    d_ba = max(min(col) for col in zip(*matrix))
    h = hausdorff_distance(A, B, metric)
    assert type(h) is Fraction
    assert h == max(d_ab, d_ba) == hausdorff_distance(B, A, metric)


def test_one_distance_spelled_several_ways_is_one_distance():
    # 1/2 as Fraction(1, 2), "2/4" and 0.5 on three pairs, 1/4 as "1/4", 0.25
    # and "3/12", thirds and twelfths beside them: both distances read them
    # as the Fraction-valued metric does
    points = {"a": 0, "b": Fraction(1, 2), "c": 1, "d": Fraction(1, 4), "e": Fraction(1, 3), "f": Fraction(3, 4)}
    spelled = {
        frozenset("ab"): Fraction(1, 2),
        frozenset("bc"): "2/4",
        frozenset("df"): 0.5,
        frozenset("bd"): "1/4",
        frozenset("ad"): 0.25,
        frozenset("cf"): "3/12",
        frozenset("bf"): Fraction(1, 4),
        frozenset("af"): 0.75,
        frozenset("cd"): "3/4",
        frozenset("ac"): 1,
        frozenset("ae"): "1/3",
        frozenset("be"): "2/12",
        frozenset("ce"): Fraction(2, 3),
        frozenset("de"): "1/12",
        frozenset("ef"): "5/12",
    }
    metric = lambda x, y: 0 if x == y else spelled[frozenset((x, y))]
    exact = line_metric(points)
    assert all(Fraction(metric(x, y)) == exact(x, y) for x in points for y in points)
    rng = random.Random(59)
    for _ in range(30):
        A = [random_measure(rng, list(points)) for _ in range(rng.randrange(1, 4))]
        B = [random_measure(rng, list(points)) for _ in range(rng.randrange(1, 4))]
        for mu in A:
            for nu in B:
                d = prokhorov_distance(mu, nu, metric)
                assert type(d) is Fraction and d == prokhorov_distance(mu, nu, exact) == prokhorov_oracle(mu, nu, exact)
        h = hausdorff_distance(A, B, metric)
        assert type(h) is Fraction and h == hausdorff_distance(A, B, exact)


def test_prokhorov_evaluates_each_atom_pair_once():
    rng = random.Random(61)
    for _ in range(20):
        mu, nu = random_measure(rng, list("abcdef")), random_measure(rng, list("cdefgh"))
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return Fraction(abs(ord(a) - ord(b)), 4)

        prokhorov_distance(mu, nu, counting)
        assert sorted(calls) == sorted((a, b) for a in mu.support for b in nu.support)


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
    # one matrix read both ways equals the two directed sup-inf passes, under
    # a line metric, the discrete metric and a pseudometric (0 on {0,1}, {2,3}, {4,5})
    rng = random.Random(41)
    atoms = list(range(6))
    line = line_metric({a: Fraction(a, 5) for a in atoms})
    pseudo = lambda a, b: Fraction(abs(a // 2 - b // 2), 3)
    for metric in (line, discrete_metric, pseudo):
        for _ in range(10):
            A = [random_measure(rng, atoms) for _ in range(rng.randrange(1, 4))]
            B = [random_measure(rng, atoms) for _ in range(rng.randrange(1, 4))]
            d_ab = max(min(prokhorov_distance(mu, nu, metric) for nu in B) for mu in A)
            d_ba = max(min(prokhorov_distance(nu, mu, metric) for mu in A) for nu in B)
            assert hausdorff_distance(A, B, metric) == max(d_ab, d_ba) == hausdorff_distance(B, A, metric)


def test_hausdorff_evaluates_each_atom_pair_once():
    rng = random.Random(43)
    for _ in range(20):
        A = [random_measure(rng, list("abcdef")) for _ in range(rng.randrange(1, 4))]
        B = [random_measure(rng, list("cdefgh")) for _ in range(rng.randrange(1, 4))]
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return Fraction(abs(ord(a) - ord(b)), 4)

        hausdorff_distance(A, B, counting)
        rows = {a for mu in A for a in mu.support}
        cols = {b for nu in B for b in nu.support}
        assert sorted(calls) == sorted((a, b) for a in rows for b in cols)


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


# --- total variation and sharing -------------------------------------------


def test_total_variation_matches_fraction_oracle():
    rng = random.Random(47)
    for trial in range(200):
        atoms = rng.sample(range(12), rng.randrange(2, 10))
        cut = rng.randrange(1, len(atoms))
        # disjoint supports every third trial, otherwise any overlap
        mu_atoms = atoms[:cut] if trial % 3 == 0 else rng.sample(atoms, rng.randrange(1, len(atoms) + 1))
        nu_atoms = atoms[cut:] if trial % 3 == 0 else rng.sample(atoms, rng.randrange(1, len(atoms) + 1))
        # unequal denominators: weights over different totals
        mu, nu = full_measure(rng, mu_atoms), full_measure(random.Random(trial), nu_atoms)
        tv = total_variation(mu, nu)
        assert type(tv) is Fraction
        assert tv == total_variation_oracle(mu, nu) == total_variation(nu, mu)
        if trial % 3 == 0:
            assert tv == 1


def test_distances_are_thread_safe_on_shared_measures():
    # every distance is pure: threads sharing measures and the discrete
    # metric's constants read what a serial run reads, through the discrete
    # closed form (TV sums) and through the flow of the line metric
    rng = random.Random(53)
    atoms = list(range(8))
    shared = [random_measure(rng, atoms) for _ in range(12)]
    metric = line_metric({a: Fraction(a, 7) for a in atoms})

    def work(k):
        mu, nu = shared[k % 12], shared[(5 * k + 1) % 12]
        fams = (shared[k % 12 : k % 12 + 3], shared[(k + 4) % 12 : (k + 4) % 12 + 2])
        return (
            prokhorov_distance(mu, nu),
            prokhorov_distance(mu, nu, metric),
            hausdorff_distance(*fams),
            hausdorff_distance(*fams, metric),
            total_variation(mu, nu),
        )

    zero, one = measures._ZERO, measures._ONE
    serial = [work(k) for k in range(48)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(work, range(48), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert measures._ZERO is zero and measures._ONE is one
    assert (zero.numerator, zero.denominator, one.numerator, one.denominator) == (0, 1, 1, 1)
    assert discrete_metric("a", "a") is zero and discrete_metric("a", "b") is one


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_omega_steps_are_total_variation_of_consecutive_measures(data):
    # each step is an integer sum over two sets' letter counts; total_variation
    # of the two measures is its oracle, whether or not the sets nest
    word = data.draw(st.lists(st.sampled_from("abc"), min_size=8, max_size=8))
    x = Periodic(CHAIN, 3, {(i,): a for i, a in enumerate(word)}, Alphabet(("a", "b", "c")))
    kind = data.draw(st.sampled_from(["nested", "free", "boxes"]))
    count = data.draw(st.integers(1, 6))
    if kind == "boxes":
        sides = sorted(data.draw(st.lists(st.integers(1, 40), min_size=count, max_size=count)))
        sets = [box(1, L) for L in sides]
    else:
        cells = st.lists(st.integers(-30, 30).map(lambda i: (i,)), min_size=1, max_size=12)
        sets = []
        for _ in range(count):
            prefix = sets[-1] if kind == "nested" and sets else ()
            sets.append(prefix + tuple(data.draw(cells)))
    profile = omega_profile(x, sets)
    pairs = zip(profile.measures, profile.measures[1:])
    assert profile.steps == tuple(total_variation(nu, mu) for mu, nu in pairs)
    assert all(type(step) is Fraction for step in profile.steps)


def test_omega_consecutive_steps_respect_nesting_bound():
    profile = omega_profile(EVENS, [CHAIN.domain(n) for n in (1, 2, 3, 4)])
    for step, bound in zip(profile.steps, profile.step_bounds):
        assert step <= bound
    assert profile.step_bounds[0] == Fraction(1, 2)
