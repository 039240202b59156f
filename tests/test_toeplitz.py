import dataclasses
import hashlib
import itertools
import math
import pickle
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from amenshift.configs import Alphabet, BINARY, Periodic, ToeplitzTable, evaluate, per_set
from amenshift.errors import (
    AmenshiftError,
    ChainTooShallow,
    InconsistentCylinders,
    LevelOutOfRange,
    UnresolvedCells,
)
from amenshift.groups import make_chain
from amenshift.metrics import dstar_distance
from amenshift.toeplitz import (
    krieger_construct,
    meets_power_bound,
    periodic_approximation,
    psi_path,
    regular_table,
    regularity_profile,
    toeplitz_interpolate,
    verify_skeleton,
)
from oracles import (
    in_subgroup,
    krieger_window_count_oracle,
    odometer_compatible,
    odometer_phi,
    psi_d_density_at,
    psi_e_repset,
    psi_side_oracle,
    toeplitz_from_table,
)

CHAIN8 = make_chain(1, [2, 4, 8, 16, 32, 64, 128, 256])
CHAIN4 = make_chain(1, [2, 4, 8, 16])
AB = Alphabet(("a", "b"))


# --- independent recursion oracle for the path -------------------------------
#
# A from-scratch execution of the two-sided split on Z, using only ints for
# the coset bookkeeping: at stage m the undecided residue r (mod q_{m-1})
# spawns the residues r, r+q_{m-1}, ..., r+q_m-q_{m-1} (mod q_m); a maximal
# prefix whose total density fits under t joins the one side.


def psi_reference(t: Fraction, scales, depth: int):
    d_side, e_side = [], []
    density = Fraction(0)
    residual = 0
    prev_q = 1
    for m in range(1, depth + 1):
        q = scales[m - 1]
        fresh = [residual + v for v in range(0, q, prev_q)]
        quota = 0
        while quota < len(fresh) and Fraction(quota + 1, q) <= t - density:
            quota += 1
        d_side += [(m, f) for f in fresh[:quota]]
        density += Fraction(quota, q)
        if density == t:
            e_side += [(m, f) for f in fresh[quota:]]
            return d_side, e_side, None, density
        e_side += [(m, f) for f in fresh[quota + 1 :]]
        residual = fresh[quota]
        prev_q = q
    return d_side, e_side, residual, density


def as_int_pairs(cosets):
    return [(lvl, r[0]) for lvl, r in cosets]


def test_psi_matches_reference_recursion():
    scales = CHAIN8.scales
    for t in [Fraction(k, 16) for k in range(17)] + [
        Fraction(1, 3),
        Fraction(2, 7),
        Fraction(5, 12),
    ]:
        for depth in (2, 4, 8):
            got = psi_path(t, CHAIN8, depth)
            want_d, want_e, want_res, want_density = psi_reference(t, scales, depth)
            assert as_int_pairs(got.d_cosets) == want_d
            assert as_int_pairs(got.e_cosets) == want_e
            assert (got.residual[0] if got.residual else None) == want_res
            assert got.d_density == want_density


def test_psi_endpoints():
    zero = psi_path(0, CHAIN8)
    one = psi_path(1, CHAIN8)
    assert not zero.d_cosets and zero.terminated
    assert not one.e_cosets and one.terminated
    for g in range(-4, 4):
        assert evaluate(zero.table, g) == "0"
        assert evaluate(one.table, g) == "1"


def test_psi_half_is_even_indicator():
    half = psi_path(Fraction(1, 2), CHAIN8)
    assert half.d_cosets == ((1, (0,)),)
    assert half.terminated
    d = dstar_distance(psi_path(0, CHAIN8).table, half.table)
    assert d.value.value == Fraction(1, 2)


def test_psi_third_depth_four():
    p = psi_path(Fraction(1, 3), CHAIN8, depth=4)
    assert as_int_pairs(p.d_cosets) == [(2, 0), (4, 2)]
    assert p.d_density == Fraction(5, 16)  # 0.0101 in binary
    assert not p.terminated


def test_psi_budget_invariant_every_stage():
    for t in (Fraction(3, 7), Fraction(1, 5), Fraction(13, 17)):
        p = psi_path(t, CHAIN8)
        for n in range(1, 9):
            dn = psi_d_density_at(p, n)
            assert dn <= t
            assert t - dn < Fraction(1, CHAIN8.domain_size(n))


def test_psi_monotone_nesting():
    grid = [Fraction(k, 8) for k in range(9)] + [Fraction(1, 3), Fraction(2, 3)]
    paths = {t: psi_path(t, CHAIN8) for t in grid}
    for s, t in itertools.combinations(sorted(grid), 2):
        for n in range(1, 9):
            assert paths[s].d_repset(n) <= paths[t].d_repset(n)


def test_psi_density_quota_terminates_at_quarter():
    # a 1/k-weighted quota would stall here with the one-side empty; the
    # density-weighted quota terminates exactly at depth 2
    corrected = psi_path(Fraction(1, 4), CHAIN8, depth=6)
    assert corrected.terminated and corrected.d_density == Fraction(1, 4)
    assert as_int_pairs(corrected.d_cosets) == [(2, 0)]


def test_psi_sides_exhaust_up_to_one_residual_coset():
    for t in (Fraction(0), Fraction(1, 3), Fraction(5, 16), Fraction(9, 11), Fraction(1)):
        p = psi_path(t, CHAIN8)
        for n in range(1, 9):
            d, e = p.d_repset(n), psi_e_repset(p, n)
            assert not (d & e)
            missing = set(CHAIN8.domain(n)) - d - e
            if p.terminated and all(lvl <= n for lvl, _ in p.d_cosets + p.e_cosets):
                assert not missing
            else:
                assert len(missing) == 1  # exactly the residual coset chain
        d_density = p.d_density
        e_density = Fraction(len(psi_e_repset(p, 8)), 256)
        assert d_density + e_density + Fraction(1, 256) >= 1


@pytest.mark.parametrize(
    "rank, scales",
    [(1, [2, 4, 8, 16, 32, 64, 128, 256]), (2, [2, 4, 8, 16]), (1, [3, 6, 12, 24, 48])],
)
def test_psi_sides_are_per_sets_of_the_table(rank, scales):
    # the sides read as Per sets equal the expansion of the side cosets at
    # every level n >= 1, also below the path's depth and one level past it
    chain = make_chain(rank, scales)
    depth = chain.depth - 1
    rng = random.Random(5)
    grid = [Fraction(k, 16) for k in range(17)]
    grid += [Fraction(rng.randrange(1, 1000), 1000) for _ in range(12)]
    for t in grid:
        p = psi_path(t, chain, depth)
        for n in range(1, depth + 2):
            d, e = psi_side_oracle(p, "1", n), psi_side_oracle(p, "0", n)
            assert p.d_repset(n) == d
            assert psi_e_repset(p, n) == e
            assert psi_d_density_at(p, n) == Fraction(len(d), chain.domain_size(n))


def test_psi_sides_at_level_zero():
    # level 0 answers like every other level: at t = 1 the one side is the
    # whole group F_0 (the expansion of level >= 1 cosets saw nothing there)
    one, zero = psi_path(Fraction(1), CHAIN8), psi_path(Fraction(0), CHAIN8)
    assert psi_side_oracle(one, "1", 0) == frozenset() == psi_e_repset(one, 0)
    assert one.d_repset(0) == frozenset({(0,)}) and psi_d_density_at(one, 0) == 1
    assert zero.d_repset(0) == frozenset() and psi_d_density_at(zero, 0) == 0
    assert psi_e_repset(zero, 0) == frozenset({(0,)})
    half = psi_path(Fraction(1, 2), CHAIN8)
    assert half.d_repset(0) == psi_e_repset(half, 0) == frozenset()


def test_psi_lipschitz_with_residual_slack():
    grid = [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(5, 7)]
    depth = 6
    slack = Fraction(1, CHAIN8.domain_size(depth))
    paths = [psi_path(t, CHAIN8, depth) for t in grid]
    for (s, ps), (t, pt) in itertools.combinations(zip(grid, paths), 2):
        upper = dstar_distance(ps.table, pt.table).value.upper
        assert upper <= abs(t - s) + slack


# --- interpolation ------------------------------------------------------------


def fixed_tables():
    z = ToeplitzTable(CHAIN8, ((1, (0,), "a"), (1, (1,), "b")), AB)
    zp = ToeplitzTable(
        CHAIN8, ((1, (0,), "b"), (2, (1,), "a"), (2, (3,), "b")), AB
    )
    return z, zp


def test_interpolation_endpoints_exact():
    z, zp = fixed_tables()
    u1 = toeplitz_interpolate(z, zp, 1)
    u0 = toeplitz_interpolate(z, zp, 0)
    for g in range(-20, 20):
        assert evaluate(u1, g) == evaluate(z, g)
        assert evaluate(u0, g) == evaluate(zp, g)


def test_interpolation_of_equal_tables_is_constant_in_t():
    # the undecided coset of the split resolves too, since both sources agree
    z, _ = fixed_tables()
    for t in (0, Fraction(1, 3), Fraction(5, 16), 1):
        u = toeplitz_interpolate(z, z, t)
        assert dstar_distance(u, z).value.upper == 0


def test_interpolation_dominated_by_psi():
    z, zp = fixed_tables()
    grid = [Fraction(k, 8) for k in range(9)]
    tables = {t: toeplitz_interpolate(z, zp, t) for t in grid}
    for s, t in itertools.combinations(grid, 2):
        du = dstar_distance(tables[s], tables[t]).value.upper
        dpsi = dstar_distance(
            psi_path(s, CHAIN8).table, psi_path(t, CHAIN8).table
        ).value.upper
        assert du <= dpsi


def test_interpolation_cells_keep_finite_periods():
    # every resolved cell of the mixture lies in some assigned coset; the
    # table form itself witnesses the finite period
    z, zp = fixed_tables()
    u = toeplitz_interpolate(z, zp, Fraction(3, 8))
    assert u.fully_resolved()
    for lvl, rep, letter in u.assignments:
        for v in CHAIN8.subgroup_in_domain(lvl, CHAIN8.depth):
            assert evaluate(u, (rep[0] + v[0],)) == letter


# --- skeleton and regularity ---------------------------------------------------


def test_skeleton_of_even_indicator():
    # the word 10 has trivial stabilizer in G/H_1, so level 1 separates, but
    # the configuration is H_1-periodic: every shift by an element of H_1
    # fixes all Per sets, and the report states exactly those failures
    evens = Periodic(CHAIN4, 1, {(0,): "1", (1,): "0"}, BINARY)
    report = verify_skeleton(evens, 3)
    assert report.all_nonempty
    assert report.coverage == 1
    expected = {
        (n, g)
        for n in (2, 3)
        for g in CHAIN4.domain(n)
        if g != (0,) and in_subgroup(CHAIN4, g, 1)
    }
    assert set(report.separation_failures) == expected


def test_skeleton_constant_word_fails_separation():
    ones = Periodic(CHAIN4, 1, {(0,): "1", (1,): "1"}, BINARY)
    report = verify_skeleton(ones, 2)
    assert report.all_nonempty and report.coverage == 1
    assert not report.separation_ok  # every shift fixes the constant word


def test_skeleton_two_level_table():
    table = ToeplitzTable(
        CHAIN4, ((1, (0,), "a"), (2, (1,), "b"), (2, (3,), "c")), Alphabet(("a", "b", "c"))
    )
    report = verify_skeleton(table, 2)
    assert report.all_nonempty
    assert report.coverage == 1


def test_skeleton_empty_table_fails_nonempty():
    table = ToeplitzTable(CHAIN4, (), AB)
    report = verify_skeleton(table, 2)
    assert not any(report.nonempty)


def test_regularity_profile_periodic_is_one():
    evens = Periodic(CHAIN4, 1, {(0,): "1", (1,): "0"}, BINARY)
    prof = regularity_profile(evens, 4)
    assert prof.densities == (1, 1, 1, 1)
    assert prof.regular


def test_regularity_profile_one_missing_coset_per_level():
    table = regular_table(CHAIN8, ("a", "b"), resolve_tail=False)
    prof = regularity_profile(table, 8)
    assert prof.densities == tuple(1 - Fraction(1, 2**n) for n in range(1, 9))
    assert not prof.regular  # 1 - 2^-8 falls short of the 1 - 2^-10 default


def test_regularity_profile_resolved_tail_is_regular():
    table = regular_table(CHAIN8, ("a", "b"))
    prof = regularity_profile(table, 8)
    assert prof.densities[-1] == 1
    assert prof.regular
    assert all(a <= b for a, b in zip(prof.densities, prof.densities[1:]))


def test_regularity_profile_half_table():
    table = ToeplitzTable(CHAIN4, ((1, (0,), "a"),), AB)
    prof = regularity_profile(table, 4)
    assert set(prof.densities) == {Fraction(1, 2)}
    assert not prof.regular


# --- periodic approximation ----------------------------------------------------


def test_approximation_of_periodic_is_identity():
    evens = Periodic(CHAIN4, 1, {(0,): "1", (1,): "0"}, BINARY)
    approx = periodic_approximation(evens, 1)
    assert approx.word == evens.word


def test_approximation_bound_regular_table():
    table = regular_table(CHAIN8, ("a", "b"))
    for n in (1, 2, 3):
        approx = periodic_approximation(table, n)
        dis = dstar_distance(approx, table).value.upper
        bound = 1 - per_set(table, n).density()
        assert dis <= bound
    assert 1 - per_set(table, 3).density() == Fraction(1, 8)


def test_approximation_half_profile_table_exact_disagreement():
    table = ToeplitzTable(
        CHAIN4, ((1, (0,), "a"), (2, (1,), "b"), (2, (3,), "c")), Alphabet(("a", "b", "c"))
    )
    approx = periodic_approximation(table, 1)
    rep = dstar_distance(approx, table)
    assert rep.value.exact
    assert rep.value.value == Fraction(1, 4)  # the 3+4Z coset reads c, the word says b
    assert rep.value.value <= 1 - per_set(table, 1).density() == Fraction(1, 2)


def test_approximation_requires_resolved_cells():
    table = ToeplitzTable(CHAIN4, ((1, (0,), "a"),), AB)
    with pytest.raises(UnresolvedCells):
        periodic_approximation(table, 1)


# --- odometer -------------------------------------------------------------------


def test_odometer_phi_residues():
    assert odometer_phi(5, CHAIN8, 3) == ((1,), (1,), (5,))
    assert odometer_compatible(CHAIN8, odometer_phi(-7, CHAIN8, 5))
    assert not odometer_compatible(CHAIN8, ((1,), (2,)))


def test_toeplitz_from_single_cylinder():
    eta = toeplitz_from_table(CHAIN4, {(1, (0,)): "a"}, AB)
    assert evaluate(eta, 2) == "a"
    assert evaluate(eta, 3) is None


def test_toeplitz_from_table_round_trip():
    cylinders = {(1, (1,)): "a", (2, (0,)): "b", (2, (2,)): "a"}
    eta = toeplitz_from_table(CHAIN4, cylinders, AB)
    for g in range(-16, 16):
        phi = odometer_phi(g, CHAIN4)
        deepest = None
        for (k, r), letter in cylinders.items():
            if phi[k - 1] == r and (deepest is None or k > deepest[0]):
                deepest = (k, letter)
        expected = deepest[1] if deepest else None
        assert evaluate(eta, g) == expected


def test_conflicting_cylinders_rejected():
    with pytest.raises(InconsistentCylinders):
        toeplitz_from_table(CHAIN4, {(1, (0,)): "a", (2, (0,)): "b"}, AB)
    # the message names the coarsest assignment covering the conflict
    message = r"^level-3 assignment at \(5,\) conflicts with level-1 at \(1,\)$"
    with pytest.raises(InconsistentCylinders, match=message):
        ToeplitzTable(CHAIN4, ((1, (1,), "a"), (2, (1,), "a"), (3, (13,), "b")), AB)


@pytest.mark.parametrize(
    "cylinders, table_error, cylinder_error",
    [
        ({(5, (0,)): "a"}, ValueError, LevelOutOfRange),  # level above depth 4
        ({(0, (0,)): "a"}, ValueError, InconsistentCylinders),
        ({(1, (0,)): "c"}, ValueError, ValueError),  # letter not in the alphabet
        ({(1, (0,)): "a", (1, (2,)): "b"}, InconsistentCylinders, InconsistentCylinders),
        ({(1, (0,)): "a", (2, (2,)): "b"}, InconsistentCylinders, InconsistentCylinders),
    ],
    ids=["above-depth", "level-0", "unknown-letter", "same-coset", "nested"],
)
def test_table_error_types(cylinders, table_error, cylinder_error):
    assignments = tuple((k, r, a) for (k, r), a in cylinders.items())
    with pytest.raises(ValueError) as table_exc:
        ToeplitzTable(CHAIN4, assignments, AB)
    assert table_exc.type is table_error
    with pytest.raises((ValueError, AmenshiftError)) as cylinder_exc:
        toeplitz_from_table(CHAIN4, cylinders, AB)
    assert cylinder_exc.type is cylinder_error
    # callers catching either base class keep working
    assert issubclass(InconsistentCylinders, ValueError)
    assert issubclass(InconsistentCylinders, AmenshiftError)


# --- positive-entropy builder ----------------------------------------------------


def test_krieger_two_stage_certificates():
    result = krieger_construct(Fraction(1, 2), CHAIN8, BINARY, stages=2)
    assert result.levels == (0, 1, 3)
    planting = result.stages[:-1]
    assert [st.window_count for st in planting] == [2, 4]
    for st in planting:
        # planted-pattern certificate: all patterns on the free cells appear
        assert st.window_count == 2**st.free_cells
        size = result.chain.domain_size(st.level)
        assert meets_power_bound(st.window_count, Fraction(1, 2) * size, 2)


def test_krieger_claimed_cells_stay_under_budget():
    result = krieger_construct(Fraction(1, 2), CHAIN8, BINARY, stages=2)
    for n in range(len(result.levels)):
        size = result.chain.domain_size(result.levels[n])
        assert result.claimed_cells_within(n) <= Fraction(1, 2) * size


def test_krieger_skeleton_matches_cells():
    result = krieger_construct(Fraction(1, 2), CHAIN8, BINARY, stages=2)
    for lvl, rep, letter in result.skeleton.assignments:
        assert result.cells[rep] == letter
        assert result.skeleton.lookup(rep[0] + result.chain.scale(lvl)) == letter


def test_krieger_three_stages_on_deep_chain():
    chain = make_chain(1, [2 ** i for i in range(1, 12)])
    result = krieger_construct(Fraction(1, 2), chain, BINARY, stages=3)
    assert result.levels == (0, 1, 3, 11)
    st = result.stages[2]
    assert st.free_cells == 7  # one coset of F_3 reserved at stage 2
    assert st.window_count == 2**7
    assert result.entropy_at(2).value >= 0.5 * math.log(2)


@pytest.mark.parametrize(
    "rank, scales, letters, stages",
    [
        (1, [2**k for k in range(1, 13)], ("0", "1"), 3),
        (1, [2**k for k in range(1, 13)], ("a", "b", "c"), 2),
        (1, [3, 6, 12, 24, 48], ("0", "1"), 2),
        (2, [2, 4, 8, 16], ("0", "1"), 2),
        (2, [2, 4, 8, 16, 32], ("a", "b", "c"), 2),
    ],
    ids=["rank1-2", "rank1-3", "rank1-3adic", "rank2-2", "rank2-3"],
)
def test_krieger_window_counts_hold_in_the_built_table(rank, scales, letters, stages):
    # the builder reads its certificate off the construction; a brute-force
    # count of the complete windows of the skeleton plus the planted cells
    # finds at least that many at every planting stage
    result = krieger_construct(Fraction(1, 2), make_chain(rank, scales), Alphabet(letters), stages)
    planting = [st for st in result.stages if st.next_level is not None]
    assert len(planting) == stages
    for st in planting:
        assert st.window_count == len(letters) ** st.free_cells
        assert krieger_window_count_oracle(result, st.index) >= st.window_count


def test_verify_skeleton_of_a_constant_word_records_every_shift():
    # every nonidentity shift fixes the one Per set at each level n ≤ 11:
    # Σ_n (2^n - 1) = 4083 failures, recorded without a compare
    chain = make_chain(1, [2**k for k in range(1, 12)])
    x = Periodic(chain, 0, {(0,): "a"}, AB)
    report = verify_skeleton(x, 11)
    assert report.coverage == 1 and report.all_nonempty
    assert report.separation_failures == tuple(
        (n, (g,)) for n in range(1, 12) for g in range(1, 2**n)
    )


def krieger_digest(result) -> str:
    """sha256 of the repr of the whole result as nested dicts, cells sorted."""
    doc = dataclasses.asdict(result)
    doc["cells"] = sorted(doc["cells"].items())
    return hashlib.sha256(repr(doc).encode()).hexdigest()


# whole results recorded from the builder that read its windows through the
# lazy walk and each cell through ToeplitzTable.lookup
@pytest.mark.parametrize(
    "gamma, rank, scales, letters, stages, digest",
    [
        ("1/2", 2, [2, 4, 8, 16], "01", 2, "3b5d0344e8f4abbca7f849ab8074f23b9f26ac07d36eecc47c1075c509ba1d6f"),
        ("1/3", 2, [2, 4, 8, 16], "ab", 2, "31160ebed16762c1d68e7227315861e474eea95c672e519ce6aba87528d8a42e"),
        ("1/2", 1, [3, 6, 12, 24, 48], "01", 2, "5a4b73eedbe50195a73280ca0cae62acc0d7bf7ed754d5add701851e37b6e097"),
        ("3/4", 1, [3 * 2**k for k in range(10)], "01", 2, "d2c54ac9ac49fbc21b77e19d869917e1502b9b0408a792b3106a501629b23ac2"),
        # the 3-stage dyadic build, recorded from the builder that rebuilt
        # its skeleton table at every stage
        ("1/2", 1, [2**k for k in range(1, 13)], "01", 3, "9bbaf9867a574600a26465272e3cf7dd427e89256949f88ffdbaaa81bf4abb56"),
    ],
)
def test_krieger_results_are_pinned(gamma, rank, scales, letters, stages, digest):
    result = krieger_construct(Fraction(gamma), make_chain(rank, scales), Alphabet(tuple(letters)), stages)
    assert krieger_digest(result) == digest


# the grid of rank-1 and rank-2 chains, γ and alphabets that pins the builder
# whole, ChainTooShallow messages included: 180 builds and 220 refusals
KRIEGER_GRID_CHAINS = [
    (1, [2**k for k in range(1, 13)]),
    (1, [3, 9, 27, 81, 243]),
    (1, [2] + [6 * 2**k for k in range(9)]),
    (2, [2**k for k in range(1, 7)]),
    (2, [3, 6, 12]),
]
KRIEGER_GRID_GAMMAS = [Fraction(k, 8) for k in range(1, 8)] + [Fraction(1, 3), Fraction(99, 100), Fraction(1, 100)]


def test_krieger_grid_is_pinned_and_counts_the_unknown_cells():
    # recorded from the builder that listed every pattern before planting it
    # and asserted that no planted cell was defined; every stage's free cells
    # are the cells of F_{k_n} outside the skeleton's confirmed periodic part
    digest, outcomes = hashlib.sha256(), Counter()
    grid = itertools.product(KRIEGER_GRID_CHAINS, KRIEGER_GRID_GAMMAS, ("ab", "abc"), (1, 2, 3, 4))
    for (rank, scales), gamma, letters, stages in grid:
        chain = make_chain(rank, scales)
        try:
            result = krieger_construct(gamma, chain, Alphabet(tuple(letters)), stages)
        except ChainTooShallow as exc:
            outcomes["too shallow"] += 1
            digest.update(repr(str(exc)).encode())
            continue
        outcomes["built"] += 1
        records = [dataclasses.asdict(st) for st in result.stages]
        doc = (records, result.levels, result.skeleton.assignments, sorted(result.cells.items()))
        digest.update(repr(doc).encode())
        for st in result.stages:
            outcomes["stages"] += 1
            unknown = chain.domain_size(st.level) - len(per_set(result.skeleton, st.level).reps)
            assert st.free_cells == unknown
    assert outcomes == {"built": 180, "too shallow": 220, "stages": 450}
    assert digest.hexdigest() == "93b47d40ad29db2e9581a105c1c2e9489065aa7bbb4509c73d0b3157e904aaa9"


def test_krieger_result_refuses_stages_it_does_not_have():
    # stages 0..3 on a 3-stage build; the last one plants nothing, so it
    # has no window certificate
    result = krieger_construct(Fraction(1, 2), make_chain(1, [2**k for k in range(1, 13)]), BINARY, stages=3)
    assert len(result.stages) == 4 and result.stages[3].window_count == 0
    assert result.entropy_at(2).pattern_count == 2**7
    assert result.claimed_cells_within(3) == sum(st.quota * 2048 // 2**st.level for st in result.stages)
    with pytest.raises(ValueError, match="stage 3 has no window certificate"):
        result.entropy_at(3)
    with pytest.raises(ValueError, match="stage -1 has no window certificate"):
        result.entropy_at(-1)
    for n in (-1, 4):
        with pytest.raises(ValueError, match=f"no stage {n}: the stages are 0..3"):
            result.claimed_cells_within(n)


def test_krieger_builds_its_skeleton_table_once(monkeypatch):
    # the claims grow as one array; the skeleton table is made once, at the
    # end, from that array, with no checked ToeplitzTable(...) fill
    checked, made = [], []
    post_init, of_claims = ToeplitzTable.__post_init__, ToeplitzTable._of_claims.__func__
    monkeypatch.setattr(ToeplitzTable, "__post_init__", lambda self: checked.append(post_init(self)))

    def counted(cls, *args):
        made.append(of_claims(cls, *args))
        return made[-1]

    monkeypatch.setattr(ToeplitzTable, "_of_claims", classmethod(counted))
    result = krieger_construct(Fraction(1, 2), make_chain(1, [2**k for k in range(1, 13)]), BINARY, stages=3)
    assert not checked and made == [result.skeleton] and len(result.stages) == 4


KRIEGER_CHAINS = {
    "dyadic": (1, [2**k for k in range(1, 13)]),
    "3*2^k": (1, [3 * 2**k for k in range(10)]),
    "3^k": (1, [3**k for k in range(1, 8)]),
    "2-6-12-24": (1, [2, 6, 12, 24]),
    "dyadic-rank2": (2, [2, 4, 8, 16]),
    "3*2^k-rank2": (2, [3, 6, 12, 24]),
    "3^k-rank2": (2, [3, 9, 27]),
    "2-6-12-24-rank2": (2, [2, 6, 12, 24]),
}


@pytest.mark.parametrize("rank, scales", KRIEGER_CHAINS.values(), ids=KRIEGER_CHAINS.keys())
def test_krieger_skeleton_equals_the_checked_table(rank, scales):
    # the skeleton made from the builder's claims array is the table that
    # ToeplitzTable(...) checks and fills from the same assignments, the
    # all-quota-0 builds (an empty table, max_level 1) among them
    chain, built = make_chain(rank, scales), 0
    gammas = ["1/5", "1/3", "1/2", "2/3", "3/4", "9/10"]
    for gamma, letters, stages in itertools.product(gammas, ["01", "abc"], [1, 2, 3]):
        alphabet = Alphabet(tuple(letters))
        try:
            skeleton = krieger_construct(Fraction(gamma), chain, alphabet, stages).skeleton
        except ChainTooShallow:
            continue
        built += 1
        checked = ToeplitzTable(chain, skeleton.assignments, alphabet)
        assert skeleton == checked and hash(skeleton) == hash(checked)
        assert skeleton.max_level == checked.max_level
        assert (skeleton._cells, skeleton._period) == (checked._cells, checked._period)
        assert type(skeleton._cells) is tuple
        copy = pickle.loads(pickle.dumps(skeleton))
        assert copy == checked and (copy._cells, copy._period) == (checked._cells, checked._period)
    assert built


def test_krieger_skeleton_without_claims_is_the_empty_table():
    # γ = 2/3 over two stages on dyadic-12 reserves nothing: every quota is
    # 0, and the claims array on F_{k_2} is cut to the empty table's F_1
    chain = make_chain(1, [2**k for k in range(1, 13)])
    result = krieger_construct(Fraction(2, 3), chain, BINARY, stages=2)
    assert all(st.quota == 0 for st in result.stages) and result.levels[-1] > 1
    assert result.skeleton == ToeplitzTable(chain, (), BINARY)
    assert (result.skeleton._cells, result.skeleton._period, result.skeleton.max_level) == ((None, None), 2, 1)


def test_krieger_builds_agree_across_threads():
    # the builder is pure: threads building on one shared chain, switching
    # often, get what a serial run gets
    chain = make_chain(1, [2**k for k in range(1, 13)])
    jobs = list(itertools.product(map(Fraction, ("1/3", "1/2", "3/4")), (BINARY, Alphabet(("a", "b", "c"))), (1, 2))) * 4

    def build(job):
        gamma, alphabet, stages = job
        result = krieger_construct(gamma, chain, alphabet, stages)
        return krieger_digest(result), result.skeleton._cells

    serial = [build(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(build, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_krieger_high_gamma_reserves_nothing_early():
    result = krieger_construct(Fraction(9, 10), CHAIN8, BINARY, stages=2)
    assert all(st.quota == 0 for st in result.stages[:-1])
    assert result.skeleton.assignments == () or result.stages[-1].quota >= 0


def test_krieger_needs_depth():
    with pytest.raises(ChainTooShallow):
        krieger_construct(Fraction(1, 2), make_chain(1, [2]), BINARY, stages=2)


def test_krieger_too_shallow_message_is_bounded():
    # the fourth stage on the dyadic-12 chain would need 2^2048 copies of F_11;
    # the message names the power rather than printing its 617 digits
    chain = make_chain(1, [2 ** i for i in range(1, 13)])
    with pytest.raises(ChainTooShallow) as info:
        krieger_construct(Fraction(1, 2), chain, BINARY, stages=4)
    message = str(info.value)
    assert "2^2048" in message and len(message) < 200


def test_krieger_regularity_stays_away_from_one():
    result = krieger_construct(Fraction(1, 2), CHAIN8, BINARY, stages=2)
    prof = regularity_profile(result.skeleton, result.levels[-1])
    assert prof.densities[-1] <= Fraction(1, 2)
