"""Property tests for the structural invariants that hold for *every* input,
not just the worked examples."""

import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amenshift.configs import (
    BINARY,
    _differs,
    _fold,
    _index,
    _window,
    Alphabet,
    CosetSet,
    Oracle,
    Periodic,
    ToeplitzTable,
    block_alternating,
    champernowne_binary,
    evaluate,
    per_set,
    per_set_letter,
    shift,
)
from amenshift.densities import (
    IntervalEstimate,
    _windowed,
    banach_density_exact,
    banach_density_windowed,
)
from amenshift.entropy import entropy_estimates, pattern_set
from amenshift.errors import AmenshiftError, InconsistentCylinders
from amenshift.groups import add, identity, make_chain, sub
from amenshift.measures import (
    EmpiricalMeasure,
    discrete_metric,
    hausdorff_distance,
    prokhorov_distance,
    total_variation,
)
from amenshift.metrics import besicovitch_estimate, delta_star_exact, dstar_distance, weyl_upper_bound
from amenshift.toeplitz import (
    _fixes,
    krieger_construct,
    psi_path,
    regular_table,
    regularity_profile,
    toeplitz_interpolate,
    verify_skeleton,
)
from oracles import density_in, disagreement_set, period_table_oracle, refine, toeplitz_from_table, translate

CHAIN = make_chain(1, [2, 4, 8, 16])

rationals_01 = st.fractions(min_value=0, max_value=1, max_denominator=64)

words2 = st.tuples(*(st.sampled_from("01") for _ in range(4)))


def periodic_from(bits) -> Periodic:
    return Periodic(CHAIN, 2, {(i,): b for i, b in enumerate(bits)}, BINARY)


@settings(max_examples=60, deadline=None)
@given(rationals_01, rationals_01)
def test_psi_one_sides_nest_for_all_rationals(s, t):
    s, t = min(s, t), max(s, t)
    ps, pt = psi_path(s, CHAIN), psi_path(t, CHAIN)
    for n in range(1, 5):
        assert ps.d_repset(n) <= pt.d_repset(n)
    assert ps.d_density <= pt.d_density


@settings(max_examples=60, deadline=None)
@given(rationals_01, rationals_01)
def test_psi_disagreement_lipschitz_for_all_rationals(s, t):
    s, t = min(s, t), max(s, t)
    ps, pt = psi_path(s, CHAIN), psi_path(t, CHAIN)
    slack = Fraction(1, CHAIN.domain_size(4))
    # the one-side symmetric difference obeys the tight slack of one coset
    sym_diff = ps.d_repset(4) ^ pt.d_repset(4)
    assert Fraction(len(sym_diff), 16) <= (t - s) + slack
    # the disagreement bracket: confirmed cells undershoot the true density
    # t - s, and the pessimistic upper end may carry both residual cosets
    rep = dstar_distance(ps.table, pt.table).value
    assert rep.lower <= t - s
    assert rep.upper <= (t - s) + 2 * slack


@settings(max_examples=40, deadline=None)
@given(words2, words2, words2)
def test_dstar_is_a_pseudometric(a, b, c):
    x, z, w = periodic_from(a), periodic_from(b), periodic_from(c)
    dxz = dstar_distance(x, z).value.value
    assert dxz == dstar_distance(z, x).value.value
    assert dxz <= dstar_distance(x, w).value.value + dstar_distance(w, z).value.value
    assert (dxz == 0) == (a == b)


@settings(max_examples=40, deadline=None)
@given(words2, words2)
def test_window_proxy_never_exceeds_full_sup(a, b):
    x, z = periodic_from(a), periodic_from(b)
    F = CHAIN.domain(1)
    bound = weyl_upper_bound(x, z, F, radius=3)
    assert bound.window_proxy <= bound.exact
    # and the block average dominates the disagreement density
    assert bound.exact >= dstar_distance(x, z).value.value


@settings(max_examples=40, deadline=None)
@given(words2, words2)
def test_block_averages_decrease_toward_disagreement_density(a, b):
    x, z = periodic_from(a), periodic_from(b)
    target = dstar_distance(x, z).value.value
    values = [
        Fraction(delta_star_exact(x, z, CHAIN.domain(m)), CHAIN.domain_size(m))
        for m in (1, 2, 3, 4)
    ]
    assert all(u >= v for u, v in zip(values, values[1:]))
    assert values[-1] == target


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 7), max_size=8))
def test_coset_density_complement(reps):
    cs = CosetSet.make(CHAIN, 3, [(r,) for r in reps])
    d = banach_density_exact(cs).value
    assert d == Fraction(len(reps), 8)
    assert d + banach_density_exact(cs.complement()).value == 1
    # and the density is what any fundamental-domain count says
    assert density_in(CHAIN.domain(3), cs.__contains__) == d
    assert density_in(translate(CHAIN.domain(3), (5,)), cs.__contains__) == d


@settings(max_examples=40, deadline=None)
@given(words2, st.integers(-8, 8), st.integers(-8, 8))
def test_shift_composition_pointwise(bits, h1, h2):
    x = periodic_from(bits)
    lhs = shift(h1, shift(h2, x))
    rhs = shift(h1 + h2, x)
    for g in range(-4, 4):
        assert evaluate(lhs, g) == evaluate(rhs, g)


@settings(max_examples=40, deadline=None)
@given(words2, st.integers(1, 4))
def test_per_sets_nest_upward(bits, n):
    x = periodic_from(bits)
    coarse = per_set(x, max(1, n - 1))
    fine = per_set(x, n)
    assert refine(coarse, n).reps <= fine.reps


ATOMS = "abcdefgh"


@st.composite
def measures(draw, atoms=ATOMS):
    """A measure on 1 to 6 of the given atoms, with integer weights 1..5."""
    support = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
    return EmpiricalMeasure(tuple((a, Fraction(w, sum(weights))) for a, w in zip(support, weights)))


@st.composite
def measure_pairs(draw):
    """(μ, ν) on random supports, or equal, disjoint or with ν a point mass."""
    mu = draw(measures())
    kind = draw(st.sampled_from(["random", "equal", "disjoint", "point"]))
    if kind == "equal":
        return mu, mu
    if kind == "disjoint":
        return mu, draw(measures([a for a in ATOMS if a not in mu.support]))
    if kind == "point":
        return mu, EmpiricalMeasure.point_mass(draw(st.sampled_from(ATOMS)))
    return mu, draw(measures())


def discrete_by_flow(a, b):
    """discrete_metric under another name: the distances take their flow."""
    return discrete_metric(a, b)


@settings(max_examples=200, deadline=None)
@given(measure_pairs())
def test_prokhorov_discrete_collapses_to_tv(pair):
    # the closed form prokhorov_distance and omega_profile steps take under
    # the discrete metric, D_P = TV, against the flow, which a wrapper of the
    # metric reaches (only discrete_metric itself takes the closed form)
    mu, nu = pair
    closed = prokhorov_distance(mu, nu), prokhorov_distance(nu, mu)
    assert all(type(d) is Fraction for d in closed)
    assert closed == (prokhorov_distance(mu, nu, discrete_by_flow), prokhorov_distance(nu, mu, discrete_by_flow))
    assert closed[0] == closed[1] == total_variation(mu, nu)


@st.composite
def measure_families(draw):
    """(A, B), families of 1 to 3 measures: each of B random, equal to one of
    A, on atoms disjoint from all of A's, or a point mass."""
    A = draw(st.lists(measures(), min_size=1, max_size=3))
    used = {a for mu in A for a in mu.support}
    B = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "equal", "disjoint", "point"]))
        if kind == "equal":
            B.append(draw(st.sampled_from(A)))
        elif kind == "disjoint" and used != set(ATOMS):
            B.append(draw(measures([a for a in ATOMS if a not in used])))
        elif kind == "point":
            B.append(EmpiricalMeasure.point_mass(draw(st.sampled_from(ATOMS))))
        else:
            B.append(draw(measures()))
    return A, B


@settings(max_examples=200, deadline=None)
@given(measure_families())
def test_hausdorff_discrete_closed_form_matches_the_flow(families):
    # the TV sums on one unit scale against the per-entry flow of the
    # wrapped metric, in both argument orders
    A, B = families
    closed = hausdorff_distance(A, B), hausdorff_distance(B, A)
    assert all(type(d) is Fraction for d in closed)
    assert closed == (hausdorff_distance(A, B, discrete_by_flow), hausdorff_distance(B, A, discrete_by_flow))
    assert closed[0] == closed[1]


# ---------------------------------------------------------------------------
# the level-indexed coset table against the linear assignment walk
# ---------------------------------------------------------------------------

CHAIN2 = make_chain(2, [2, 4, 8])
LETTERS = Alphabet(("a", "b", "c"))


def deepest_assignment_letter(table: ToeplitzTable, g):
    """Reference lookup: walk every assignment; the deepest match wins."""
    best = None
    for level, r, a in table.assignments:
        if table.chain.coset_rep(g, level) == r:
            best = a
    return best


def nesting_conflict(chain, assignments) -> bool:
    """Reference check: two assignments, one inside the other, with different letters."""
    normalized = {(lvl, chain.coset_rep(r, lvl), a) for lvl, r, a in assignments}
    return any(
        l1 <= l2 and chain.coset_rep(r2, l1) == r1 and a1 != a2
        for l1, r1, a1 in normalized
        for l2, r2, a2 in normalized
    )


def raw_assignments(chain):
    element = st.lists(st.integers(-20, 20), min_size=chain.rank, max_size=chain.rank)
    return st.lists(
        st.tuples(st.integers(1, chain.depth), element.map(tuple), st.sampled_from("abc")),
        max_size=12,
    )


@st.composite
def nested_tables(draw, chain):
    """Random assignments; a coset inside an earlier, coarser one takes its letter."""
    kept = []
    for level, rep, a in sorted(draw(raw_assignments(chain)), key=lambda t: t[0]):
        rep = chain.coset_rep(rep, level)
        inherited = [b for lm, rm, b in kept if lm <= level and chain.coset_rep(rep, lm) == rm]
        kept.append((level, rep, inherited[0] if inherited else a))
    return ToeplitzTable(chain, tuple(kept), LETTERS)


def tables(chain):
    return st.one_of(
        nested_tables(chain),
        st.builds(
            lambda depth, tail, letters: regular_table(chain, letters, depth, tail),
            st.integers(1, chain.depth),
            st.booleans(),
            st.sampled_from([("a", "b"), ("c", "a", "b")]),
        ),
        st.builds(
            lambda t, depth: psi_path(t, chain, depth).table,
            rationals_01,
            st.integers(1, chain.depth),
        ),
    )


def points(chain):
    element = st.lists(st.integers(-40, 40), min_size=chain.rank, max_size=chain.rank)
    return st.lists(element.map(tuple), min_size=1, max_size=24)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lookup_matches_deepest_assignment_walk(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    table = data.draw(tables(chain))
    for g in data.draw(points(chain)):
        assert table.lookup(g) == deepest_assignment_letter(table, g)
        assert evaluate(table, g) == table.lookup(g)
    # the deepest level is a multiple of every period
    known = [deepest_assignment_letter(table, g) is not None for g in chain.domain(chain.depth)]
    assert table.fully_resolved() == all(known)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_nesting_check_matches_pairwise_check(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    raw = data.draw(raw_assignments(chain))
    conflict = nesting_conflict(chain, raw)
    try:
        ToeplitzTable(chain, tuple(raw), LETTERS)
    except ValueError:
        assert conflict
    else:
        assert not conflict
    cylinders = {(lvl, r): a for lvl, r, a in raw}
    try:
        toeplitz_from_table(chain, cylinders, LETTERS)
    except InconsistentCylinders:
        assert nesting_conflict(chain, [(lvl, r, a) for (lvl, r), a in cylinders.items()])
    else:
        assert not nesting_conflict(chain, [(lvl, r, a) for (lvl, r), a in cylinders.items()])


# ---------------------------------------------------------------------------
# Per sets in one pass against a brute-force constant-coset check
# ---------------------------------------------------------------------------


def brute_force_per_set(x, n, value):
    """Reps f of F_n whose coset f + H_n is known and constant on F_depth."""
    chain = x.chain
    top = chain.domain(chain.depth)
    reps = set()
    for f in chain.domain(n):
        values = {value(g) for g in top if chain.coset_rep(g, n) == f}
        if len(values) == 1 and None not in values:
            reps.add(f)
    return reps


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_per_set_is_disjoint_union_of_letter_sets_and_brute_force(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    if data.draw(st.booleans()):
        x = data.draw(tables(chain))
        value = lambda g: deepest_assignment_letter(x, g)
    else:
        level = data.draw(st.integers(1, chain.depth))
        word = {f: data.draw(st.sampled_from("ab")) for f in chain.domain(level)}
        x = Periodic(chain, level, word, Alphabet(("a", "b")))
        value = lambda g: x.word[chain.coset_rep(g, level)]
    n = data.draw(st.integers(1, chain.depth))
    per = per_set(x, n)
    reps = per.reps
    letter_sets = [per_set_letter(x, n, a) for a in x.alphabet.letters]
    by_letter = [cs.reps for cs in letter_sets]
    assert sum(len(r) for r in by_letter) == len(reps)
    assert frozenset().union(*by_letter) == reps
    assert reps == brute_force_per_set(x, n, value)
    # built without the subset check, each is the checked CosetSet of its reps
    for cs in (per, per.complement(), *letter_sets):
        checked = CosetSet(chain, n, cs.reps)
        assert cs == checked and hash(cs) == hash(checked)
        assert pickle.loads(pickle.dumps(cs)) == checked
    assert per.complement().complement() == per


# ---------------------------------------------------------------------------
# one period table for Periodic and ToeplitzTable
# ---------------------------------------------------------------------------


def shifted_letter_set_report(x, N, value):
    """Reference skeleton check: brute-force Per sets per level, and for every
    nonidentity g a comparison of each letter's Per set with its shift by g."""
    chain = x.chain
    nonempty, failures = [], []
    for n in range(1, N + 1):
        per = brute_force_per_set(x, n, value)
        nonempty.append(bool(per))
        by_letter = {a: frozenset(f for f in per if value(f) == a) for a in x.alphabet.letters}
        for g in chain.domain(n):
            if g == identity(chain.rank):
                continue
            if all(
                frozenset(chain.coset_rep(sub(r, g), n) for r in reps) == reps
                for reps in by_letter.values()
            ):
                failures.append((n, g))
    coverage = Fraction(len(brute_force_per_set(x, N, value)), chain.domain_size(N))
    return tuple(nonempty), coverage, tuple(failures)


@st.composite
def words(draw, chain, min_level=0):
    level = draw(st.integers(min_level, chain.depth))
    alphabet = Alphabet(("a", "b"))
    if draw(st.booleans()):
        letter = draw(st.sampled_from(alphabet.letters))
        word = {f: letter for f in chain.domain(level)}
    else:
        word = {f: draw(st.sampled_from(alphabet.letters)) for f in chain.domain(level)}
    return Periodic(chain, level, word, alphabet)


# non-dyadic chains: first scale 3, then doubling, in rank 1 and rank 2
CHAIN3 = make_chain(1, [3, 6, 12])
SQUARE3 = make_chain(2, [3, 6])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_verify_skeleton_matches_shifted_letter_sets(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2, CHAIN3, SQUARE3]))
    if data.draw(st.booleans()):
        x = data.draw(tables(chain))
        value = lambda g: deepest_assignment_letter(x, g)
    else:
        x = data.draw(words(chain))
        value = lambda g: evaluate(x, g)
    N = data.draw(st.integers(1, chain.depth))
    report = verify_skeleton(x, N)
    assert (report.nonempty, report.coverage, report.separation_failures) == (
        shifted_letter_set_report(x, N, value)
    )


@pytest.mark.parametrize(
    "x",
    [
        regular_table(CHAIN2, ("a", "b"), resolve_tail=False),
        psi_path(Fraction(2, 7), CHAIN2).table,
        ToeplitzTable(CHAIN2, ((1, (0, 1), "a"), (2, (1, 1), "b"), (3, (3, 2), "a")), LETTERS),
        ToeplitzTable(SQUARE3, ((1, (0, 0), "a"), (1, (1, 2), "a"), (2, (4, 4), "b")), LETTERS),
        ToeplitzTable(SQUARE3, (), LETTERS),
    ],
)
def test_verify_skeleton_matches_shifted_letter_sets_on_rank2_tables_with_unknown_cells(x):
    assert not x.fully_resolved()
    value = lambda g: deepest_assignment_letter(x, g)
    for N in range(1, x.chain.depth + 1):
        report = verify_skeleton(x, N)
        assert (report.nonempty, report.coverage, report.separation_failures) == (
            shifted_letter_set_report(x, N, value)
        )


@pytest.mark.parametrize("level", [2, 3])
def test_verify_skeleton_tells_a_diagonal_shift_from_its_mirror(level):
    # letters constant along the diagonals i - j: the shift by (1, 1) fixes
    # every Per set, the shift by (-1, 1) does not
    q = CHAIN2.scale(level)
    word = {(i, j): "a" if (i - j) % q == 0 else "b" for i, j in CHAIN2.domain(level)}
    x = Periodic(CHAIN2, level, word, Alphabet(("a", "b")))
    report = verify_skeleton(x, level)
    assert (report.nonempty, report.coverage, report.separation_failures) == (
        shifted_letter_set_report(x, level, lambda g: evaluate(x, g))
    )
    assert (level, (1, 1)) in report.separation_failures
    assert (level, (q - 1, 1)) not in report.separation_failures


# words whose rarest label class is large, so the skeleton check confirms
# many candidate shifts: stripes of period 2 and 3 along the first and the
# last axis, diagonals and antidiagonals in rank 2, and two halves, whose
# letters tie in count when q_level is even
RARE_CLASS_LARGE = {
    "stripes2": lambda f, q: "ab"[f[0] % 2],
    "stripes3-last-axis": lambda f, q: "abc"[f[-1] % 3],
    "halves": lambda f, q: "ab"[f[0] >= q // 2],
    "diagonals2": lambda f, q: "ab"[(f[0] + f[-1]) % 2],
    "antidiagonals3": lambda f, q: "abc"[(f[0] - f[-1]) % 3],
}


@pytest.mark.parametrize(
    "chain, pattern",
    [
        pytest.param(chain, pattern, id=f"{pattern}-{name}")
        for name, chain in [("CHAIN", CHAIN), ("CHAIN2", CHAIN2), ("CHAIN3", CHAIN3), ("SQUARE3", SQUARE3)]
        for pattern in RARE_CLASS_LARGE
        if chain.rank == 2 or "diagonals" not in pattern
    ],
)
def test_verify_skeleton_matches_shifted_letter_sets_when_the_rarest_class_is_large(chain, pattern):
    rule = RARE_CLASS_LARGE[pattern]
    for level in range(1, chain.depth + 1):
        q = chain.scale(level)
        x = Periodic(chain, level, {f: rule(f, q) for f in chain.domain(level)}, LETTERS)
        report = verify_skeleton(x, chain.depth)
        assert (report.nonempty, report.coverage, report.separation_failures) == (
            shifted_letter_set_report(x, chain.depth, lambda g: evaluate(x, g))
        )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_regularity_profile_is_each_levels_per_set_density(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2, CHAIN3, SQUARE3]))
    x = data.draw(tables(chain).filter(lambda t: not t.fully_resolved()))
    N = data.draw(st.integers(0, chain.depth))
    profile = regularity_profile(x, N)
    assert profile.levels == tuple(range(1, N + 1))
    assert profile.densities == tuple(per_set(x, n).density() for n in range(1, N + 1))


@pytest.mark.parametrize("chain", [CHAIN, CHAIN2, CHAIN3, SQUARE3], ids=["CHAIN", "CHAIN2", "CHAIN3", "SQUARE3"])
def test_level_zero_checks_no_level_and_covers_as_per_set_at_zero(chain):
    e = identity(chain.rank)
    for x in (
        regular_table(chain, ("a", "b")),
        regular_table(chain, ("a", "b"), resolve_tail=False),
        Periodic(chain, 0, {e: "a"}, LETTERS),
        Periodic(chain, 1, {f: "ab"[f == e] for f in chain.domain(1)}, LETTERS),
        ToeplitzTable(chain, (), LETTERS),
    ):
        report = verify_skeleton(x, 0)
        assert (report.depth, report.nonempty, report.separation_failures) == (0, (), ())
        assert report.coverage == per_set(x, 0).density()
        profile = regularity_profile(x, 0)
        assert (profile.levels, profile.densities, profile.regular) == ((), (), False)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_periodic_value_table_is_the_word_lifted(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    x = data.draw(words(chain))
    assert x.max_level == x.level
    assert x.fully_resolved()
    q = chain.scale(x.level)
    for level in range(x.level, chain.depth + 1):
        table = period_table_oracle(x, level)
        assert table == {f: x.lookup(f) for f in chain.domain(level)}
        for f in chain.domain(level):
            assert x.lookup(f) == x.word[tuple(c % q for c in f)]


# ---------------------------------------------------------------------------
# the period array against the per-level dict walk, in rank 1 and rank 2
# ---------------------------------------------------------------------------


def oracle_per_sets(x, n):
    """{f: letter or None} over F_n: the letter of each H_n-coset that is
    known and constant on the period table at the chain's depth, None for
    every other coset."""
    chain = x.chain
    q = chain.scale(n)
    seen = {f: set() for f in chain.domain(n)}
    for g, a in period_table_oracle(x, chain.depth).items():
        seen[tuple(c % q for c in g)].add(a)
    return {f: vs.pop() if len(vs) == 1 else None for f, vs in seen.items()}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_period_array_matches_the_period_table_oracle(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    x = data.draw(configurations(chain))
    table = period_table_oracle(x, x.max_level)
    assert x._cells == tuple(table.values())
    assert x.fully_resolved() == (None not in table.values())


def configurations_or_empty(chain):
    return configurations(chain) | st.just(ToeplitzTable(chain, (), LETTERS))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_per_sets_match_the_period_table_oracle(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2, CHAIN3, SQUARE3]))
    x = data.draw(configurations_or_empty(chain))
    # every level: below, at and above max_level
    for n in range(chain.depth + 1):
        want = oracle_per_sets(x, n)
        assert per_set(x, n).reps == {f for f, a in want.items() if a is not None}
        for a in x.alphabet.letters:
            assert per_set_letter(x, n, a).reps == {f for f, b in want.items() if b == a}


def row_major_array(data, rank, side):
    """A drawn row-major array over [0, side)^rank of letters and None, as a
    tuple or a list (the library reads both)."""
    n = side**rank
    cells = data.draw(st.lists(st.sampled_from(["a", "b", None]), min_size=n, max_size=n))
    return tuple(cells) if data.draw(st.booleans()) else cells


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_offset_reader_matches_the_cell_by_cell_read(data):
    # the window f ↦ cells[(f + g) mod Q] over [0, sides): cubes and boxes
    # that are not, sides dividing Q, multiples of it and neither, offsets
    # negative or past Q
    rank = data.draw(st.integers(1, 3))
    Q = data.draw(st.sampled_from([1, 2, 3, 4] + [6] * (rank < 3)))
    sides = tuple(data.draw(st.integers(1, 2 * Q if rank < 3 else Q + 1)) for _ in range(rank))
    if data.draw(st.booleans()):
        sides = (data.draw(st.sampled_from([1, Q, 2 * Q if rank < 3 else Q])),) * rank
    cells = row_major_array(data, rank, Q)
    g = tuple(data.draw(st.integers(-3 * Q, 3 * Q)) for _ in range(rank))
    if data.draw(st.booleans()):
        g = identity(rank)
    want = tuple(cells[_index(add(f, g), Q)] for f in itertools.product(*map(range, sides)))
    assert tuple(_window(cells, Q, sides, g)) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_row_compare_agrees_with_the_full_window_equality(data):
    # g fixes a labelling of [0, q)^d iff its window at offset g is the
    # labelling itself; a labelling constant on the orbits of a drawn shift h
    # is fixed by every multiple of h, so some compares succeed
    rank = data.draw(st.integers(1, 3))
    q = data.draw(st.sampled_from([1, 2, 3, 4] + [6] * (rank < 3)))
    h = tuple(data.draw(st.integers(0, q - 1)) for _ in range(rank))
    labels: list = [0] * q**rank
    for f in itertools.product(range(q), repeat=rank):
        if labels[_index(f, q)] == 0:
            a = data.draw(st.sampled_from(["a", "b", None]))
            for k in range(q):
                labels[_index(tuple(c + k * d for c, d in zip(f, h)), q)] = a
    k = data.draw(st.integers(0, q - 1))
    g = tuple(data.draw(st.integers(0, q - 1)) for _ in range(rank))
    if data.draw(st.booleans()):
        g = tuple(k * d % q for d in h)
    if data.draw(st.booleans()):
        labels = tuple(labels)
    rows = [labels[i : i + q] for i in range(0, len(labels), q)]
    assert _fixes(rows, q, g) == (tuple(_window(labels, q, (q,) * rank, g)) == tuple(labels))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_axis_fold_matches_the_residue_classes(data):
    # f ∈ [0, q)^d is labelled a iff every cell h ∈ [0, Q)^d with h ≡ f mod q is
    rank = data.draw(st.integers(1, 3))
    q = data.draw(st.integers(1, 3))
    Q = q * data.draw(st.integers(1, 4 if rank < 3 else 2))
    labels = row_major_array(data, rank, Q)
    if data.draw(st.booleans()):  # mostly one letter, so some classes agree
        labels = type(labels)(a if a is None else "a" for a in labels)
    want = []
    for f in itertools.product(range(q), repeat=rank):
        cls = [
            labels[_index(h, Q)]
            for h in itertools.product(range(Q), repeat=rank)
            if all((a - b) % q == 0 for a, b in zip(h, f))
        ]
        want.append(cls[0] if cls.count(cls[0]) == len(cls) else None)
    assert _fold(labels, Q, q, rank) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lifted_array_matches_the_period_table_oracle(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2, CHAIN3, SQUARE3]))
    x = data.draw(configurations_or_empty(chain))
    # F_level lies in F_max_level below it, so both read the oracle's table at
    # the deeper of the two levels; the array on F_level is one box read at e
    e = identity(chain.rank)
    for level in range(chain.depth + 1):
        table = period_table_oracle(x, max(level, x.max_level))
        assert x._read(e, (chain.scale(level),) * chain.rank) == tuple(table[f] for f in chain.domain(level))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_disagreement_matches_the_period_table_oracle(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    # Periodic and table on either side, their max levels drawn independently
    x, z = data.draw(configurations(chain)), data.draw(configurations(chain))
    level = max(x.max_level, z.max_level)
    tx, tz = period_table_oracle(x, level), period_table_oracle(z, level)
    gap = disagreement_set(x, z)
    assert gap.confirmed.level == gap.unresolved.level == level
    assert gap.unresolved.reps == {f for f in tx if tx[f] is None or tz[f] is None}
    assert gap.confirmed.reps == {
        f for f in tx if None not in (tx[f], tz[f]) and tx[f] != tz[f]
    }


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dstar_bracket_counts_the_exact_disagreement_set(data):
    # D* counts the disagreement array itself; the two coset sets of the
    # exact disagreement set, unresolved tables and the empty one included,
    # are its oracle
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2, CHAIN3, SQUARE3]))
    x, z = data.draw(configurations_or_empty(chain)), data.draw(configurations_or_empty(chain))
    gap, value = disagreement_set(x, z), dstar_distance(x, z).value
    confirmed, unresolved = gap.confirmed.density(), gap.unresolved.density()
    assert (value.lower, value.upper, value.exact) == (confirmed, confirmed + unresolved, gap.exact)


@pytest.mark.parametrize("chain", [CHAIN, CHAIN2, CHAIN3, SQUARE3], ids=["dyadic", "square", "triadic", "square3"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_periodic_arrays_match_the_table_fill_of_its_word(chain, data):
    # Periodic sets its arrays straight from its word; the table of the same
    # triples, filled coset by coset through the conflict walk, is the oracle
    for level in range(chain.depth + 1):
        dom = chain.domain(level)
        letters = data.draw(st.lists(st.sampled_from("ab"), min_size=len(dom), max_size=len(dom)))
        x = Periodic(chain, level, dict(zip(dom, letters)), Alphabet(("a", "b")))
        triples = tuple((level, f, a) for f, a in zip(dom, letters))
        if level == 0:
            # no table holds a level-0 coset: its array is the one cell of F_0
            want = (tuple(letters), triples, 0)
        else:
            table = ToeplitzTable(chain, triples, x.alphabet)
            want = (table._cells, table._assigned, table.max_level)
        assert (x._cells, x._assigned, x.max_level) == want
        assert x._period == chain.scale(level)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_complete_pattern_set_matches_the_period_table_oracle(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    x = data.draw(configurations(chain).filter(lambda x: x.fully_resolved()))
    n = data.draw(st.integers(0, chain.depth))
    table, q = period_table_oracle(x, chain.depth), chain.scale(chain.depth)
    # every translate in F_depth, the shape wrapped around the deepest period
    want = {
        tuple(table[tuple((c + d) % q for c, d in zip(f, g))] for f in chain.domain(n))
        for g in chain.domain(chain.depth)
    }
    ps = pattern_set(x, n)
    assert ps.exact and ps.patterns == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_word_and_its_single_level_table_agree(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    x = data.draw(words(chain, min_level=1))
    table = ToeplitzTable(
        chain, tuple((x.level, f, a) for f, a in x.word.items()), x.alphabet
    )
    assert table.fully_resolved()
    for n in range(1, chain.depth + 1):
        assert pattern_set(x, n) == pattern_set(table, n)
        assert per_set(x, n) == per_set(table, n)
    N = data.draw(st.integers(1, chain.depth))
    assert verify_skeleton(x, N) == verify_skeleton(table, N)
    gap = disagreement_set(x, table)
    assert not gap.confirmed.reps and gap.exact


# ---------------------------------------------------------------------------
# the coset index as the only one: restrict, interpolation, Ψ, the builder
# ---------------------------------------------------------------------------


def select_on_coset_oracle(src: ToeplitzTable, level: int, rep):
    """The former toeplitz._select_on_coset, its first loop over the assignment list."""
    chain = src.chain
    for lvl, r, a in src.assignments:
        if lvl <= level and chain.coset_rep(rep, lvl) == r:
            # the whole target coset sits inside one assigned coset
            return [(level, rep, a)]
    pieces = []
    for lvl, s, a in src.assignments:
        if lvl > level and chain.coset_rep(s, level) == rep:
            pieces.append((lvl, s, a))
    return pieces


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_restrict_matches_select_on_coset_oracle(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    table = data.draw(tables(chain))
    for level in range(1, chain.depth + 1):
        for rep in chain.domain(level):
            assert table.restrict(level, rep) == select_on_coset_oracle(table, level, rep)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_interpolation_is_the_pointwise_mixture(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    z, z_prime = data.draw(configurations(chain)), data.draw(configurations(chain))
    t = data.draw(rationals_01)
    depth = data.draw(st.integers(1, chain.depth))
    mixed = toeplitz_interpolate(z, z_prime, t, depth)
    side = psi_path(t, chain, depth).table
    for g in chain.domain(chain.depth):
        a, b = z.lookup(g), z_prime.lookup(g)
        want = {"1": a, "0": b, None: a if a == b else None}[side.lookup(g)]
        assert mixed.lookup(g) == want


def psi_reference(t, chain, depth):
    """The Ψ recursion with its own side lists, as it ran before the table
    became the record: (d_cosets, e_cosets, residual, terminated, d_density)."""
    d_cosets, e_cosets = [], []
    d_density = Fraction(0)
    residual, terminated = identity(chain.rank), False
    for m in range(1, depth + 1):
        fresh = [tuple(a + b for a, b in zip(v, residual)) for v in chain.subgroup_in_domain(m - 1, m)]
        unit = Fraction(1, chain.domain_size(m))
        q = min(len(fresh), int((t - d_density) / unit))
        d_cosets.extend((m, f) for f in fresh[:q])
        d_density += q * unit
        if d_density == t:
            e_cosets.extend((m, f) for f in fresh[q:])
            residual, terminated = None, True
            break
        e_cosets.extend((m, f) for f in fresh[q + 1 :])
        residual = fresh[q]
    return tuple(d_cosets), tuple(e_cosets), residual, terminated, d_density


TRIPLING = make_chain(1, [3, 6, 12, 24, 48])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([CHAIN, CHAIN2, TRIPLING]), rationals_01, st.data())
def test_psi_sides_match_reference_recursion(chain, t, data):
    depth = data.draw(st.integers(1, chain.depth))
    p = psi_path(t, chain, depth)
    assert (p.d_cosets, p.e_cosets, p.residual, p.terminated, p.d_density) == psi_reference(
        t, chain, depth
    )


@pytest.mark.parametrize(
    "gamma, rank, scales, stages",
    [
        ("1/2", 1, [2**k for k in range(1, 13)], 3),
        ("1/3", 1, [2**k for k in range(1, 13)], 2),
        ("3/4", 1, [3 * 2**k for k in range(0, 10)], 2),
        ("1/2", 2, [2, 4, 8, 16], 2),
        ("1/3", 2, [2, 4, 8, 16, 32], 2),
        ("1/5", 2, [2, 6, 12, 24], 1),
    ],
)
def test_krieger_skeleton_is_every_stage_claim(gamma, rank, scales, stages):
    chain = make_chain(rank, scales)
    result = krieger_construct(gamma, chain, Alphabet(("0", "1")), stages)
    want = sorted((st_.level, f, result.cells[f]) for st_ in result.stages for f in st_.claimed)
    assert list(result.skeleton.assignments) == want
    assert result.levels == tuple(st_.level for st_ in result.stages)


# ---------------------------------------------------------------------------
# shift equivariance and the windowed D* collapse
# ---------------------------------------------------------------------------


def configurations(chain):
    return st.one_of(tables(chain), words(chain))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dstar_and_exact_patterns_are_shift_equivariant(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    x, z = data.draw(configurations(chain)), data.draw(configurations(chain))
    h = tuple(data.draw(st.integers(-20, 20)) for _ in range(chain.rank))
    hx, hz = shift(h, x), shift(h, z)
    assert dstar_distance(hx, hz).value == dstar_distance(x, z).value
    if x.fully_resolved():
        for n in range(1, chain.depth + 1):
            ps = pattern_set(x, n)
            assert ps.exact
            assert pattern_set(hx, n) == ps


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_windowed_dstar_collapses_to_exact_above_both_periods(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    x, z = data.draw(configurations(chain)), data.draw(configurations(chain))
    n = data.draw(st.integers(max(1, x.max_level, z.max_level), chain.depth))
    radius = data.draw(st.integers(0, 3 if chain.rank == 1 else 1))
    # every translate of F_n is a union of whole periods of both sides
    windowed = _windowed(_differs(x, z), chain, n, radius)
    exact = dstar_distance(x, z).value
    assert (windowed.lower, windowed.upper) == (exact.lower, exact.upper)
    if x.fully_resolved() and z.fully_resolved():
        assert windowed.lower == windowed.upper


def random_word(chain, level):
    size = chain.domain_size(level)
    return st.lists(st.sampled_from("ab"), min_size=size, max_size=size).map(
        lambda letters: Periodic(
            chain, level, dict(zip(chain.domain(level), letters)), Alphabet(("a", "b"))
        )
    )


@settings(max_examples=45, deadline=None)
@given(st.sampled_from([CHAIN, TRIPLING, CHAIN2]), st.data())
def test_windowed_dstar_brackets_exact_below_both_periods(chain, data):
    p = data.draw(st.integers(1, chain.depth))
    other = data.draw(st.integers(0, p))
    levels = (p, other) if data.draw(st.booleans()) else (other, p)
    x, z = (data.draw(random_word(chain, level)) for level in levels)
    q = chain.scale(p)
    for n in range(p):
        exact = Fraction(delta_star_exact(x, z, chain.domain(n)), chain.domain_size(n))
        # a window of 2r + 1 >= q_p translates per axis meets every residue
        # mod q_p, so it sees the sup; a narrower one sees at most the sup
        for radius in (data.draw(st.integers(0, q // 2)), q // 2):
            windowed = _windowed(_differs(x, z), chain, n, radius)
            # both sides are known everywhere, so the bracket is collapsed
            assert windowed.lower == windowed.upper <= exact
            if 2 * radius + 1 >= q:
                assert windowed.lower == exact


# ---------------------------------------------------------------------------
# IntervalEstimate invariants under every aggregate
# ---------------------------------------------------------------------------


def assert_sound(est):
    """0 ≤ lower ≤ upper ≤ 1, and an exact estimate is collapsed."""
    assert 0 <= est.lower <= est.upper <= 1
    if est.exact:
        assert est.lower == est.upper


def oracles_of_rank1():
    return st.sampled_from(
        [champernowne_binary(40), block_alternating(Fraction(1, 2), 40), block_alternating(Fraction(1, 3), 40)]
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_interval_estimates_are_sound_under_every_aggregate(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2, CHAIN3]))
    sides = configurations(chain) | oracles_of_rank1() if chain.rank == 1 else configurations(chain)
    x, z = data.draw(sides), data.draw(sides)
    n = data.draw(st.integers(0, chain.depth - 1))
    radius = data.draw(st.integers(0, 3 if chain.rank == 1 else 1))
    if x.chain is not None and x.chain == z.chain:
        exact = dstar_distance(x, z).value
        assert_sound(exact)
        assert exact.exact == (not disagreement_set(x, z).unresolved.reps)
        windowed = _windowed(_differs(x, z), chain, n, radius)
    else:
        windowed = dstar_distance(x, z, n, radius, chain).value
    assert_sound(windowed)
    assert not windowed.exact
    letter = data.draw(st.sampled_from(x.alphabet.letters))
    member = lambda g: None if (v := evaluate(x, g)) is None else v == letter
    assert_sound(banach_density_windowed(member, chain, n, radius))
    resolved = all(c.chain is None or c.fully_resolved() for c in (x, z))
    if resolved:
        hi = data.draw(st.integers(n, chain.depth))
        trace = besicovitch_estimate(x, z, chain, n, hi)
        for average in trace.averages:
            assert_sound(IntervalEstimate.of(average, "besicovitch"))
        assert trace.running_max == max(trace.averages) <= 1
    if resolved and x.chain is not None and x.chain == z.chain:
        # the window sup runs over some translates, Δ*_{F_n} over all of them,
        # and D* is the infimum over n of the latter
        block_sup = Fraction(delta_star_exact(x, z, chain.domain(n)), chain.domain_size(n))
        assert windowed.lower == windowed.upper <= block_sup
        assert exact.value <= block_sup


# ---------------------------------------------------------------------------
# a level range's entropy estimates, counted by window labels from one read,
# against one tuple pattern set per level
# ---------------------------------------------------------------------------

# a first ratio of 3 or 2, then 2, in ranks 1-3 (rank 3 one level shorter)
LABEL_CHAINS = [
    make_chain(rank, scales[:depth])
    for rank, depth in ((1, 3), (2, 3), (3, 2))
    for scales in ([3, 6, 12], [2, 6, 12])
]


def boxed_oracles(chain):
    """Oracles on a drawn box, off-centre, Unknown outside it."""
    rule = lambda g: "ab"[(sum(c * c for c in g) + 2 * g[0]) % 3 == 0]
    corners, extents = (st.tuples(*[st.sampled_from(range(a, b))] * chain.rank) for a, b in ((-12, 1), (0, 37)))
    return st.builds(
        lambda lo, ext: Oracle(chain.rank, lo, add(lo, ext), rule, Alphabet(("a", "b"))), corners, extents
    )


def outcome(run):
    """run()'s value, or the type and message of the error it raises."""
    try:
        return run()
    except (AmenshiftError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_entropy_estimates_count_the_pattern_sets_of_every_level(data):
    # resolved and unresolved tables, words and boxed oracles; levels in any
    # order, level 0 and a level past the chain included; a window radius or
    # none, so errors are compared too, the first failing level's first
    chain = data.draw(st.sampled_from(LABEL_CHAINS))
    x = data.draw(boxed_oracles(chain) if data.draw(st.booleans()) else tables(chain) | words(chain))
    levels = data.draw(st.lists(st.integers(0, chain.depth), min_size=1, max_size=4))
    if data.draw(st.integers(0, 4)) == 4:
        levels.insert(data.draw(st.integers(0, len(levels))), chain.depth + 1)
    radius = data.draw(st.integers(0, {1: 6, 2: 2, 3: 1}[chain.rank]))
    if data.draw(st.integers(0, 4)) == 4:
        radius = None

    def labels():
        estimates = entropy_estimates(x, levels, radius, chain)
        return [(e.level, e.pattern_count, e.exact, e.window_radius) for e in estimates]

    def tuples():
        sets = [pattern_set(x, n, radius, chain) for n in levels]
        return [(n, len(ps), ps.exact, ps.window_radius) for n, ps in zip(levels, sets)]

    assert outcome(labels) == outcome(tuples)
