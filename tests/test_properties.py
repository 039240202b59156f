"""Property tests for the structural invariants that hold for *every* input,
not just the worked examples."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amenshift.configs import (
    BINARY,
    _differs,
    Alphabet,
    CosetSet,
    Periodic,
    ToeplitzTable,
    disagreement_set,
    evaluate,
    per_set,
    per_set_letter,
    shift,
)
from amenshift.densities import (
    banach_density_exact,
    banach_density_windowed,
    coset_membership,
    density_in,
)
from amenshift.entropy import pattern_set
from amenshift.errors import InconsistentCylinders
from amenshift.groups import identity, make_chain, sub, translate
from amenshift.measures import EmpiricalMeasure, prokhorov_distance, total_variation
from amenshift.metrics import delta_star_exact, dstar_distance, weyl_upper_bound
from amenshift.toeplitz import (
    krieger_construct,
    psi_path,
    regular_table,
    toeplitz_from_table,
    toeplitz_interpolate,
    verify_skeleton,
)

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
    assert density_in(CHAIN.domain(3), coset_membership(cs)) == d
    assert density_in(translate(CHAIN.domain(3), (5,)), coset_membership(cs)) == d


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
    assert fine.contains_set(coarse)


weights4 = st.lists(st.integers(1, 5), min_size=1, max_size=4)


def measure_from(weights) -> EmpiricalMeasure:
    atoms = "abcd"[: len(weights)]
    total = sum(weights)
    return EmpiricalMeasure(
        tuple((a, Fraction(w, total)) for a, w in zip(atoms, weights))
    )


@settings(max_examples=60, deadline=None)
@given(weights4, weights4)
def test_prokhorov_discrete_collapses_to_tv(wa, wb):
    mu, nu = measure_from(wa), measure_from(wb)
    tv = total_variation(mu, nu)
    dp = prokhorov_distance(mu, nu)
    assert dp == min(tv, 1) if tv < 1 else dp <= 1
    assert dp == prokhorov_distance(nu, mu)


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
    reps = per_set(x, n).reps
    by_letter = [per_set_letter(x, n, a).reps for a in x.alphabet.letters]
    assert sum(len(r) for r in by_letter) == len(reps)
    assert frozenset().union(*by_letter) == reps
    assert reps == brute_force_per_set(x, n, value)


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_skeleton_matches_shifted_letter_sets(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_periodic_value_table_is_the_word_lifted(data):
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2]))
    x = data.draw(words(chain))
    assert x.max_level == x.level
    assert x.fully_resolved()
    for level in range(x.level, chain.depth + 1):
        table = x.value_table(level)
        assert list(table) == list(chain.domain(level))
        assert table == {f: evaluate(x, f) for f in chain.domain(level)}
    for level in range(x.level):
        with pytest.raises(ValueError):
            x.value_table(level)


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
    assert gap.confirmed.is_empty and gap.exact


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
    "gamma, scales, stages",
    [
        ("1/2", [2**k for k in range(1, 13)], 3),
        ("1/3", [2**k for k in range(1, 13)], 2),
        ("3/4", [3 * 2**k for k in range(0, 10)], 2),
    ],
)
def test_krieger_skeleton_is_every_stage_claim(gamma, scales, stages):
    chain = make_chain(1, scales)
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
    windowed = banach_density_windowed(_differs(x, z), chain, n, radius)
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
            windowed = banach_density_windowed(_differs(x, z), chain, n, radius)
            # both sides are known everywhere, so the bracket is collapsed
            assert windowed.lower == windowed.upper <= exact
            if 2 * radius + 1 >= q:
                assert windowed.lower == exact
