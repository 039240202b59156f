import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amenshift.configs import (
    Alphabet,
    BINARY,
    CosetDisagreement,
    CosetSet,
    Oracle,
    Periodic,
    SampledDisagreement,
    ToeplitzTable,
    block_alternating,
    champernowne_binary,
    config_descriptor,
    config_from_descriptor,
    disagreement_set,
    evaluate,
    geometric_box_lengths,
    per_set,
    per_set_letter,
    require_known,
    shift,
)
from amenshift.densities import banach_density_windowed
from amenshift.entropy import pattern_set
from amenshift.errors import ChainMismatch, InexactVariant, UnknownMembership
from amenshift.groups import add, ball, make_chain
from amenshift.measures import EmpiricalMeasure, empirical_measure
from amenshift.metrics import dstar_distance, weyl_upper_bound
from amenshift.toeplitz import (
    periodic_approximation,
    regular_table,
    regularity_profile,
    toeplitz_interpolate,
    verify_skeleton,
)
from oracles import block_alternating_letter_oracle

CHAIN = make_chain(1, [2, 4, 8, 16])
EVENS = Periodic(CHAIN, 1, {(0,): "1", (1,): "0"}, BINARY)
ZEROS = Periodic(CHAIN, 1, {(0,): "0", (1,): "0"}, BINARY)
ONES = Periodic(CHAIN, 1, {(0,): "1", (1,): "1"}, BINARY)


def test_alphabet_discrete_metric():
    assert Alphabet.distance("a", "a") == 0
    assert Alphabet.distance("a", "b") == 1
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_periodic_evaluate():
    x = Periodic(CHAIN, 1, {(0,): "a", (1,): "b"}, Alphabet(("a", "b")))
    assert evaluate(x, 7) == "b"
    assert evaluate(x, -2) == "a"


def test_periodic_word_must_be_total():
    with pytest.raises(ValueError):
        Periodic(CHAIN, 2, {(0,): "0", (1,): "0"}, BINARY)


def test_toeplitz_evaluate_deepest_assignment_and_unknown():
    table = ToeplitzTable(CHAIN, ((1, (0,), "c"),), Alphabet(("c",)))
    assert evaluate(table, 2) == "c"
    assert evaluate(table, 3) is None


def test_toeplitz_conflicting_assignments_rejected():
    with pytest.raises(ValueError):
        ToeplitzTable(CHAIN, ((1, (0,), "a"), (2, (2,), "b")), Alphabet(("a", "b")))


def test_toeplitz_nested_agreeing_assignments_allowed():
    table = ToeplitzTable(CHAIN, ((1, (0,), "a"), (2, (2,), "a")), Alphabet(("a",)))
    assert evaluate(table, 2) == "a"


def test_oracle_outside_box_is_unknown():
    x = Oracle(1, (-4,), (4,), lambda g: "1" if g[0] % 2 == 0 else "0", BINARY, "parity")
    assert evaluate(x, 10) is None
    assert evaluate(x, 4) == "1"


def test_shift_parity_flip():
    shifted = shift(1, EVENS)
    for g in range(-8, 8):
        assert evaluate(shifted, g) == evaluate(EVENS, g + 1)
    assert evaluate(shifted, 0) == "0"


def test_shift_identity_fixes_configuration():
    assert shift(0, EVENS) == EVENS


def test_shift_diagonal_square_lattice():
    # verified pointwise against direct evaluation on the ball of radius 2
    chain = make_chain(2, [2])
    word = {(0, 0): "a", (0, 1): "b", (1, 0): "b", (1, 1): "a"}
    x = Periodic(chain, 1, word, Alphabet(("a", "b")))
    shifted = shift((1, 1), x)
    for g in ball(2, 2):
        assert evaluate(shifted, g) == evaluate(x, (g[0] + 1, g[1] + 1))


@settings(max_examples=60)
@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-6, 6))
def test_shift_is_an_action(h1, h2, g):
    lhs = shift(h1, shift(h2, EVENS))
    rhs = shift(h1 + h2, EVENS)
    assert evaluate(lhs, g) == evaluate(rhs, g)


def test_shift_oracle_moves_box():
    x = champernowne_binary(8)
    shifted = shift(3, x)
    for g in range(-12, 12):
        assert evaluate(shifted, g) == evaluate(x, g + 3)


def test_per_set_periodic_is_full_from_its_level():
    for n in (1, 2, 3):
        assert per_set(EVENS, n).reps == frozenset(CHAIN.domain(n))


def test_per_set_toeplitz_single_coset():
    table = ToeplitzTable(CHAIN, ((1, (0,), "a"),), Alphabet(("a", "b")))
    assert per_set(table, 1).reps == {(0,)}
    assert per_set_letter(table, 1, "b").is_empty
    assert per_set_letter(table, 1, "a").reps == {(0,)}


def test_per_set_monotone_in_level():
    table = ToeplitzTable(
        CHAIN,
        ((1, (0,), "a"), (2, (1,), "b"), (3, (3,), "a")),
        Alphabet(("a", "b")),
    )
    previous = per_set(table, 1)
    for n in (2, 3, 4):
        current = per_set(table, n)
        assert current.contains_set(previous)
        previous = current


def test_per_set_rejects_oracle():
    x = champernowne_binary(16)
    calls = [
        lambda: per_set(x, 1),
        lambda: verify_skeleton(x, 1),
        lambda: regularity_profile(x, 1),
        lambda: periodic_approximation(x, 1),
        lambda: toeplitz_interpolate(x, EVENS, Fraction(1, 2)),
        lambda: toeplitz_interpolate(EVENS, x, Fraction(1, 2)),
    ]
    for call in calls:
        with pytest.raises(InexactVariant):
            call()


def test_disagreement_periodic_pairs():
    full = disagreement_set(ZEROS, ONES)
    assert isinstance(full, CosetDisagreement)
    assert full.confirmed.density() == 1 and full.exact

    half = disagreement_set(EVENS, ZEROS)
    assert half.confirmed.level == 1 and half.confirmed.reps == {(0,)}

    same = disagreement_set(EVENS, EVENS)
    assert same.confirmed.is_empty and same.exact


def test_disagreement_toeplitz_tracks_unresolved():
    t1 = ToeplitzTable(CHAIN, ((1, (0,), "a"),), Alphabet(("a", "b")))
    t2 = ToeplitzTable(CHAIN, ((1, (0,), "b"), (1, (1,), "b")), Alphabet(("a", "b")))
    dis = disagreement_set(t1, t2)
    assert dis.confirmed.reps == {(0,)}
    assert dis.unresolved.reps == {(1,)}
    assert not dis.exact


def test_disagreement_chain_mismatch():
    other = make_chain(1, [3, 6])
    t1 = ToeplitzTable(CHAIN, ((1, (0,), "a"),), Alphabet(("a",)))
    t2 = ToeplitzTable(other, ((1, (0,), "a"),), Alphabet(("a",)))
    with pytest.raises(ChainMismatch):
        disagreement_set(t1, t2)


def test_oracle_chain_is_none_and_not_a_field():
    x = champernowne_binary(8)
    assert x.chain is None
    assert "chain" not in {f.name for f in dataclasses.fields(Oracle)}
    assert "chain" not in repr(x)


OTHER = make_chain(1, [3, 6])
TABLE = regular_table(CHAIN, ("0", "1"), resolve_tail=False)
GATE_PAIRS = {
    "periodic/periodic": (EVENS, ZEROS, "exact"),
    "periodic/table": (EVENS, TABLE, "exact"),
    "table/table": (TABLE, regular_table(CHAIN, ("1", "0")), "exact"),
    "table/table other chain": (TABLE, regular_table(OTHER, ("0", "1")), ChainMismatch),
    "periodic/table other chain": (Periodic(OTHER, 1, dict.fromkeys(OTHER.domain(1), "0"), BINARY), TABLE, "window"),
    "oracle/periodic": (champernowne_binary(8), EVENS, "window"),
    "table/oracle": (TABLE, block_alternating(Fraction(1, 2), 8), "window"),
    "oracle/oracle": (champernowne_binary(8), champernowne_binary(8), "window"),
}


@pytest.mark.parametrize("pair", list(GATE_PAIRS))
def test_exactness_gate_matrix(pair):
    # exact iff both sides carry the same chain; two tables on different
    # chains are an error; every other pair needs a window
    x, z, want = GATE_PAIRS[pair]
    for a, b in ((x, z), (z, x)):
        if want == "exact":
            assert isinstance(disagreement_set(a, b), CosetDisagreement)
            assert dstar_distance(a, b).basis == "exact-coset"
        elif want == "window":
            with pytest.raises(ValueError, match="supply a window"):
                disagreement_set(a, b)
            assert isinstance(disagreement_set(a, b, ball(1, 2)), SampledDisagreement)
            with pytest.raises(ValueError, match="supply level n"):
                dstar_distance(a, b)
            assert dstar_distance(a, b, 1, 2, CHAIN).basis == "window-bracket"
        else:
            with pytest.raises(want):
                disagreement_set(a, b)


def test_disagreement_sampled_for_oracles():
    x = champernowne_binary(8)
    result = disagreement_set(x, ZEROS, window=ball(1, 4))
    assert isinstance(result, SampledDisagreement)
    assert result.flags[(0,)] is True  # champernowne starts 1 at the origin
    assert result.flags[(-1,)] is False


def test_coset_set_algebra():
    a = CosetSet.make(CHAIN, 1, [(0,)])
    b = CosetSet.make(CHAIN, 2, [(1,)])
    assert a.union(b).level == 2
    assert a.union(b).density() == Fraction(3, 4)
    assert a.complement().reps == {(1,)}
    assert (5 in b) and (1 in b) and (0 not in b) and (3 not in b)


def test_toeplitz_consistency_within_window():
    # a table covering everything by level 3 evaluates Toeplitz-consistently:
    # each point's whole coset at its assignment level carries one letter
    table = ToeplitzTable(
        CHAIN,
        ((1, (0,), "a"), (2, (1,), "b"), (3, (3,), "a"), (3, (7,), "b")),
        Alphabet(("a", "b")),
    )
    for g in range(-16, 16):
        value = evaluate(table, g)
        assert value is not None
        level = next(
            lvl for lvl, r, _ in table.assignments if CHAIN.coset_rep(g, lvl) == r
        )
        for v in CHAIN.subgroup_in_domain(level, CHAIN.depth):
            assert evaluate(table, g + v[0]) == value


def test_block_alternating_matches_shell_structure():
    x = block_alternating(Fraction(1, 2), radius=64)
    lengths = geometric_box_lengths(Fraction(1, 2), 7)
    assert lengths == [1, 2, 4, 8, 16, 32, 64, 128]
    expected_ones = set(range(0, 2)) | set(range(4, 8)) | set(range(16, 32))
    for g in range(0, 33):
        assert evaluate(x, g) == ("1" if g in expected_ones else "0")
    assert evaluate(x, -3) == "0"


@pytest.mark.parametrize("eps", ["1/10", "1/3", "1/2", "2/3", "9/10"])
def test_block_alternating_bisect_matches_shell_scan(eps):
    x = block_alternating(Fraction(eps), radius=1)
    lengths = geometric_box_lengths(Fraction(eps), 64)
    cells = set(range(-50, 20001)) | {L + d for L in lengths for d in (-1, 0, 1)}
    for n in sorted(cells):
        assert x.rule((n,)) == block_alternating_letter_oracle(lengths, n), n


def test_champernowne_digits_are_stateless_and_match_concatenation():
    from amenshift.configs import _champernowne_digit

    # no default-argument cache: the digit is a pure function of its index
    assert _champernowne_digit.__defaults__ is None
    digits = "".join(bin(k)[2:] for k in range(1, 20000))[:200000]
    assert len(digits) == 200000
    assert all(_champernowne_digit(n) == d for n, d in enumerate(digits))
    x = champernowne_binary(64)
    assert [evaluate(x, g) for g in range(-2, 8)] == list("00" + digits[:8])


def test_descriptor_refuses_oracles_it_cannot_rebuild():
    with pytest.raises(ValueError, match="unshifted oracle on a centered box"):
        config_descriptor(shift(3, champernowne_binary(10)))
    off_center = Oracle(1, (0,), (10,), champernowne_binary(10).rule, BINARY, "champernowne_binary")
    with pytest.raises(ValueError, match="unshifted oracle on a centered box"):
        config_descriptor(off_center)
    custom = Oracle(1, (-4,), (4,), lambda g: "0", BINARY, name="custom")
    with pytest.raises(ValueError, match="unknown oracle rule 'custom'"):
        config_descriptor(custom)


def test_descriptor_round_trip():
    for x in (
        EVENS,
        ToeplitzTable(CHAIN, ((1, (0,), "a"), (2, (1,), "b")), Alphabet(("a", "b"))),
    ):
        desc = config_descriptor(x)
        back = config_from_descriptor(desc, CHAIN)
        assert disagreement_set(x, back).confirmed.is_empty

    oracle_desc = {"variant": "oracle", "box": 8, "rule": "block_alternating(1/2)"}
    x = config_from_descriptor(oracle_desc, None)
    assert evaluate(x, 0) == "1"
    assert config_descriptor(x)["rule"] == "block_alternating(1/2)"


# ---------------------------------------------------------------------------
# callers of the window-scan kernel against their former inline loops
# ---------------------------------------------------------------------------


def old_windowed_density(member, chain, n, radius):
    F = chain.domain(n)
    lower = upper = Fraction(0)
    for g in ball(chain.rank, radius):
        hits = unknown = 0
        for f in F:
            m = member(add(f, g))
            if m is None:
                unknown += 1
            else:
                hits += bool(m)
        lower = max(lower, Fraction(hits, len(F)))
        upper = max(upper, Fraction(hits + unknown, len(F)))
    return lower, upper


def old_windowed_dstar(x, z, chain, n, radius):
    F = chain.domain(n)
    lower = upper = Fraction(0)
    for g in ball(chain.rank, radius):
        hits = unknown = 0
        for f in F:
            a, b = evaluate(x, add(f, g)), evaluate(z, add(f, g))
            if a is None or b is None:
                unknown += 1
            elif a != b:
                hits += 1
        lower = max(lower, Fraction(hits, len(F)))
        upper = max(upper, Fraction(hits + unknown, len(F)))
    return lower, upper


def old_window(x, shape, g):
    return tuple(require_known(evaluate(x, add(f, g)), add(f, g)) for f in shape)


def old_window_sum(x, z, F, g):
    total = 0
    for f in F:
        h = add(f, g)
        a = require_known(evaluate(x, h), h)
        b = require_known(evaluate(z, h), h)
        total += Alphabet.distance(a, b)
    return total


def old_empirical_counts(x, F, shape):
    counts = {}
    for g in F:
        atom = tuple(require_known(evaluate(x, add(s, g)), add(s, g)) for s in shape)
        counts[atom] = counts.get(atom, 0) + 1
    return counts


def outcome(call):
    """The value of call(), or the message of the UnknownMembership it raised,
    which names the first Unknown cell hit."""
    try:
        return call()
    except UnknownMembership as exc:
        return ("unknown", str(exc))


def configurations():
    """Configurations with Unknown cells: boxed oracles (shifted so boxes sit
    off-centre) and coset tables with an unresolved residual coset."""
    oracle = st.builds(
        lambda make, box, h: shift(h, make(box)),
        st.sampled_from([champernowne_binary, lambda r: block_alternating(Fraction(1, 2), r)]),
        st.integers(2, 10),
        st.integers(-6, 6),
    )
    table = st.builds(
        lambda depth, h: shift(h, regular_table(CHAIN, ("0", "1"), depth, resolve_tail=False)),
        st.integers(1, CHAIN.depth),
        st.integers(-6, 6),
    )
    return st.one_of(oracle, table)


@settings(max_examples=40, deadline=None)
@given(configurations(), st.integers(0, 2), st.integers(0, 8), st.sampled_from("01"))
def test_windowed_density_matches_inline_loop(x, n, radius, letter):
    def member(g):
        v = evaluate(x, g)
        return None if v is None else v == letter

    est = banach_density_windowed(member, CHAIN, n, radius)
    assert (est.lower, est.upper) == old_windowed_density(member, CHAIN, n, radius)


@settings(max_examples=40, deadline=None)
@given(configurations(), configurations(), st.integers(0, 2), st.integers(0, 8))
def test_windowed_dstar_matches_inline_loop(x, z, n, radius):
    if isinstance(x, ToeplitzTable) and isinstance(z, ToeplitzTable):
        z = champernowne_binary(radius)  # keep the pair on the window branch
    rep = dstar_distance(x, z, n, radius, CHAIN)
    assert rep.basis == "window-bracket"
    assert (rep.value.lower, rep.value.upper) == old_windowed_dstar(x, z, CHAIN, n, radius)


@settings(max_examples=40, deadline=None)
@given(configurations(), st.integers(0, 2), st.integers(0, 8))
def test_window_pattern_set_matches_inline_loop(x, n, radius):
    new = outcome(lambda: pattern_set(x, n, radius, CHAIN).patterns)
    shape = CHAIN.domain(n)
    old = outcome(lambda: frozenset(old_window(x, shape, g) for g in ball(1, radius)))
    assert new == old


@settings(max_examples=40, deadline=None)
@given(configurations(), st.integers(0, 2), st.integers(-8, 8), st.integers(1, 12))
def test_empirical_pattern_measure_matches_inline_loop(x, n, start, length):
    F = tuple((g,) for g in range(start, start + length))
    shape = CHAIN.domain(n)
    new = outcome(lambda: empirical_measure(x, F, shape))
    old = outcome(lambda: EmpiricalMeasure.from_counts(old_empirical_counts(x, F, shape)))
    assert new == old


@settings(max_examples=40, deadline=None)
@given(configurations(), configurations(), st.integers(0, 2), st.integers(0, 4))
def test_weyl_proxy_matches_inline_loop(x, z, n, radius):
    F = CHAIN.domain(n)
    new = outcome(lambda: weyl_upper_bound(x, z, F, radius).window_proxy)
    old = outcome(
        lambda: Fraction(max(old_window_sum(x, z, F, g) for g in ball(1, radius)), len(F))
    )
    assert new == old
