import dataclasses
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amenshift import configs, metrics
from amenshift.configs import (
    Alphabet,
    BINARY,
    CosetSet,
    Oracle,
    Periodic,
    ToeplitzTable,
    block_alternating,
    champernowne_binary,
    config_descriptor,
    config_from_descriptor,
    evaluate,
    geometric_box_lengths,
    per_set,
    per_set_letter,
    shift,
)
from amenshift.densities import banach_density_windowed
from amenshift.entropy import pattern_set
from amenshift.errors import ChainMismatch, InexactVariant, NotAKCover, UnknownMembership
from amenshift.groups import Box, add, aselem, ball, make_chain, rect
from amenshift.measures import (
    EmpiricalMeasure,
    discrete_metric,
    empirical_measure,
    omega_profile,
    prokhorov_distance,
)
from amenshift.metrics import (
    besicovitch_estimate,
    delta_star_exact,
    dstar_distance,
    shearer_values,
    weyl_upper_bound,
)
from amenshift.toeplitz import (
    krieger_construct,
    periodic_approximation,
    regular_table,
    regularity_profile,
    toeplitz_interpolate,
    verify_skeleton,
)
from oracles import (
    CosetDisagreement,
    SampledDisagreement,
    block_alternating_letter_oracle,
    champernowne_letter_oracle,
    disagreement_set,
    geometric_box_lengths_oracle,
    known_difference,
    known_letter,
    letter_frequencies,
    period_table_oracle,
    refine,
    window_walk,
)

CHAIN = make_chain(1, [2, 4, 8, 16])
EVENS = Periodic(CHAIN, 1, {(0,): "1", (1,): "0"}, BINARY)
ZEROS = Periodic(CHAIN, 1, {(0,): "0", (1,): "0"}, BINARY)
ONES = Periodic(CHAIN, 1, {(0,): "1", (1,): "1"}, BINARY)


def test_alphabet_discrete_metric():
    assert discrete_metric("a", "a") == 0
    assert discrete_metric("a", "b") == 1
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


@pytest.mark.parametrize(
    "word",
    [
        {0: "0", 1: "1", 2: "1", 3: "0"},
        {(0.0,): "0", (1.0,): "1", (2.0,): "1", (3.0,): "0"},
        {(False,): "0", (True,): "1", (2,): "1", (3,): "0"},
        {(3,): "0", (1,): "1", (2,): "1", (0,): "0"},
    ],
)
def test_periodic_word_keys_stored_as_int_tuples(word):
    # bare ints, and keys that only compare equal to the cells, are stored as the cells
    x = Periodic(CHAIN, 2, word, BINARY)
    assert x.word == {(0,): "0", (1,): "1", (2,): "1", (3,): "0"}
    assert all(type(c) is int for f in x.word for c in f)
    assert x == Periodic(CHAIN, 2, {(0,): "0", (1,): "1", (2,): "1", (3,): "0"}, BINARY)
    assert [evaluate(x, g) for g in range(-4, 4)] == list("01100110")


@pytest.mark.parametrize(
    "word",
    [
        {(0,): "0", (1,): "0"},
        {0: "0", 1: "0", 2: "0"},
        {(0,): "0", (1,): "0", (2,): "0", (3,): "0", (4,): "0"},
    ],
)
def test_periodic_non_total_word_refused_with_its_message(word):
    with pytest.raises(ValueError, match=re.escape("word must be total on the level-2 domain")):
        Periodic(CHAIN, 2, word, BINARY)


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


# tables whose reps are given as (True,), (0.0,), [1], a bare 1 and (5,) at
# level 1 (outside F_1), with what the reduction of every rep through
# coset_rep stores for them: the assignments, the descriptor's triples and
# the period array, "." for Unknown
SQUARE = make_chain(2, [2, 4, 8])
GIVEN_REPS = [
    (
        ToeplitzTable(CHAIN, ((1, (True,), "1"), (2, (0.0,), "0"), (3, [4], "0"), (2, 1, "1"), (1, (5,), "1")), BINARY),
        "((1, (1,), '1'), (2, (0,), '0'), (2, (1,), '1'), (3, (4,), '0'))",
        [[1, "1", "1"], [2, "0", "0"], [2, "1", "1"], [3, "4", "0"]],
        "01.101.1",
    ),
    (
        ToeplitzTable(CHAIN, ((1, (5,), "1"), (3, 1, "1"), (3, (2.0,), "0"), (2, [False], "0")), BINARY),
        "((1, (1,), '1'), (2, (0,), '0'), (3, (1,), '1'), (3, (2,), '0'))",
        [[1, "1", "1"], [2, "0", "0"], [3, "1", "1"], [3, "2", "0"]],
        "010101.1",
    ),
    (
        ToeplitzTable(
            SQUARE,
            ((1, (True, 0), "1"), (2, (0.0, 1.0), "0"), (2, [2, 3], "0"), (1, (5, 4), "1"), (3, (5, 6), "1")),
            BINARY,
        ),
        "((1, (1, 0), '1'), (2, (0, 1), '0'), (2, (2, 3), '0'), (3, (5, 6), '1'))",
        [[1, "1,0", "1"], [2, "0,1", "0"], [2, "2,3", "0"], [3, "5,6", "1"]],
        ".0...0..1.1.1.1....0...01.1.1.1..0...0..1.1.1.1....0...01.1.1.1.",
    ),
    (
        ToeplitzTable(SQUARE, ((1, (5, 2), "0"), (2, (True, True), "1"), (2, [1, 3], "1"), (3, (0.0, 7), "0")), BINARY),
        "((1, (1, 0), '0'), (2, (1, 1), '1'), (2, (1, 3), '1'), (3, (0, 7), '0'))",
        [[1, "1,0", "0"], [2, "1,1", "1"], [2, "1,3", "1"], [3, "0,7", "0"]],
        ".......001010101........0.0.0.0.........01010101........0.0.0.0.",
    ),
]


@pytest.mark.parametrize("case", range(len(GIVEN_REPS)))
def test_table_reps_are_stored_as_int_tuple_cells(case):
    # a rep equal to a cell of its domain is stored as that cell, not as
    # given, and every other rep as coset_rep reduces it
    table, assignments, triples, cells = GIVEN_REPS[case]
    assert repr(table.assignments) == assignments
    assert all(type(c) is int for _, r, _ in table.assignments for c in r)
    assert config_descriptor(table)["assignments"] == triples
    assert "".join(a or "." for a in table._cells) == cells


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


@pytest.mark.parametrize("rank", [1, 2])
def test_a_periodic_shift_is_the_cellwise_shift(rank):
    # (h·x)(f) = x(f + h) on F_level, read cell by cell through evaluate, for
    # a word given in a shuffled key order (and with bare-int keys in rank 1)
    # and for h negative and past the period
    chain = make_chain(rank, [2, 4, 8])
    level, dom = 2, chain.domain(2)
    letters = {f: "ab"[(3 * sum(f) + f[0] * f[-1]) % 5 < 2] for f in dom}
    order = dom[1::2] + dom[::2][::-1]
    words = [{f: letters[f] for f in order}]
    if rank == 1:
        words.append({f[0]: letters[f] for f in order})
    ab = Alphabet(("a", "b"))
    shifts = [(-1,) * rank, (-13,) * rank, (4,) * rank, (9,) * rank, (-5, 6)[:rank]]
    for word in words:
        x = Periodic(chain, level, word, ab)
        for h in shifts + ([-3, 7] if rank == 1 else []):
            y = shift(h, x)
            assert y.word == {f: evaluate(x, add(f, aselem(h, rank))) for f in dom}
            for g in rect((-6,) * rank, (6,) * rank):
                assert evaluate(y, g) == evaluate(x, add(g, aselem(h, rank)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_shifts_compose_and_invert(data):
    chain = data.draw(CHAINS)
    o, h1, h2 = data.draw(base_oracles(chain)), data.draw(elements(chain)), data.draw(elements(chain))
    lhs, rhs = shift(h1, shift(h2, o)), shift(add(h1, h2), o)
    back = shift(tuple(-c for c in h1), shift(h1, o))
    # one box, one cell wider, around o's box and every shifted box
    boxes = (o, shift(h2, o), lhs, rhs)
    lo = tuple(min(c) - 1 for c in zip(*(b.lo for b in boxes)))
    hi = tuple(max(c) + 1 for c in zip(*(b.hi for b in boxes)))
    for g in rect(lo, hi):
        assert evaluate(lhs, g) == evaluate(rhs, g) == evaluate(o, add(g, add(h1, h2)))
        assert evaluate(back, g) == evaluate(o, g)
    if chain.rank == 1:
        assert config_descriptor(back) == config_descriptor(o)
    else:  # no builtin rank-2 rule: the inverse passes the box test and fails on the rule
        with pytest.raises(ValueError, match="unknown oracle rule 'quadratic'"):
            config_descriptor(back)


def test_per_set_periodic_is_full_from_its_level():
    for n in (1, 2, 3):
        assert per_set(EVENS, n).reps == frozenset(CHAIN.domain(n))


def test_per_set_toeplitz_single_coset():
    table = ToeplitzTable(CHAIN, ((1, (0,), "a"),), Alphabet(("a", "b")))
    assert per_set(table, 1).reps == {(0,)}
    assert not per_set_letter(table, 1, "b").reps
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
        assert refine(previous, n).reps <= current.reps
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
    assert not same.confirmed.reps and same.exact


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
    assert refine(a, 2).reps == {(0,), (2,)}
    assert refine(a, 2).density() == a.density() == Fraction(1, 2)
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
    # the whole box [-R, R] against the shell scan over the reference lengths
    reference = geometric_box_lengths_oracle(Fraction(1, 2), 64)
    for n in range(-64, 65):
        assert evaluate(x, n) == block_alternating_letter_oracle(reference, n), n


def test_geometric_box_lengths_match_the_fraction_loop():
    for q in range(2, 80):
        for p in range(1, q):
            eps = Fraction(p, q)
            assert geometric_box_lengths(eps, 64) == geometric_box_lengths_oracle(eps, 64), eps
    # eps as the harness passes it: a "p/q" string or a decimal
    for eps in ("3/7", "0.3", "0.05", Fraction("0.999")):
        assert geometric_box_lengths(eps, 64) == geometric_box_lengths_oracle(eps, 64), eps


@pytest.mark.parametrize("eps", ["1/10", "1/3", "1/2", "2/3", "9/10"])
def test_block_alternating_bisect_matches_shell_scan(eps):
    x = block_alternating(Fraction(eps), radius=1)
    lengths = geometric_box_lengths_oracle(Fraction(eps), 64)
    cells = set(range(-50, 20001)) | {L + d for L in lengths for d in (-1, 0, 1)}
    for n in sorted(cells):
        assert x.rule((n,)) == block_alternating_letter_oracle(lengths, n), n


@pytest.mark.parametrize("eps", ["1/10", "1/3", "1/2", "2/3", "9/10"])
def test_block_alternating_at_radii_on_and_next_to_box_edges(eps):
    # the oracle builds its shells only up to the first box past the radius:
    # every cell of [-R, R] still reads as under all 64 boxes, with R on, just
    # below and just past a box edge (L_64 + 1 too for 1/10, where L_64 = 3120
    # and the cells past the 64th box read 0), Unknown just outside, and a read
    # of the rule past R builds the shells it needs
    lengths = geometric_box_lengths_oracle(Fraction(eps), 64)
    edges = [L for L in lengths if L <= 4000]
    for L in sorted({*edges[:6], *edges[-3:]}):
        for radius in (L - 1, L, L + 1):
            x = block_alternating(Fraction(eps), radius)
            letter = lambda n: block_alternating_letter_oracle(lengths, n)
            assert x.rule.letters(-radius, radius + 1) == "".join(map(letter, range(-radius, radius + 1)))
            for n in (-radius, L - 1, radius):
                assert evaluate(x, n) == letter(n), (radius, n)
            assert evaluate(x, -radius - 1) is None and evaluate(x, radius + 1) is None
            assert x.rule.letters(radius, radius + 300) == "".join(map(letter, range(radius, radius + 300)))
            assert x.rule((lengths[-1],)) == x.rule((lengths[-1] + 1,)) == "0"


def test_champernowne_digits_are_stateless_and_match_concatenation():
    from amenshift.configs import _champernowne_letters

    # no default-argument cache: a run is a pure function of its ends
    assert _champernowne_letters.__defaults__ is None
    digits = "".join(bin(k)[2:] for k in range(1, 20000))[:200000]
    assert len(digits) == 200000
    assert _champernowne_letters(0, 200000) == digits
    assert all(_champernowne_letters(n, n + 1) == d for n, d in enumerate(digits))
    x = champernowne_binary(64)
    assert [evaluate(x, g) for g in range(-2, 8)] == list("00" + digits[:8])


EPS_GRID = ["1/10", "1/3", "1/2", "2/3", "9/10"]


def builtin_edges(eps):
    """Where a builtin's letters change pattern: 0, Champernowne's k-bit block
    starts up to the 70-bit numbers', or the geometric shell edges L_0..L_64
    (the 64th box ends at L_64)."""
    if eps is None:
        return [0] + [sum(j << (j - 1) for j in range(1, k)) for k in range(1, 71)]
    return [0, *geometric_box_lengths_oracle(Fraction(eps), 64)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([None, *EPS_GRID]), st.data())
def test_builtin_runs_are_their_cell_letters(eps, data):
    # each builtin rule is its run reader: the letters on [a, b) are the
    # per-cell letters of the reference oracles, across negative n, the
    # Champernowne block starts, the shell edges and past the 64th box, and
    # the rule at (n,) is the run of length one; so are a shifted oracle's
    if eps is None:
        x, letter = champernowne_binary(1), champernowne_letter_oracle
    else:
        lengths = geometric_box_lengths_oracle(Fraction(eps), 64)
        x, letter = block_alternating(Fraction(eps), 1), lambda n: block_alternating_letter_oracle(lengths, n)
    a = data.draw(st.sampled_from(builtin_edges(eps))) + data.draw(st.integers(-70, 70))
    b = a + data.draw(st.integers(0, 150))
    want = "".join(map(letter, range(a, b)))
    assert x.rule.letters(a, b) == want
    assert [x.rule((n,)) for n in range(a, b)] == list(want)
    h = data.draw(st.integers(-40, 40))
    assert shift(h, x).rule.letters(a, b) == "".join(map(letter, range(a + h, b + h)))


def test_champernowne_letters_past_the_64_bit_numbers():
    # a run that starts inside the k-bit numbers, k up to 100, well past
    # their first number, reads the digits of the reference oracle
    x = champernowne_binary(10**23)
    assert evaluate(x, 1162144876643701751873) == champernowne_letter_oracle(1162144876643701751873) == "0"
    for k in range(60, 101):
        a = ((k - 2) << (k - 1)) + 1 + 10 * k  # the digits of the 11th k-bit number
        assert x.rule.letters(a, a + 300) == "".join(map(champernowne_letter_oracle, range(a, a + 300))), k


def test_descriptor_refuses_oracles_it_cannot_rebuild():
    for shifted in (shift(3, champernowne_binary(10)), shift((2, 2), quadratic_oracle(4))):
        with pytest.raises(ValueError, match="unshifted oracle on a centered box"):
            config_descriptor(shifted)
    off_center = Oracle(1, (0,), (10,), champernowne_binary(10).rule, BINARY, "champernowne_binary")
    with pytest.raises(ValueError, match="unshifted oracle on a centered box"):
        config_descriptor(off_center)
    custom = Oracle(1, (-4,), (4,), lambda g: "0", BINARY, name="custom")
    with pytest.raises(ValueError, match="unknown oracle rule 'custom'"):
        config_descriptor(custom)


def test_descriptor_refuses_a_rule_with_a_zero_denominator():
    # and a rule whose argument is no fraction: each refusal names the rule
    for rule, why in [("block_alternating(1/0)", "has a zero denominator"), ("block_alternating(x)", "needs a fraction")]:
        desc = {"variant": "oracle", "box": 3, "rule": rule}
        with pytest.raises(ValueError, match=re.escape(f"oracle rule {rule!r} {why}")):
            config_from_descriptor(desc, None)


@pytest.mark.parametrize("name", ["champernowne_binary", "block_alternating(1/2)"])
def test_descriptor_refuses_an_oracle_of_another_rank_than_its_rule(name):
    # the builtin rules are rank 1: a descriptor would rebuild a rank-1 oracle
    rule = champernowne_binary(3).rule
    square = Oracle(2, (-3, -3), (3, 3), rule, BINARY, name)
    with pytest.raises(ValueError, match=re.escape(f"oracle rule {name!r} is of rank 1, not 2")):
        config_descriptor(square)
    line = Oracle(1, (-3,), (3,), rule, BINARY, name)
    assert config_from_descriptor(config_descriptor(line), None).rank == 1


def test_descriptor_round_trip():
    for x in (
        EVENS,
        ToeplitzTable(CHAIN, ((1, (0,), "a"), (2, (1,), "b")), Alphabet(("a", "b"))),
    ):
        desc = config_descriptor(x)
        back = config_from_descriptor(desc, CHAIN)
        assert not disagreement_set(x, back).confirmed.reps

    oracle_desc = {"variant": "oracle", "box": 8, "rule": "block_alternating(1/2)"}
    x = config_from_descriptor(oracle_desc, None)
    assert evaluate(x, 0) == "1"
    assert config_descriptor(x)["rule"] == "block_alternating(1/2)"


# ---------------------------------------------------------------------------
# callers of the window-scan kernel against the lazy window walk, in rank 1
# and rank 2, with Unknown cells
# ---------------------------------------------------------------------------

CHAIN2 = make_chain(2, [2, 4, 8])


def outcome(call):
    """The value of call(), or the message of the UnknownMembership it raised,
    which names the first Unknown cell hit."""
    try:
        return call()
    except UnknownMembership as exc:
        return ("unknown", str(exc))


def walk_counts(member, shape, translates):
    """(max hits, max hits + Unknown) over the windows, as Fractions of |shape|."""
    lower = upper = 0
    for values in window_walk(member, shape, translates):
        hits = sum(1 for v in values if v)
        lower = max(lower, hits)
        upper = max(upper, hits + values.count(None))
    return Fraction(lower, len(shape)), Fraction(upper, len(shape))


def walk_delta_sup(x, z, shape, translates):
    return max(map(sum, window_walk(known_difference(x, z), shape, translates)))


def quadratic_oracle(radius):
    """An unshifted rank-2 oracle on [-radius, radius]^2."""
    rule = lambda g: "1" if (g[0] * g[0] + 3 * g[1]) % 5 < 2 else "0"
    return Oracle(2, (-radius,) * 2, (radius,) * 2, rule, BINARY, "quadratic")


def elements(chain, bound=6):
    return st.tuples(*[st.integers(-bound, bound)] * chain.rank)


def base_oracles(chain):
    """Unshifted oracles on centred boxes [-R, R]^d."""
    if chain.rank == 2:
        return st.builds(quadratic_oracle, st.integers(1, 5))
    return st.builds(
        lambda make, box: make(box),
        st.sampled_from([champernowne_binary, lambda r: block_alternating(Fraction(1, 2), r)]),
        st.integers(2, 10),
    )


def oracles(chain):
    return st.builds(shift, elements(chain), base_oracles(chain))


def unresolved_tables(chain):
    return st.builds(
        lambda depth, h: shift(h, regular_table(chain, ("0", "1"), depth, resolve_tail=False)),
        st.integers(1, chain.depth),
        elements(chain),
    )


def configurations(chain):
    """Configurations with Unknown cells: boxed oracles (shifted so boxes sit
    off-centre) and coset tables with an unresolved residual coset."""
    return st.one_of(oracles(chain), unresolved_tables(chain))


def resolved(chain):
    """Fully resolved configurations over chain: regular tables and random words."""
    word = st.integers(0, 2).flatmap(
        lambda level: st.lists(
            st.sampled_from("01"),
            min_size=chain.domain_size(level),
            max_size=chain.domain_size(level),
        ).map(lambda w: Periodic(chain, level, dict(zip(chain.domain(level), w)), BINARY))
    )
    table = st.builds(
        lambda depth, h: shift(h, regular_table(chain, ("0", "1"), depth)),
        st.integers(1, chain.depth),
        elements(chain),
    )
    return st.one_of(word, table)


def radii(chain):
    return st.integers(0, 8 if chain.rank == 1 else 3)


def subsets(data, chain, level):
    """A box, or a nonempty subset of the level domain in canonical order."""
    dom = chain.domain(level)
    if data.draw(st.booleans()):
        return dom
    return tuple(sorted(data.draw(st.sets(st.sampled_from(dom), min_size=1))))


def spans(data, chain):
    """A box of translates, or the same cells in another order, with a gap
    or with one cell twice."""
    lo = data.draw(elements(chain, 8))
    hi = tuple(c + data.draw(st.integers(0, 4 if chain.rank == 1 else 2)) for c in lo)
    F = rect(lo, hi)
    kind = data.draw(st.sampled_from(["box", "reversed", "gapped", "repeated"]))
    if kind == "reversed":
        return F[::-1]
    if kind == "gapped" and len(F) > 1:
        return F[:1] + F[2:]
    if kind == "repeated":
        return F + F[-1:]
    return F


CHAINS = st.sampled_from([CHAIN, CHAIN2])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unchecked_reader_matches_evaluate_on_every_cell_of_a_box(data):
    # the one letter walk of empirical measures and omega traces reads x._at
    # after one check; on cells of x's rank it must read what evaluate
    # reads, Unknown cells included
    chain = data.draw(CHAINS)
    shifted = st.tuples(base_oracles(chain), elements(chain))
    x = data.draw(st.one_of(shifted, unresolved_tables(chain), resolved(chain)))
    side = 30 if chain.rank == 1 else 10
    lo = data.draw(elements(chain, 12))
    if isinstance(x, tuple):
        # h·base reads base at g + h, inside base's box moved by -h
        base, h = x
        x = shift(h, base)
        inside = lambda g: all(a <= c + d <= b for a, c, d, b in zip(base.lo, g, h, base.hi))
        want = lambda g: base.rule(add(g, h)) if inside(g) else None
    else:
        table, q = period_table_oracle(x, x.max_level), chain.scale(x.max_level)
        want = lambda g: table[tuple(c % q for c in g)]
    for g in rect(lo, tuple(c + side - 1 for c in lo)):
        assert x._at(g) == evaluate(x, g) == want(g)


CHAIN3 = make_chain(3, [2, 4])


def cubic_oracle(radius):
    """An unshifted rank-3 oracle on [-radius, radius]^3."""
    rule = lambda g: "1" if (g[0] + 2 * g[1] * g[2]) % 3 == 0 else "0"
    return Oracle(3, (-radius,) * 3, (radius,) * 3, rule, BINARY, "cubic")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_box_reader_matches_evaluate_over_its_box(data):
    # x._read(lo, sides) is evaluate over rect(lo, lo + sides - 1), row-major,
    # Unknown cells included: ranks 1 to 3, negative corners, sides that are
    # not a cube, below and above the period
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2, CHAIN3]))
    base = base_oracles(chain) if chain.rank < 3 else st.builds(cubic_oracle, st.integers(1, 3))
    shifted = st.builds(shift, elements(chain), base)
    x = data.draw(st.one_of(shifted, unresolved_tables(chain), resolved(chain)))
    lo = data.draw(elements(chain, 12))
    # up to twice the deepest period and more (9 > 2 · 4 in rank 3)
    top = 2 * chain.scale(chain.depth) + 1
    sides = tuple(data.draw(st.integers(1, top)) for _ in range(chain.rank))
    hi = tuple(c + n - 1 for c, n in zip(lo, sides))
    assert list(x._read(lo, sides)) == [evaluate(x, g) for g in rect(lo, hi)]


def test_box_reader_checks_its_corner_before_reading_a_cell():
    # a corner of the wrong rank raises what evaluate raises, and no cell is read
    read = []
    x = Oracle(1, (-4,), (4,), lambda g: read.append(g) or "0", BINARY)
    message = r"^element \(0, 0\) has rank 2, expected 1$"
    for y in (x, EVENS, regular_table(CHAIN, ("0", "1"), resolve_tail=False)):
        with pytest.raises(ValueError, match=message):
            evaluate(y, (0, 0))
        with pytest.raises(ValueError, match=message):
            y._read((0, 0), (2, 2))
    assert read == []
    # a bare int corner is normalized as evaluate normalizes a bare int
    assert x._read(-2, (3,)) == [evaluate(x, g) for g in (-2, -1, 0)] and len(read) == 6


def rank_oracle(rank, lo, hi):
    """An oracle of any rank on rect(lo, hi), its rule a plain function."""
    return Oracle(rank, lo, hi, lambda g: "ab"[(sum(c * c for c in g) + g[0]) % 3 == 0], Alphabet(("a", "b")))


@st.composite
def clipped_oracles(draw, rank):
    """A builtin run reader (rank 1) or a plain rule of the given rank, on a
    declared box of sides 1..5, shifted or not."""
    lo = draw(st.tuples(*[st.integers(-4, 4)] * rank))
    hi = tuple(c + draw(st.integers(0, 4)) for c in lo)
    plain = rank_oracle(rank, lo, hi)
    if rank == 1 and draw(st.booleans()):
        make = draw(st.sampled_from([champernowne_binary, lambda r: block_alternating(Fraction(1, 3), r)]))
        plain = dataclasses.replace(plain, rule=make(1).rule)
    h = draw(st.tuples(*[st.integers(-6, 6)] * rank))
    return shift(h, plain) if draw(st.booleans()) else plain


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(clipped_oracles(d), st.data())))
def test_a_clipped_oracle_read_is_the_cell_walk(case):
    # _read clips lo + [0, sides) to the declared box once and fills None
    # runs outside it: it reads what one _at per cell reads, row-major, for
    # boxes inside, across and outside the declared box, with zero sides
    x, data = case
    lo = tuple(data.draw(st.integers(a - 8, b + 2)) for a, b in zip(x.lo, x.hi))
    sides = tuple(data.draw(st.integers(0, 10)) for _ in lo)
    assert x._read(lo, sides) == configs._points(x._at)(lo, sides)


def test_a_rule_is_never_called_outside_its_box():
    # reads over, across and beside the box [lo, hi] never call the rule (or
    # a run reader) outside it, in ranks 1 to 3, shifted oracles too
    def inside(g, lo, hi):
        if not all(a <= c <= b for a, c, b in zip(lo, g, hi)):
            raise AssertionError(f"rule called at {g}")
        return "a"

    def runs(a, b):
        if a < -2 or b > 4:
            raise AssertionError(f"run [{a}, {b}) read")
        return "a" * (b - a)

    for rank in (1, 2, 3):
        lo, hi = (-2,) * rank, (3,) * rank
        x = Oracle(rank, lo, hi, lambda g: inside(g, lo, hi), Alphabet(("a",)))
        run_reader = [dataclasses.replace(x, rule=configs._Runs(runs))] if rank == 1 else []
        for y in (x, shift((2,) * rank, x), *run_reader):
            for corner in itertools.product(range(-6, 6, 3), repeat=rank):
                for side in (0, 1, 4, 12):
                    letters = y._read(corner, (side,) * rank)
                    assert letters == configs._points(y._at)(corner, (side,) * rank)


def test_an_oracle_box_bound_that_is_not_an_int_is_refused_not_truncated():
    # bounds pass operator.index, as a Box's corner does: a float bound once
    # read cells 1..3 of (0.5,)..(3.5,), and a bare int failed on len()
    rule = lambda g: "0"
    for lo, hi, bad in [((0.5,), (3.5,), "lo"), ((0,), (3.5,), "hi"), (0, (3,), "lo"), ((0,), 3, "hi")]:
        value = {"lo": lo, "hi": hi}[bad]
        with pytest.raises(TypeError, match=re.escape(f"oracle bound {bad} must be a tuple of ints, not {value!r}")):
            Oracle(1, lo, hi, rule, BINARY)
    # integral bounds of other types are stored as int tuples
    x = Oracle(2, [True, 0], range(3, 5), rule, BINARY)
    assert (x.lo, x.hi) == ((1, 0), (3, 4)) and all(type(c) is int for c in x.lo + x.hi)


def test_evaluate_is_the_checked_entry():
    x = champernowne_binary(4)
    assert evaluate(x, 3) == evaluate(x, [3]) == x._at((3,))
    with pytest.raises(ValueError, match=r"^element \(0, 0\) has rank 2, expected 1$"):
        evaluate(x, (0, 0))
    with pytest.raises(ValueError, match="rank 2, expected 1"):
        evaluate(EVENS, (0, 0))
    with pytest.raises(TypeError, match="not a configuration"):
        evaluate({"variant": "oracle"}, (0,))


def test_sets_of_bare_ints_are_read_through_evaluate():
    # a rank-1 set may list bare ints: not a box of elements, so each cell is
    # normalized as evaluate normalizes it, as a set, a shape or a Weyl F
    x = champernowne_binary(16)
    assert empirical_measure(x, (0, 1, 2, 3)) == empirical_measure(x, rect((0,), (3,)))
    assert omega_profile(x, [(0, 1), (0, 1, 2)]).measures == omega_profile(x, [rect((0,), (1,)), rect((0,), (2,))]).measures
    pairs = empirical_measure(x, rect((0,), (3,)), shape=rect((0,), (1,)))
    assert empirical_measure(x, (0, 1, 2, 3), shape=rect((0,), (1,))) == pairs
    assert empirical_measure(x, rect((0,), (3,)), shape=(0, 1)) == pairs
    z = shift(1, x)
    assert weyl_upper_bound(x, z, (0, 1), 1) == weyl_upper_bound(x, z, rect((0,), (1,)), 1)


def test_respelled_cells_read_as_their_int_tuples():
    # bare ints, lists, integral floats and True name the cells their int
    # tuples name, also inside a box listed in canonical order, and a k-cover
    # is counted on those cells
    chain = make_chain(1, [2, 4, 8])
    x, z = regular_table(chain), regular_table(chain, ("b", "a"))
    canon = ((0,), (1,), (2,))
    spellings = [(0, 1, 2), ([0], [1], [2]), ((0,), (1.0,), (2,)), ((0,), (True,), (2,)), ((0.0,), [1], (2.0,))]
    for c in (x, champernowne_binary(10)):
        letters = empirical_measure(c, canon)
        prefix_walk = omega_profile(c, [canon[:2], canon]).measures
        for F in spellings:
            assert empirical_measure(c, F) == letters, F
            assert omega_profile(c, [canon[:2], F]).measures == prefix_walk, F
            assert empirical_measure(c, F, shape=((0,), (1,))) == empirical_measure(c, canon, shape=((0,), (1,)))
    values = delta_star_exact(x, z, canon), shearer_values(x, z, canon, [canon], 1)
    for F in spellings:
        assert delta_star_exact(x, z, F) == values[0], F
        assert shearer_values(x, z, F, [canon], 1) == shearer_values(x, z, canon, [F], 1) == values[1], F
    assert shearer_values(x, z, [0, 1], [[(0,), (1,)]], 1) == shearer_values(x, z, [(0,), (1,)], [[0, 1]], 1)
    # an Unknown window cell is named as an int cell
    bounded = Oracle(1, (0,), (1,), lambda g: "0", BINARY)
    with pytest.raises(UnknownMembership, match=r"at \(2,\)$"):
        empirical_measure(bounded, [(0,), (1.0,), (2,)], shape=[(0,), (True,)])
    # a set that lists a cell twice covers it once
    with pytest.raises(NotAKCover, match=r"^\(0,\) covered 1 < 2 times$"):
        shearer_values(x, z, [0], [[0, (0,), [0]]], 2)
    # a respelled box is normalized cell by cell, not read by its corner and sides
    assert configs._frame([(0,), (1.0,), (2,)]) == ((0,), (3,), [(0,), (1,), (2,)])
    assert configs._frame(canon)[2] is canon and configs._frame(rect((0,), (2,)))[:2] == ((0,), (3,))


def outcome(run):
    """run()'s value, or the type and message of the error it raises."""
    try:
        return run()
    except (UnknownMembership, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_box_and_its_respellings_agree(data):
    # a Box is read by its corner and sides; its cells as a plain tuple or a
    # list take the general path, to the same values and the same Unknown
    # message: ranks 1 to 3, oracles and tables with Unknown cells included
    chain = data.draw(st.sampled_from([CHAIN, CHAIN2, CHAIN3]))
    base = base_oracles(chain) if chain.rank < 3 else st.builds(cubic_oracle, st.integers(1, 3))
    unknown = st.one_of(st.builds(shift, elements(chain), base), unresolved_tables(chain))
    x, z = data.draw(unknown | resolved(chain)), data.draw(unknown | resolved(chain))
    F, shape = (
        Box(data.draw(elements(chain, 4)), data.draw(st.tuples(*[st.integers(1, 3)] * chain.rank)))
        for _ in range(2)
    )
    radius = data.draw(st.integers(0, 2))

    def results(F, shape):
        return [
            outcome(lambda: empirical_measure(x, F)),
            outcome(lambda: empirical_measure(x, F, shape)),
            outcome(lambda: omega_profile(x, [shape, F])),
            outcome(lambda: weyl_upper_bound(x, z, F, radius)),
            outcome(lambda: delta_star_exact(x, z, F)),
            outcome(lambda: shearer_values(x, z, F, [shape, F], 1, radius)),
        ]

    want = results(F, shape)
    for spell_F, spell_shape in itertools.product([lambda B: B, tuple, list], repeat=2):
        assert results(spell_F(F), spell_shape(shape)) == want


def test_an_unresolved_pair_builds_no_disagreement_array(monkeypatch):
    chain = make_chain(1, [2, 4, 8])
    resolved, unresolved = regular_table(chain), regular_table(chain, resolve_tail=False)
    assert not unresolved.fully_resolved()
    built = []
    real = metrics._coset_pair
    monkeypatch.setattr(metrics, "_coset_pair", lambda *pair: built.append(pair) or real(*pair))
    for x, z in [(resolved, unresolved), (unresolved, resolved), (unresolved, unresolved)]:
        with pytest.raises(ValueError, match="fully resolved"):
            delta_star_exact(x, z, ((0,), (1,)))
        assert weyl_upper_bound(x, z, ((0,), (1,))).exact is None
    assert built == []
    assert delta_star_exact(resolved, shift(1, resolved), ((0,),)) == 1
    assert len(built) == 1


def test_empty_shapes_read_no_cell():
    # Δ over the empty window is 0, and every window of the empty shape is
    # the empty pattern; the window scan needs a cell, so these read none
    x, z = regular_table(CHAIN, ("0", "1")), champernowne_binary(4)
    assert delta_star_exact(x, shift(1, x), ()) == 0
    assert shearer_values(x, z, ((0,),), [(), ((0,),)], 1, 2) == (1, [0, 1])
    assert empirical_measure(z, ball(1, 9), ()) == EmpiricalMeasure.point_mass(())


@pytest.fixture
def period_paths(monkeypatch):
    """The list of the paths ("box" or "rotate") period scans take while it is
    live: the kernel, or a window of the period array at an offset read
    outside it."""
    taken, scanning = [], []
    real_scan, real_window = metrics._BoxScan, metrics._window

    def scan(*args):
        taken.append("box")
        scanning.append(True)
        try:
            return real_scan(*args)
        finally:
            scanning.pop()

    def window(*args):
        # the kernel reads its union box as one window of the period array:
        # that read is the kernel's, not a rotation
        if not scanning:
            taken.append("rotate")
        return real_window(*args)

    monkeypatch.setattr(metrics, "_BoxScan", scan)
    monkeypatch.setattr(metrics, "_window", window)
    return taken


def test_delta_star_refuses_a_shape_of_another_rank(period_paths):
    # a rank-2 shape over the rank-1 period translates is refused, not cut to
    # rank 1, and before any rotation
    chain = make_chain(1, [2, 4, 8])
    x, z = regular_table(chain), regular_table(chain, ("b", "a"))
    with pytest.raises(ValueError, match="rank"):
        delta_star_exact(x, z, ((0, 0), (1, 3)))
    with pytest.raises(ValueError, match="rank"):
        delta_star_exact(x, z, ((0,), (1, 3)))
    assert period_paths == []


def test_shearer_refuses_a_cover_of_another_rank(period_paths):
    # a rank-2 cover over the rank-1 period translates is refused, not read
    # with rank-1 sides: a box one by the kernel, a sparse one before any rotation
    chain = make_chain(1, [2, 4, 8])
    x, z = regular_table(chain), regular_table(chain, ("b", "a"))
    for F in [rect((0, 0), (0, 1)), ((1, 3), (0, 0))]:
        with pytest.raises(ValueError, match="rank"):
            shearer_values(x, z, F, [F], 1)
    assert period_paths == ["box"]


def test_period_scans_take_the_kernel_for_boxes_and_rotations_otherwise(period_paths):
    x, z = regular_table(CHAIN2, ("0", "1")), regular_table(CHAIN2, ("1", "0"))
    box, sparse = CHAIN2.domain(1), ((3, -1), (0, 0), (0, 0))
    delta_star_exact(x, z, box)
    assert period_paths == ["box"]
    del period_paths[:]
    delta_star_exact(x, z, sparse)
    assert period_paths == ["rotate"] * 3
    del period_paths[:]
    # the weyl proxy scans its window through the kernel whatever F is
    weyl_upper_bound(x, z, sparse)
    assert period_paths == ["box"] + ["rotate"] * 3


def test_pattern_measure_refuses_translates_of_another_rank():
    # rank-2 translates of a rank-1 shape are refused, not cut to rank 1
    with pytest.raises(ValueError, match="rank"):
        empirical_measure(champernowne_binary(40), ((0,), (1,)), ((0, 0),))
    read = []
    with pytest.raises(ValueError, match="rank"):
        configs._BoxScan(lambda lo, sides: read.append(lo), ((0,), (1,)), ((0, 0),))
    assert read == []  # refused before any cell is read


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_windowed_density_matches_inline_loop(data):
    chain = data.draw(CHAINS)
    x = data.draw(configurations(chain))
    n, radius, letter = data.draw(st.integers(0, 2)), data.draw(radii(chain)), data.draw(st.sampled_from("01"))

    def member(g):
        v = evaluate(x, g)
        return None if v is None else v == letter

    est = banach_density_windowed(member, chain, n, radius)
    want = walk_counts(member, chain.domain(n), ball(chain.rank, radius))
    assert (est.lower, est.upper) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_windowed_dstar_matches_inline_loop(data):
    chain = data.draw(CHAINS)
    x, z = data.draw(configurations(chain)), data.draw(configurations(chain))
    if isinstance(x, ToeplitzTable) and isinstance(z, ToeplitzTable):
        z = data.draw(oracles(chain))  # keep the pair on the window branch
    n, radius = data.draw(st.integers(0, 2)), data.draw(radii(chain))
    rep = dstar_distance(x, z, n, radius, chain)
    assert rep.basis == "window-bracket"

    def member(g):
        a, b = evaluate(x, g), evaluate(z, g)
        return None if a is None or b is None else a != b

    want = walk_counts(member, chain.domain(n), ball(chain.rank, radius))
    assert (rep.value.lower, rep.value.upper) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_window_pattern_set_matches_inline_loop(data):
    chain = data.draw(CHAINS)
    x = data.draw(configurations(chain))
    n, radius = data.draw(st.integers(0, 2)), data.draw(radii(chain))
    new = outcome(lambda: pattern_set(x, n, radius, chain).patterns)
    walk = window_walk(known_letter(x), chain.domain(n), ball(chain.rank, radius))
    assert new == outcome(lambda: frozenset(map(tuple, walk)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_empirical_pattern_measure_matches_inline_loop(data):
    chain = data.draw(CHAINS)
    x = data.draw(configurations(chain))
    F, shape = spans(data, chain), chain.domain(data.draw(st.integers(0, 2)))
    new = outcome(lambda: empirical_measure(x, F, shape))

    def old():
        counts = {}
        for atom in map(tuple, window_walk(known_letter(x), shape, F)):
            counts[atom] = counts.get(atom, 0) + 1
        return EmpiricalMeasure.from_counts(counts)

    assert new == outcome(old)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weyl_proxy_matches_inline_loop(data):
    chain = data.draw(CHAINS)
    x, z = data.draw(configurations(chain)), data.draw(configurations(chain))
    F, radius = subsets(data, chain, data.draw(st.integers(0, 2))), data.draw(radii(chain))
    new = outcome(lambda: weyl_upper_bound(x, z, F, radius).window_proxy)
    translates = ball(chain.rank, radius)
    assert new == outcome(lambda: Fraction(walk_delta_sup(x, z, F, translates), len(F)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_besicovitch_averages_match_the_lazy_walk(data):
    chain = data.draw(CHAINS)
    x, z = data.draw(configurations(chain)), data.draw(configurations(chain))
    lo = data.draw(st.integers(0, chain.depth))
    hi = data.draw(st.integers(lo, chain.depth))
    new = outcome(lambda: besicovitch_estimate(x, z, chain, lo, hi).averages)
    e = ((0,) * chain.rank,)

    def old():
        return tuple(
            Fraction(walk_delta_sup(x, z, chain.domain(n), e), chain.domain_size(n))
            for n in range(lo, hi + 1)
        )

    assert new == outcome(old)


def test_besicovitch_raises_in_the_first_level_holding_an_unknown():
    # rows [-6, 0], columns [0, 6]: F_1 first meets Unknown at (1, 0), while
    # the first Unknown of F_3 in row-major order is (0, 7)
    x = shift((3, -3), quadratic_oracle(3))
    z = regular_table(CHAIN2, ("0", "1"))
    with pytest.raises(UnknownMembership, match=r"at \(1, 0\)$"):
        besicovitch_estimate(x, z, CHAIN2, 1, 3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_period_scans_match_the_lazy_walk(data):
    # exact Δ*, the weyl exact field and shearer_values scan one full period
    chain = data.draw(CHAINS)
    x, z = data.draw(resolved(chain)), data.draw(resolved(chain))
    period = chain.domain(max(x.max_level, z.max_level))
    F = subsets(data, chain, data.draw(st.integers(0, chain.depth)))
    cover = [subsets(data, chain, data.draw(st.integers(0, 2))) for _ in range(2)] + [F]
    assert delta_star_exact(x, z, F) == walk_delta_sup(x, z, F, period)
    assert weyl_upper_bound(x, z, F).exact == Fraction(walk_delta_sup(x, z, F, period), len(F))
    hf, hks = shearer_values(x, z, F, cover, 1)
    assert [hf, *hks] == [walk_delta_sup(x, z, K, period) for K in [F, *cover]]


def scattered(data, chain):
    """A nonempty shape that is mostly not a canonical box: cells unsorted,
    reaching outside F_p (negative coordinates too), a cell sometimes
    repeated and, in rank 1, sometimes bare ints."""
    cells = data.draw(st.lists(elements(chain, 20), min_size=1, max_size=8))
    if data.draw(st.booleans()):
        cells.append(data.draw(st.sampled_from(cells)))
    if chain.rank == 1 and data.draw(st.booleans()):
        return tuple(c for (c,) in cells)
    return tuple(cells)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rotation_scans_match_the_lazy_walk(data):
    # a fully resolved pair reads a shape that is not a box as rotations of
    # its disagreement array; the walk reads every window cell by cell
    chain = data.draw(CHAINS)
    x, z = data.draw(resolved(chain)), data.draw(resolved(chain))
    period = chain.domain(max(x.max_level, z.max_level))
    K = scattered(data, chain)
    cover = [K, K[::-1], K[:1]]
    walks = [walk_delta_sup(x, z, [aselem(f, chain.rank) for f in S], period) for S in cover]
    assert delta_star_exact(x, z, K) == walks[0]
    assert weyl_upper_bound(x, z, K).exact == Fraction(walks[0], len(K))
    hf, hks = shearer_values(x, z, K, cover, 1)
    assert [hf, *hks] == [walks[0], *walks]


def letter_trace(x, sets):
    """The omega trace of x along sets from the brute-force letter count: each
    set's measure, and each step as the max-flow Prokhorov distance, not its
    closed form TV."""
    measures = tuple(EmpiricalMeasure(tuple(letter_frequencies(x, F).items())) for F in sets)
    return measures, tuple(prokhorov_distance(b, a) for a, b in zip(measures, measures[1:]))


def omega_trace(x, sets):
    p = omega_profile(x, sets)
    return p.measures, p.steps


def check_against_letter_count(x, sets):
    """The omega trace along sets, and each set's letter measure, equal the
    brute-force count, or both raise at the same first Unknown cell."""
    assert outcome(lambda: omega_trace(x, sets)) == outcome(lambda: letter_trace(x, sets))
    for F in sets:
        assert outcome(lambda: empirical_measure(x, F)) == outcome(lambda: letter_trace(x, [F])[0][0])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_omega_profile_matches_per_set_empirical_measures(data):
    chain = data.draw(CHAINS)
    x = data.draw(configurations(chain))
    # nested boxes, interrupted now and then by a set that is not nested or by
    # the previous set with cells appended
    sets = []
    for n in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.integers(0, 4))
        if kind == 0:
            sets.append(spans(data, chain))
        elif kind == 1 and sets:
            sets.append(sets[-1] + spans(data, chain))
        else:
            sets.append(rect((0,) * chain.rank, (n,) * chain.rank))
    check_against_letter_count(x, sets)


def test_omega_profile_recounts_after_a_set_with_a_repeated_cell():
    x = regular_table(CHAIN, ("0", "1"))
    sets = [((0,), (1,), (1,)), ((0,), (1,), (2,)), ((0,), (1,), (2,), (3,))]
    check_against_letter_count(x, sets)
    # the sets may come one at a time
    assert omega_profile(x, iter(sets)) == omega_profile(x, sets)


@pytest.mark.parametrize(
    "x, sets",
    [
        # rank-2 chain domains: nested, but no one begins with the one before
        (regular_table(CHAIN2, ("0", "1")), [CHAIN2.domain(n) for n in range(4)]),
        (regular_table(CHAIN2, ("0", "1"), resolve_tail=False), [CHAIN2.domain(n) for n in range(4)]),
        # a superset that reorders the previous set
        (EVENS, [((0,), (1,), (2,)), ((2,), (1,), (0,), (3,)), ((2,), (1,), (0,), (3,), (4,))]),
        # a set that begins with the previous one and repeats a cell
        (EVENS, [((0,), (1,), (1,)), ((0,), (1,), (1,), (2,), (2,), (2,)), ((0,), (1,), (1,), (2,), (2,), (2,), (3,))]),
        # bare ints, then int-tuple cells that begin with the same cells
        (EVENS, [[0, 1], [0, 1, 2, 3, 3], ((0,), (1,), (2,), (3,), (3,), (5,))]),
        # Unknown: at (15,) in F_4, and (5,) met before (4,) outside the box
        (TABLE, [CHAIN.domain(n) for n in range(5)]),
        (TABLE, [tuple(reversed(CHAIN.domain(4)))]),
        (champernowne_binary(3), [rect((0,), (3,)), rect((0,), (3,)) + ((5,), (4,))]),
    ],
    ids=["rank2", "rank2-unknown", "reordered", "repeated", "bare-ints", "unknown", "unknown-reversed", "unknown-order"],
)
def test_omega_profile_matches_a_brute_force_letter_count(x, sets):
    check_against_letter_count(x, sets)


def box_sequences():
    """(oracle of box radius R, its nested Box sequence), R = 0..12: linear,
    geometric and rank-1 and rank-2 chain boxes, and rank-2 boxes that grow
    by rows (each begins with the one before) from corners in and outside
    the declared box."""
    chain1 = make_chain(1, [2, 4, 8, 16, 32])
    lengths = geometric_box_lengths(Fraction(1, 2), 6)
    for R in range(13):
        yield "linear", champernowne_binary(R), [Box((0,), (n + 1,)) for n in range(1, 30)]
        yield "geometric", block_alternating(Fraction(1, 2), R), [Box((0,), (L,)) for L in lengths]
        yield "chain", champernowne_binary(R), [chain1.domain(n) for n in range(6)]
        yield "chain", quadratic_oracle(R), [CHAIN2.domain(n) for n in range(4)]
        for lo, width in [((0, 0), 3), ((-2, -1), 4), ((-3, 0), 20)]:
            yield "rows", quadratic_oracle(R), [Box(lo, (n, width)) for n in range(1, 20)]


@pytest.mark.parametrize("boxes", ["linear", "geometric", "chain", "rows"])
def test_omega_over_a_box_ending_inside_a_set_names_its_first_unknown_cell(boxes):
    # each Box is counted from one read of the box or of the rows it adds;
    # where the oracle's box ends inside a set the trace raises at the first
    # Unknown cell the brute-force count meets, and a lazy iterable stops
    # before it builds the next set
    for kind, x, sets in box_sequences():
        if kind != boxes:
            continue
        built = []

        def lazy():
            for F in sets:
                built.append(F)
                yield F

        got = outcome(lambda: omega_trace(x, lazy()))
        assert got == outcome(lambda: letter_trace(x, sets)), (x, sets)
        unknown = [i for i, F in enumerate(sets) if None in map(x._at, F)]
        assert len(built) == (unknown[0] + 1 if unknown else len(sets))
        assert (got[0] is UnknownMembership) == bool(unknown)


# ---------------------------------------------------------------------------
# cost guards: the union-box kernel reads its union box once, so a point
# function read through _points is called once per cell
# ---------------------------------------------------------------------------


def bbox_sum(S, T):
    """The cells of bbox(S) + bbox(T), row-major."""
    lo = [min(a) + min(b) for a, b in zip(zip(*S), zip(*T))]
    hi = [max(a) + max(b) for a, b in zip(zip(*S), zip(*T))]
    return list(rect(lo, hi))


@pytest.mark.parametrize("chain, n, radius", [(CHAIN, 3, 5), (CHAIN2, 2, 2)])
def test_windowed_density_calls_member_once_per_union_cell(chain, n, radius):
    calls = []

    def member(g):
        calls.append(g)
        return sum(g) % 3 == 0

    banach_density_windowed(member, chain, n, radius)
    d = chain.rank
    # F_n + ball(radius) is the box [-radius, q_n - 1 + radius]^d, row-major
    assert calls == list(rect((-radius,) * d, (chain.scale(n) - 1 + radius,) * d))
    # any shape over any translates, here a Shearer cover set that is not a
    # box and translates reversed, gapped or repeated: once per cell of
    # bbox(S) + bbox(T), whatever |S|·|T| is
    F, T = chain.domain(n), ball(d, radius)
    cover = F[1::3] + F[:1]
    for S, translates in [(cover, T), (F, T[::-1]), (F, T[:1] + T[3:]), (cover, T + T[:2]), (cover, T[::-2])]:
        calls.clear()
        configs._BoxScan(configs._points(member), S, translates)
        assert calls == bbox_sum(S, translates)


@pytest.mark.parametrize("chain, n, radius", [(CHAIN, 3, 5), (CHAIN2, 2, 2)])
def test_window_pattern_set_evaluates_each_union_cell_once(chain, n, radius):
    calls = []

    def rule(g):
        calls.append(g)
        return "1" if sum(g) % 3 == 0 else "0"

    d = chain.rank
    x = Oracle(d, (-20,) * d, (20,) * d, rule, BINARY, "counting")
    pattern_set(x, n, radius, chain)
    assert calls == list(rect((-radius,) * d, (chain.scale(n) - 1 + radius,) * d))


def test_shearer_covers_and_krieger_keep_their_outputs():
    # values of the lazy walk these callers keep, for covers that are not boxes
    x = regular_table(CHAIN, ("0", "1"))
    z = Periodic(CHAIN, 2, {(0,): "1", (1,): "0", (2,): "0", (3,): "1"}, BINARY)
    F = tuple((g,) for g in range(6))
    cover = [F[0::2], F[1::2], F[:3], F[3:]]
    assert shearer_values(x, z, F, cover, 2) == (5, [3, 3, 3, 3])
    assert shearer_values(x, champernowne_binary(40), F, cover, 2, radius=9) == (6, [3, 3, 3, 3])
    x2 = regular_table(CHAIN2, ("0", "1"))
    z2 = Periodic(CHAIN2, 1, {(0, 0): "1", (0, 1): "0", (1, 0): "0", (1, 1): "0"}, BINARY)
    assert shearer_values(x2, z2, CHAIN2.domain(1), [((0, 0), (1, 1)), ((0, 1), (1, 0))], 1) == (
        2,
        [2, 2],
    )
    dyadic12 = make_chain(1, [2**k for k in range(1, 13)])
    result = krieger_construct(Fraction(1, 2), dyadic12, BINARY, 3)
    assert [s.window_count for s in result.stages] == [2, 4, 128, 0]
    result = krieger_construct(Fraction(1, 2), make_chain(2, [2, 4, 8, 16]), BINARY, 2)
    assert [s.window_count for s in result.stages] == [2, 8, 0]
