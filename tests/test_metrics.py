import itertools
from fractions import Fraction

import pytest

from amenshift.configs import (
    Alphabet,
    BINARY,
    Periodic,
    ToeplitzTable,
    block_alternating,
    champernowne_binary,
)
from amenshift.errors import LevelOutOfRange, NotAKCover
from amenshift.groups import make_chain
from amenshift.metrics import (
    besicovitch_estimate,
    delta_star_exact,
    dstar_distance,
    shearer_values,
    weyl_upper_bound,
)
from amenshift.toeplitz import psi_path, regular_table
from oracles import disagreement_set

CHAIN = make_chain(1, [2, 4, 8, 16])
EVENS = Periodic(CHAIN, 1, {(0,): "1", (1,): "0"}, BINARY)
ZEROS = Periodic(CHAIN, 1, {(0,): "0", (1,): "0"}, BINARY)
ONES = Periodic(CHAIN, 1, {(0,): "1", (1,): "1"}, BINARY)


def word_config(bits: str, level: int) -> Periodic:
    word = {(i,): b for i, b in enumerate(bits)}
    return Periodic(CHAIN, level, word, BINARY)


def test_dstar_examples():
    assert dstar_distance(ZEROS, ONES).value.value == 1
    assert dstar_distance(EVENS, ZEROS).value.value == Fraction(1, 2)
    assert dstar_distance(EVENS, EVENS).value.value == 0


def test_dstar_symmetry_and_triangle_on_periodic_family():
    family = [word_config(bits, 2) for bits in itertools.product("01", repeat=4)]
    family = family[::3]  # keep it small but varied
    for x, z in itertools.combinations(family, 2):
        assert dstar_distance(x, z).value.value == dstar_distance(z, x).value.value
    for x, z, w in itertools.combinations(family, 3):
        dxz = dstar_distance(x, z).value.value
        dxw = dstar_distance(x, w).value.value
        dwz = dstar_distance(w, z).value.value
        assert dxz <= dxw + dwz


def test_weyl_single_element_block_reduces_to_sup():
    bound = weyl_upper_bound(EVENS, ZEROS, ((0,),), radius=4)
    assert bound.exact == 1  # some translate hits a disagreement


def test_weyl_even_indicator_block_pair():
    # every translate window {g, g+1} contains exactly one even position
    bound = weyl_upper_bound(EVENS, ZEROS, CHAIN.domain(1))
    assert bound.exact == Fraction(1, 2)
    assert bound.window_proxy <= bound.exact


def test_weyl_zero_for_equal_configurations():
    for n in (1, 2, 3):
        bound = weyl_upper_bound(EVENS, EVENS, CHAIN.domain(n), radius=4)
        assert bound.window_proxy == 0 and bound.exact == 0


RESOLVED_TABLES = [
    regular_table(CHAIN, ("0", "1")),
    psi_path(Fraction(3, 8), CHAIN).table,
    ToeplitzTable(CHAIN, ((1, (0,), "1"), (2, (1,), "0"), (2, (3,), "1"), (3, (3,), "1")), BINARY),
]


def letter_at(x, g):
    """The letter at g read off the word or the assignment list; every
    assignment covering g carries the same letter."""
    if isinstance(x, Periodic):
        return x.word[CHAIN.coset_rep(g, x.level)]
    return next(a for lvl, r, a in x.assignments if CHAIN.coset_rep(g, lvl) == r)


def brute_force_sup(x, z, F):
    """max over one full period of translates (q_4 = 16 is a multiple of every
    period on CHAIN) of the disagreement count on F + g."""
    return max(
        sum(letter_at(x, f[0] + g) != letter_at(z, f[0] + g) for f in F) for g in range(16)
    )


def test_delta_star_matches_brute_force_window():
    pairs = [(word_config("0110", 2), word_config("0011", 2))]
    pairs += list(itertools.combinations(RESOLVED_TABLES, 2))
    pairs += [(word_config("0110", 2), table) for table in RESOLVED_TABLES]
    F = ((0,), (1,), (2,))
    cover = [((0,), (1,)), ((1,), (2,)), ((0,), (2,))]  # each cell twice
    for x, z in pairs:
        assert x.fully_resolved() and z.fully_resolved()
        best = brute_force_sup(x, z, F)
        assert delta_star_exact(x, z, F) == best
        assert weyl_upper_bound(x, z, F).exact == Fraction(best, len(F))
        hf, hks = shearer_values(x, z, F, cover, 2)
        assert (hf, hks) == (best, [brute_force_sup(x, z, K) for K in cover])


def test_besicovitch_examples():
    same = besicovitch_estimate(EVENS, EVENS, CHAIN, 1, 4)
    assert all(a == 0 for a in same.averages)
    half = besicovitch_estimate(EVENS, ZEROS, CHAIN, 1, 4)
    assert all(a == Fraction(1, 2) for a in half.averages)
    full = besicovitch_estimate(ZEROS, ONES, CHAIN, 1, 4)
    assert all(a == 1 for a in full.averages)


def test_besicovitch_names_the_levels_it_refuses():
    # CHAIN has depth 4
    with pytest.raises(LevelOutOfRange, match=r"^level 5 outside 0\.\.4$"):
        besicovitch_estimate(EVENS, ZEROS, CHAIN, 1, 5)
    with pytest.raises(LevelOutOfRange, match=r"^level -1 outside 0\.\.4$"):
        besicovitch_estimate(EVENS, ZEROS, CHAIN, -1, 2)
    with pytest.raises(ValueError, match=r"^level range 3\.\.2 is empty$"):
        besicovitch_estimate(EVENS, ZEROS, CHAIN, 3, 2)


def test_besicovitch_equals_folner_disagreement_average():
    # with the discrete letter metric the Besicovitch average IS the Følner
    # average of the disagreement indicator, by construction
    x, z = word_config("0101", 2), word_config("1101", 2)
    trace = besicovitch_estimate(x, z, CHAIN, 1, 4)
    for n, avg in zip(trace.levels, trace.averages):
        F = CHAIN.domain(n)
        direct = Fraction(
            sum(
                1
                for f in F
                if x.word[CHAIN.coset_rep(f, 2)] != z.word[CHAIN.coset_rep(f, 2)]
            ),
            len(F),
        )
        assert avg == direct


def test_dw_prime_collapses_to_dstar_for_periodic_pairs():
    # D_W' = inf{ε > 0 : D*({ρ > ε}) < ε}; with the discrete letter metric
    # {ρ > ε} is the disagreement set for ε < 1 and empty from ε = 1 on, so ε
    # qualifies exactly when it exceeds D* (at D* = 1 only ε ≥ 1 does), and
    # the infimum is D* itself, the value `--metric dwprime` reports
    pairs = [
        (EVENS, EVENS),
        (EVENS, ZEROS),
        (ZEROS, ONES),
        (word_config("0110", 2), word_config("1010", 2)),
    ]
    grid = [Fraction(k, 16) for k in range(1, 33)]
    for x, z in pairs:
        d = dstar_distance(x, z).value.value
        disagreement = disagreement_set(x, z).confirmed.density()
        qualifies = [eps for eps in grid if (disagreement if eps < 1 else 0) < eps]
        assert qualifies == [eps for eps in grid if eps > d or eps >= 1]


def test_dw_prime_examples():
    # `--metric dwprime` reports dstar_distance; on these pairs that value is
    # the infimum of the ε that qualify in D_W' = inf{ε > 0 : D*({ρ > ε}) < ε}
    grid = [Fraction(k, 64) for k in range(1, 129)]
    for x, z, expected in [(EVENS, EVENS, 0), (EVENS, ZEROS, Fraction(1, 2)), (ZEROS, ONES, 1)]:
        assert dstar_distance(x, z).value.value == expected
        disagreement = disagreement_set(x, z).confirmed.density()
        qualifies = [eps for eps in grid if (disagreement if eps < 1 else 0) < eps]
        assert all(eps > expected or eps >= 1 for eps in qualifies)
        assert [eps for eps in grid if eps > expected] == [eps for eps in qualifies if eps > expected]


def test_infimum_rule_consistency():
    # exact H(F_m)/|F_m| dominates the exact disagreement density and
    # approaches it as the averaging block grows
    x, z = EVENS, ZEROS
    target = dstar_distance(x, z).value.value
    previous = None
    for m in (1, 2, 3, 4):
        F = CHAIN.domain(m)
        value = Fraction(delta_star_exact(x, z, F), len(F))
        assert value >= target
        if previous is not None:
            assert value <= previous
        previous = value
    assert previous == target


def shearer_holds(x, z, F, cover, k, radius=0) -> bool:
    """Whether H(F) ≤ (1/k) Σ H(K_i) holds on this instance."""
    hf, hks = shearer_values(x, z, F, cover, k, radius)
    return hf <= Fraction(sum(hks), k)


def test_shearer_equality_single_cover():
    F = ((0,), (1,))
    assert shearer_holds(EVENS, ZEROS, F, [F], 1)
    hf, hks = shearer_values(EVENS, ZEROS, F, [F], 1)
    assert hf == hks[0]


def test_shearer_two_cover_triangle():
    F = ((0,), (1,), (2,))
    cover = [((0,), (1,)), ((1,), (2,)), ((0,), (2,))]
    assert shearer_holds(EVENS, ZEROS, F, cover, 2)
    x, z = word_config("0110", 2), word_config("1001", 2)
    assert shearer_holds(x, z, F, cover, 2)


def test_shearer_rejects_malformed_cover():
    F = ((0,), (1,), (2,))
    with pytest.raises(NotAKCover):
        shearer_values(EVENS, ZEROS, F, [((0,), (1,))], 1)


def test_shearer_empty_set_is_zero_for_every_pair():
    # the window ball takes the pair's rank, so an empty F with an empty
    # cover is (0, []) whether or not the pair is fully resolved
    chain = make_chain(1, [2, 4, 8])
    unresolved = (
        regular_table(chain, resolve_tail=False),
        regular_table(chain, ("b", "a"), resolve_tail=False),
    )
    oracles = (champernowne_binary(8), block_alternating(Fraction(1, 2), 8))
    for x, z in (unresolved, oracles, (EVENS, ZEROS)):
        assert shearer_values(x, z, (), [], 1, radius=2) == (0, [])


def test_dstar_toeplitz_interval():
    t1 = ToeplitzTable(CHAIN, ((1, (0,), "a"),), Alphabet(("a", "b")))
    t2 = ToeplitzTable(CHAIN, ((1, (0,), "b"),), Alphabet(("a", "b")))
    rep = dstar_distance(t1, t2)
    assert rep.value.lower == Fraction(1, 2)
    assert rep.value.upper == 1  # the other coset is unresolved on both sides
    assert not rep.value.exact


def test_windowed_dstar_for_oracle_pair():
    x = champernowne_binary(64)
    rep = dstar_distance(x, ZEROS, n=2, radius=8)
    assert rep.basis == "window-bracket"
    assert 0 < rep.value.lower <= rep.value.upper <= 1

    # two boxed oracles need the chain for the window shape
    y = block_alternating(Fraction(1, 2), radius=64)
    with pytest.raises(ValueError):
        dstar_distance(x, y, n=2, radius=8)
    rep = dstar_distance(x, y, n=2, radius=8, chain=CHAIN)
    assert rep.value.upper <= 1
