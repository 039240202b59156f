import math
import random
import re
from fractions import Fraction

import pytest

from amenshift.configs import BINARY, Periodic, champernowne_binary
from amenshift.entropy import (
    SampledSystem,
    binomial_tail,
    entropy_continuity_bound,
    entropy_estimates,
    es_binomial_bound_holds,
    es_entropy,
    pattern_counting_bound_holds,
    pattern_set,
    separated_max,
    spanning_min,
)
from amenshift.errors import DeltaOutOfRange, SystemTooLarge, UnknownMembership
from amenshift.groups import make_chain
from oracles import separated_max_oracle, spanning_min_oracle

CHAIN = make_chain(1, [2, 4, 8, 16, 32, 64])
EVENS = Periodic(CHAIN, 1, {(0,): "1", (1,): "0"}, BINARY)


# --- pattern sets -------------------------------------------------------------


def test_constant_config_has_one_pattern():
    ones = Periodic(CHAIN, 1, {(0,): "1", (1,): "1"}, BINARY)
    for n in (1, 2, 3):
        assert len(pattern_set(ones, n)) == 1


def test_even_indicator_two_patterns_at_level_two():
    ps = pattern_set(EVENS, 2)
    assert ps.exact
    assert ps.patterns == {("1", "0", "1", "0"), ("0", "1", "0", "1")}


def test_oracle_chain_of_another_rank_is_refused():
    # the shape would come from the chain and the translates from the oracle
    square = make_chain(2, [2, 4])
    with pytest.raises(ValueError, match="^chain rank 2 differs from the configuration's rank 1$"):
        pattern_set(champernowne_binary(8), 1, 2, square)
    with pytest.raises(ValueError, match="^chain rank 2 differs"):
        entropy_estimates(champernowne_binary(8), (1,), 2, square)


def test_champernowne_saturates_level_two():
    x = champernowne_binary(256)
    ps = pattern_set(x, 2, radius=200, chain=CHAIN)
    assert len(ps) == 16
    assert not ps.exact


def test_pattern_set_monotone_in_radius():
    x = champernowne_binary(256)
    counts = [len(pattern_set(x, 2, radius=r, chain=CHAIN)) for r in (4, 16, 64, 200)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_pattern_set_unknown_outside_box():
    x = champernowne_binary(4)
    with pytest.raises(UnknownMembership):
        pattern_set(x, 2, radius=16, chain=CHAIN)


def test_entropy_estimate_bounds_and_saturation():
    x = champernowne_binary(512)
    (est,) = entropy_estimates(x, (2,), radius=400, chain=CHAIN)
    assert est.saturated
    assert est.value == pytest.approx(math.log(16) / 4)
    assert 0 <= est.value <= math.log(2)


def test_periodic_entropy_tends_to_zero():
    values = [e.value for e in entropy_estimates(EVENS, range(1, 7))]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.05
    # pattern count stays bounded by the period while |F_n| grows
    assert entropy_estimates(EVENS, (6,))[0].pattern_count <= 2


# --- binary entropy -----------------------------------------------------------


def test_es_entropy_values():
    assert es_entropy(Fraction(1, 2)) == pytest.approx(1.0)
    assert es_entropy(Fraction(1, 10**6)) < 3e-5
    assert es_entropy(0) == 0.0 and es_entropy(1) == 0.0
    assert es_entropy(Fraction(1, 4)) == pytest.approx(0.8112781244591)


def test_binomial_tail_spot_value():
    # C(20,0)+...+C(20,5) computed directly
    assert binomial_tail(20, Fraction(1, 4)) == 21700
    rhs = 2 ** (20 * es_entropy(Fraction(1, 4)))
    assert rhs == pytest.approx(76626.86, abs=0.2)
    assert 21700 <= rhs


def test_es_binomial_bound_exact_grid():
    for n in range(1, 31):
        for k in range(1, 11):
            assert es_binomial_bound_holds(n, Fraction(k, 20))


def test_es_binomial_bound_oracle_comparison():
    # float evaluation of both sides agrees with the exact comparator
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randrange(1, 40)
        eps = Fraction(rng.randrange(1, 10), 20)
        float_holds = binomial_tail(n, eps) <= 2 ** (n * es_entropy(eps)) * (1 + 1e-9)
        assert es_binomial_bound_holds(n, eps) == float_holds


def test_counting_bound_comparator_against_floats():
    rng = random.Random(3)
    for _ in range(200):
        size = rng.choice((16, 32, 64))
        j = rng.randrange(0, size // 4)
        d = Fraction(j, size)
        cx = rng.randrange(1, 200)
        cz = rng.randrange(1, 200)
        exact = pattern_counting_bound_holds(cz, cx, d, size, 2)
        rhs_log = math.log(cx) + 2 * float(d) * size * math.log(2)
        if d > 0:
            rhs_log += math.log(2) * es_entropy(2 * d) * size
        float_holds = math.log(cz) <= rhs_log + 1e-9
        assert exact == float_holds


def test_continuity_bound_values():
    assert entropy_continuity_bound(Fraction(1, 1024), 2) < 0.02
    assert entropy_continuity_bound(Fraction(1, 8), 2) == pytest.approx(0.7356219, abs=1e-6)
    grid = [Fraction(k, 64) for k in range(1, 16)]
    values = [entropy_continuity_bound(d, 2) for d in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_continuity_bound_rejects_large_delta():
    with pytest.raises(DeltaOutOfRange):
        entropy_continuity_bound(Fraction(1, 4), 2)
    with pytest.raises(DeltaOutOfRange):
        entropy_continuity_bound(Fraction(1, 2), 2)


# --- sampled systems ----------------------------------------------------------


def test_identical_points_extremes():
    sys = SampledSystem.from_points([("1", "0")] * 4)
    assert separated_max(sys, Fraction(1, 2), Fraction(1, 4)) == 1
    assert spanning_min(sys, Fraction(1, 2), Fraction(1, 4)) == 1


def test_two_points_differing_everywhere():
    sys = SampledSystem.from_points([("0", "0"), ("1", "1")])
    assert separated_max(sys, Fraction(1, 2), Fraction(1, 2)) == 2


def test_spanning_at_most_separated():
    rng = random.Random(17)
    for _ in range(50):
        m = rng.randrange(2, 11)
        size = rng.randrange(3, 9)
        pts = [tuple(rng.choice("01") for _ in range(size)) for _ in range(m)]
        sys = SampledSystem.from_points(pts)
        delta = Fraction(2 * rng.randrange(0, size) + 1, 2 * size)  # never integral·|F|
        assert spanning_min(sys, Fraction(1, 2), delta) <= separated_max(
            sys, Fraction(1, 2), delta
        )


def test_monotonicity_in_eps_and_delta():
    rng = random.Random(19)
    pts = [tuple(rng.choice("01") for _ in range(8)) for _ in range(8)]
    sys = SampledSystem.from_points(pts)
    deltas = [Fraction(2 * j + 1, 16) for j in range(8)]
    seps = [separated_max(sys, Fraction(1, 2), d) for d in deltas]
    spans = [spanning_min(sys, Fraction(1, 2), d) for d in deltas]
    assert all(a >= b for a, b in zip(seps, seps[1:]))
    assert all(a >= b for a, b in zip(spans, spans[1:]))
    # eps beyond the alphabet diameter: separation impossible, spanning free
    assert separated_max(sys, Fraction(3, 2), deltas[0]) == 1
    assert spanning_min(sys, Fraction(3, 2), deltas[0]) == 1


def test_system_cap():
    pts = [tuple("01"[i % 2] for _ in range(3)) for i in range(21)]
    sys = SampledSystem.from_points(pts)
    # the cap is checked before ε ≥ 1 settles either number
    for eps in (Fraction(1, 2), Fraction(3, 2)):
        with pytest.raises(SystemTooLarge):
            separated_max(sys, eps, Fraction(1, 3))
        with pytest.raises(SystemTooLarge):
            spanning_min(sys, eps, Fraction(1, 3))
    # the cap itself still runs: two classes, each within itself identical
    at_cap = SampledSystem.from_points(pts[:20])
    assert separated_max(at_cap, Fraction(1, 2), Fraction(1, 3)) == 2
    assert spanning_min(at_cap, Fraction(1, 2), Fraction(1, 3)) == 2


def test_spanning_empty_window_has_no_spanning_set():
    # no point agrees with any other on more than (1 - δ)·0 = 0 positions
    sys = SampledSystem.from_points([(), ()])
    for eps in (Fraction(1, 2), Fraction(3, 2)):
        assert separated_max(sys, eps, Fraction(1, 2)) == 1
        with pytest.raises(ValueError, match="empty window"):
            spanning_min(sys, eps, Fraction(1, 2))


def test_a_system_has_at_least_one_point():
    with pytest.raises(ValueError, match="at least one point"):
        SampledSystem(3, ())
    with pytest.raises(ValueError, match="at least one point"):
        SampledSystem.from_points([])


def test_eps_at_least_one_is_one_at_the_cap():
    # the letter metric never exceeds 1: no pair is ε-apart, any point spans
    far = SampledSystem.from_points([format(w, "06b") for w in range(0, 60, 3)])
    for eps in (1, Fraction(3, 2)):
        for delta in (Fraction(1, 12), Fraction(1, 2), 1):
            assert separated_max(far, eps, delta) == separated_max_oracle(far, eps, delta) == 1
            assert spanning_min(far, eps, delta) == spanning_min_oracle(far, eps, delta) == 1


def test_search_parameters_read_alike_in_every_spelling():
    # thresholds come from ⌊δ|F|⌋ and ⌈δ|F|⌉ on δ's numerator and denominator;
    # δ|F| = 3, 4 and 8 are integral on |F| = 8, where the two meet
    rng = random.Random(31)
    systems = [
        SampledSystem.from_points([tuple(rng.choice("01") for _ in range(8)) for _ in range(m)])
        for m in (2, 5, 9)
    ]
    systems.append(SampledSystem.from_points(["00000000", "00001111", "11111111", "00111100"]))
    spellings = {
        Fraction(1, 2): (Fraction(1, 2), "1/2", 0.5),
        Fraction(1): (1, "1", 1.0, Fraction(1)),
        Fraction(3, 2): (Fraction(3, 2), "3/2", 1.5),
    }
    deltas = {
        Fraction(3, 8): (Fraction(3, 8), "3/8", 0.375),
        Fraction(1, 2): (Fraction(1, 2), "1/2", 0.5),
        Fraction(5, 16): (Fraction(5, 16), "5/16", 0.3125),
        Fraction(1): (1, "1", 1.0, Fraction(1)),
    }
    for sys in systems:
        for eps, eps_forms in spellings.items():
            for delta, delta_forms in deltas.items():
                sep = separated_max_oracle(sys, eps, delta)
                span = spanning_min_oracle(sys, eps, delta)
                for e in eps_forms:
                    for d in delta_forms:
                        case = (sys.diff_counts, e, d)
                        assert separated_max(sys, e, d) == sep, case
                        assert spanning_min(sys, e, d) == span, case


def test_search_parameters_out_of_range_are_refused():
    sys = SampledSystem.from_points(["0101", "0011"])
    bad = [(eps, Fraction(1, 2)) for eps in (0, "0", 0.0, -1, "-1/2", -0.5, Fraction(0))]
    bad += [(Fraction(1, 2), delta) for delta in (0, "0", 0.0, Fraction(0), "-1/4")]
    bad += [(Fraction(1, 2), delta) for delta in ("9/8", 1.5, 2, Fraction(5, 4))]
    bad += [(Fraction(3, 2), 0), (Fraction(3, 2), 2)]  # refused before ε ≥ 1 settles either
    for eps, delta in bad:
        for search in (separated_max, spanning_min):
            with pytest.raises(ValueError, match=re.escape("need eps > 0 and delta in (0, 1]")):
                search(sys, eps, delta)


def _search_cases():
    """(label, system) pairs: random systems and the structured shapes."""
    rng = random.Random(29)
    for t in range(160):
        m = rng.randrange(1, 15)
        size = rng.randrange(1, 11)
        letters = "01" if t % 3 else "012"
        pts = [tuple(rng.choice(letters) for _ in range(size)) for _ in range(m)]
        yield f"random {t}", SampledSystem.from_points(pts)
    for m in (2, 9, 14):
        # distinct points: at δ|F| = 1/2 every pair is separated (the bench shape)
        words = rng.sample(range(2**8), m)
        yield f"complete m={m}", SampledSystem.from_points([format(w, "08b") for w in words])
        yield f"identical m={m}", SampledSystem.from_points(["0110"] * m)
        dup = [tuple(rng.choice("01") for _ in range(6)) for _ in range((m + 1) // 2)]
        yield f"duplicated m={m}", SampledSystem.from_points((dup * 2)[:m])
    yield "single", SampledSystem.from_points(["101"])
    # every pair differs on exactly two cells: no edges in the separation
    # graph once δ|F| >= 2, and one point covers all once δ|F| > 2
    yield "one-hot", SampledSystem.from_points(
        [tuple("1" if i == j else "0" for i in range(10)) for j in range(10)]
    )


def test_searches_match_exhaustive_oracles():
    for label, sys in _search_cases():
        size = sys.window_size
        # the half-integer grid (2j+1)/(2|F|), the integer grid j/|F| and δ = 1
        deltas = [Fraction(k, 2 * size) for k in range(1, 2 * size + 1)]
        for eps in (Fraction(1, 2), 1, Fraction(3, 2)):
            for delta in deltas:
                case = (label, eps, delta)
                assert separated_max(sys, eps, delta) == separated_max_oracle(sys, eps, delta), case
                assert spanning_min(sys, eps, delta) == spanning_min_oracle(sys, eps, delta), case
