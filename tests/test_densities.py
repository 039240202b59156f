import inspect
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amenshift.configs import CosetSet, _BoxScan
from amenshift.densities import (
    WINDOW_CAVEAT,
    IntervalEstimate,
    banach_density_exact,
    banach_density_windowed,
    lower_banach_density,
)
from amenshift.groups import make_chain
from oracles import density_in, translate

CHAIN = make_chain(1, [2, 4, 8, 16, 32])


def evens(g):
    return g[0] % 2 == 0


def test_banach_density_exact_examples():
    cs = CosetSet.make(CHAIN, 2, [(0,), (1,)])
    assert banach_density_exact(cs).value == Fraction(2, 4)
    assert banach_density_exact(CosetSet(CHAIN, 2, frozenset())).value == 0
    assert banach_density_exact(CosetSet.make(CHAIN, 3, CHAIN.domain(3))).value == 1


def test_complement_densities_sum_to_one():
    cs = CosetSet.make(CHAIN, 3, [(0,), (3,), (5,)])
    d = banach_density_exact(cs).value
    dc = banach_density_exact(cs.complement()).value
    assert d + dc == 1


def test_lower_banach_density_examples():
    evens_set = CosetSet.make(CHAIN, 1, [(0,)])
    assert lower_banach_density(evens_set).value == Fraction(1, 2)
    assert lower_banach_density(CosetSet.make(CHAIN, 1, CHAIN.domain(1))).value == 1
    quarter = CosetSet.make(CHAIN, 2, [(0,)])
    assert lower_banach_density(quarter).value == Fraction(1, 4)


def test_windowed_evens_collapses_but_stays_flagged():
    est = banach_density_windowed(evens, CHAIN, 3, 16)
    assert est.lower == est.upper == Fraction(1, 2)
    assert not est.exact
    assert est.method == "windowed"
    assert est.caveat  # one-sidedness is recorded


def test_windowed_finite_set_sees_its_best_translate():
    # a single point has windowed density 1/|F_5| at its best translate even
    # though its true Banach density is 0; no finite level reaches 0
    est = banach_density_windowed(lambda g: g == (0,), CHAIN, 5, 64)
    assert est.lower == Fraction(1, 32)


def test_windowed_empty_set_is_zero():
    est = banach_density_windowed(lambda g: False, CHAIN, 3, 8)
    assert est.lower == est.upper == 0


def test_windowed_bracket_sums_the_upper_bound_only_when_a_cell_is_unknown(monkeypatch):
    # members {5, 6, 7}: the window [5, 9) of F_2 holds 3 of 4.  With every
    # cell known the bracket collapses from one prefix-sum pass; an Unknown
    # cell at 8 opens it to [3/4, 1] and takes a second pass for the upper bound
    passes = []
    window_sums = _BoxScan.window_sums
    monkeypatch.setattr(_BoxScan, "window_sums", lambda scan, cells: passes.append(cells) or window_sums(scan, cells))
    ones = {(5,), (6,), (7,)}
    est = banach_density_windowed(ones.__contains__, CHAIN, 2, 8)
    assert (est.lower, est.upper, est.exact, len(passes)) == (Fraction(3, 4), Fraction(3, 4), False, 1)
    passes.clear()
    est = banach_density_windowed(lambda g: None if g == (8,) else g in ones, CHAIN, 2, 8)
    assert (est.lower, est.upper, est.exact, len(passes)) == (Fraction(3, 4), 1, False, 2)
    assert est.caveat == WINDOW_CAVEAT


def test_windowed_lower_monotone_in_radius():
    member = {(i,) for i in range(5, 10)}.__contains__
    previous = Fraction(0)
    for radius in (0, 2, 4, 8, 16):
        est = banach_density_windowed(member, CHAIN, 2, radius)
        assert est.lower >= previous
        previous = est.lower


def test_windowed_matches_exact_on_coset_sets_once_period_visible():
    cs = CosetSet.make(CHAIN, 2, [(1,), (2,)])
    exact = banach_density_exact(cs).value
    for n in (2, 3, 4):
        est = banach_density_windowed(cs.__contains__, CHAIN, n, 4)
        assert est.lower == est.upper == exact


def test_density_shift_invariant_on_coset_sets():
    cs = CosetSet.make(CHAIN, 2, [(0,), (3,)])
    F2 = CHAIN.domain(2)
    base = density_in(F2, cs.__contains__)
    for g in ((1,), (5,), (-3,)):
        assert density_in(translate(F2, g), cs.__contains__) == base


def test_interval_estimate_invariants():
    with pytest.raises(ValueError):
        IntervalEstimate(Fraction(1, 2), Fraction(1, 4), False, "windowed")
    with pytest.raises(ValueError):
        IntervalEstimate(Fraction(1, 4), Fraction(1, 2), True, "exact-coset")
    # a bound that is no int or Fraction is refused by name: a float would
    # be emitted as a float, and a str failed the order check with TypeError
    for lower, upper, bad in [(0.25, Fraction(1, 2), "0.25"), (0, 0.5, "0.5"), ("1/4", 1, "'1/4'")]:
        with pytest.raises(ValueError, match=re.escape(f"bound {bad} is not an int or a Fraction")):
            IntervalEstimate(lower, upper, False, "x")
    assert IntervalEstimate(0, 1, False, "x").upper == 1
    est = IntervalEstimate.of(Fraction(1, 3), "exact-coset")
    assert est.value == Fraction(1, 3)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-2, 10),
    st.integers(-2, 10),
    st.integers(1, 8),
    st.booleans(),
    st.sampled_from([None, "a caveat"]),
)
def test_counted_estimate_is_the_public_constructor_on_counts(lower, upper, size, exact, caveat):
    # the counts are checked in ints, so they must refuse exactly where the
    # Fraction checks of the public constructor refuse, with the same message
    try:
        public = IntervalEstimate(Fraction(lower, size), Fraction(upper, size), exact, "windowed", caveat)
    except ValueError as refusal:
        with pytest.raises(ValueError, match=re.escape(str(refusal))):
            IntervalEstimate._counted(lower, upper, size, exact, "windowed", caveat)
        return
    counted = IntervalEstimate._counted(lower, upper, size, exact, "windowed", caveat)
    assert counted == public and hash(counted) == hash(public)
    assert type(counted.lower) is type(counted.upper) is Fraction


def test_counted_estimate_survives_pickling():
    est = IntervalEstimate._counted(1, 3, 4, False, "windowed", "window caveat")
    back = pickle.loads(pickle.dumps(est))
    assert back == est and (back.lower, back.upper, back.caveat) == (Fraction(1, 4), Fraction(3, 4), "window caveat")


def test_coset_set_stores_its_reps_as_a_frozenset():
    # a repeated representative counts once, whatever iterable carries it
    chain = make_chain(1, [2, 4])
    twice = CosetSet(chain, 2, [(0,), (0,)])
    assert twice.reps == frozenset({(0,)}) and isinstance(twice.reps, frozenset)
    assert banach_density_exact(twice).value == Fraction(1, 4)
    for reps in ([(0,), (3,)], {(0,), (3,)}, ((0,), (3,)), iter([(3,), (0,)])):
        cs = CosetSet(chain, 2, reps)
        assert cs == CosetSet.make(chain, 2, [(0,), (3,)])
        assert hash(cs) == hash(CosetSet.make(chain, 2, [(0,), (3,)]))
        assert cs.complement().reps == {(1,), (2,)}
        assert lower_banach_density(cs).value == Fraction(1, 2)
    # the complement is built without the subset check; it is still the
    # checked CosetSet of its reps, and complementing twice gives B back
    cs = CosetSet(chain, 2, [(0,), (3,)])
    complement = cs.complement()
    checked = CosetSet(chain, 2, [(1,), (2,)])
    assert complement == checked and hash(complement) == hash(checked)
    assert pickle.loads(pickle.dumps(complement)) == checked
    assert complement.complement() == cs and hash(complement.complement()) == hash(cs)
    assert CosetSet(chain, 2, []).complement() == CosetSet(chain, 2, chain.domain(2))


def test_coset_set_refuses_bare_ints_that_make_normalizes():
    chain = make_chain(1, [2, 4])
    with pytest.raises(ValueError, match="fundamental domain"):
        CosetSet(chain, 2, [0, 3])
    with pytest.raises(ValueError, match="fundamental domain"):
        CosetSet(chain, 2, [(4,)])
    with pytest.raises(ValueError, match="fundamental domain"):
        CosetSet(chain, 1, chain.domain(2))
    with pytest.raises(ValueError, match="fundamental domain"):
        CosetSet.make(chain, 2, [-1])
    assert CosetSet.make(chain, 2, [0, 3]).reps == {(0,), (3,)}


def test_windowed_density_signature_binds_member_chain_n_radius():
    # callers and tracing wrappers bind the arguments by these names
    assert list(inspect.signature(banach_density_windowed).parameters) == ["member", "chain", "n", "radius"]
