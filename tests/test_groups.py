import copy
import itertools
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from amenshift.configs import BINARY, CosetSet, Periodic, ToeplitzTable
from amenshift.errors import LevelOutOfRange, NonDividingScales
from amenshift.groups import Box, SubgroupChain, aselem, ball, box, make_chain, rect, sub
from oracles import folner_invariance_ratio, in_subgroup, translate

DYADIC = make_chain(1, [2, 4, 8])


def test_dyadic_chain_domains():
    assert DYADIC.domain(0) == ((0,),)
    assert DYADIC.domain(1) == ((0,), (1,))
    assert DYADIC.domain(3) == tuple((i,) for i in range(8))


def test_square_chain_domains():
    chain = make_chain(2, [2, 4])
    assert chain.domain(1) == tuple((i, j) for i in range(2) for j in range(2))
    assert len(chain.domain(2)) == 16
    assert all(0 <= c < 4 for g in chain.domain(2) for c in g)


def test_non_dividing_scales_rejected():
    with pytest.raises(NonDividingScales):
        make_chain(1, [2, 3])


def test_scales_must_increase():
    with pytest.raises(ValueError):
        make_chain(1, [4, 4])


def test_directly_built_chain_is_checked():
    with pytest.raises(NonDividingScales, match="^3 does not divide 4$"):
        SubgroupChain(1, (3, 4))
    with pytest.raises(ValueError, match="^scales must be strictly increasing"):
        SubgroupChain(1, (4, 4))
    with pytest.raises(ValueError, match="^rank must be a positive integer$"):
        SubgroupChain(0, (2,))
    with pytest.raises(ValueError, match="^scales must be positive integers$"):
        SubgroupChain(1, ())
    assert SubgroupChain(1, [2, 4]) == make_chain(1, (2, 4))
    assert SubgroupChain(1, [2, 4]).scales == (2, 4)


def test_chain_conditions_exhaustive():
    # make_chain checks only the scales; re-derive the four chain conditions
    # from scratch on every level
    families = [(1, [2, 4, 8, 16]), (1, [3, 6, 12, 24]), (2, [2, 4]), (2, [2, 4, 8])]
    for rank, scales in families:
        chain = make_chain(rank, scales)
        top = set(chain.domain(chain.depth))
        # (2) F_0 = {e} and the domains nest
        assert chain.domain(0) == ((0,) * rank,)
        for i in range(chain.depth):
            assert set(chain.domain(i)) <= set(chain.domain(i + 1))
        for i in range(chain.depth + 1):
            dom = chain.domain(i)
            # (3) F_i meets every coset of H_i exactly once
            assert len(set(dom)) == len(dom)
            assert {chain.coset_rep(g, i) for g in top} == set(dom)
            assert all(in_subgroup(chain, sub(g, chain.coset_rep(g, i)), i) for g in top)
            # (1) H_i ⊆ H_{i-1}, seen on H_i ∩ F_depth
            if i > 0:
                assert all(
                    in_subgroup(chain, v, i - 1) for v in chain.subgroup_in_domain(i, chain.depth)
                )
        # (4) F_{i+1} is the disjoint union of the translates F_i + v over
        # v in F_{i+1} ∩ H_i
        for i in range(chain.depth):
            big = set(chain.domain(i + 1))
            vs = [v for v in big if in_subgroup(chain, v, i)]
            seen = set()
            for v in vs:
                piece = set(translate(chain.domain(i), v))
                assert not (piece & seen)
                seen |= piece
            assert seen == big


def test_coset_rep_examples():
    assert DYADIC.coset_rep(5, 2) == (1,)
    assert DYADIC.coset_rep(-1, 1) == (1,)
    chain2 = make_chain(2, [4])
    assert chain2.coset_rep((5, 6), 1) == (1, 2)


@pytest.mark.parametrize("g", [(0.5,), (2.7,), (Fraction(5, 2),), (1, 0.5)])
def test_aselem_refuses_a_non_integral_coordinate(g):
    with pytest.raises(ValueError, match="non-integral"):
        aselem(g, len(g))


def test_aselem_normalizes_integral_coordinates_to_ints():
    for g, want in [((0.0,), (0,)), ((True,), (1,)), (3, (3,)), ([Fraction(4, 2), -1], (2, -1))]:
        got = aselem(g, len(want))
        assert got == want and all(type(c) is int for c in got)


def test_non_integral_elements_are_refused_where_they_enter():
    chain = make_chain(1, [2, 4, 8, 16])
    word = {(0.5,): "0", (1,): "1", (2,): "1", (3,): "0"}
    with pytest.raises(ValueError, match=r"\(0\.5,\)"):
        Periodic(chain, 2, word, BINARY)
    with pytest.raises(ValueError, match=r"\(2\.7,\)"):
        ToeplitzTable(chain, ((1, (2.7,), "0"),), BINARY)
    with pytest.raises(ValueError, match=r"\(0\.5,\)"):
        CosetSet.make(chain, 1, [(0.5,)])
    with pytest.raises(ValueError, match=r"\(2\.7,\)"):
        chain.coset_rep((2.7,), 1)


def test_coset_rep_level_out_of_range():
    with pytest.raises(LevelOutOfRange):
        DYADIC.coset_rep(0, 4)


@given(st.integers(-1000, 1000), st.integers(0, 3))
def test_coset_rep_idempotent_and_in_subgroup(g, n):
    rep = DYADIC.coset_rep(g, n)
    assert DYADIC.coset_rep(rep, n) == rep
    assert in_subgroup(DYADIC, (rep[0] - g,), n)


def test_folner_set_and_ball():
    assert DYADIC.domain(3) == tuple((i,) for i in range(8))
    assert ball(1, 2) == ((-2,), (-1,), (0,), (1,), (2,))
    assert ball(2, 1) == tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))


def test_folner_invariance_ratio_box_shift():
    F3 = DYADIC.domain(3)
    assert folner_invariance_ratio(F3, (1,)) == Fraction(2, 8)


def test_folner_ratio_decreases_with_level():
    chain = make_chain(1, [2, 4, 8, 16, 32])
    ratios = [folner_invariance_ratio(chain.domain(n), (1,)) for n in range(1, 6)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_subgroup_in_domain():
    assert DYADIC.subgroup_in_domain(1, 3) == ((0,), (2,), (4,), (6,))
    chain2 = make_chain(2, [2, 4])
    assert chain2.subgroup_in_domain(1, 2) == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_box_requires_positive_side():
    with pytest.raises(ValueError):
        box(1, 0)
    # rect and ball refuse an empty box through Box itself
    for build in (lambda: rect((0, 2), (1, 1)), lambda: ball(2, -1), lambda: Box((0, 0), (1,))):
        with pytest.raises(ValueError, match="needs one positive side per axis"):
            build()


@pytest.mark.parametrize(
    "build, lo, sides",
    [
        (lambda: box(2, 3), (0, 0), (3, 3)),
        (lambda: rect((-1, 2), (0, 4)), (-1, 2), (2, 3)),
        (lambda: ball(1, 2), (-2,), (5,)),
        (lambda: ball(3, 0), (0, 0, 0), (1, 1, 1)),
        (lambda: make_chain(2, [2, 4]).domain(2), (0, 0), (4, 4)),
        (lambda: DYADIC.domain(0), (0,), (1,)),
    ],
)
def test_boxes_know_their_corner_and_sides(build, lo, sides):
    B = build()
    cells = tuple(itertools.product(*(range(c, c + n) for c, n in zip(lo, sides))))
    assert type(B) is Box and (B.lo, B.sides) == (lo, sides)
    # equal to and hashed as the tuple of its cells in canonical order
    assert B == cells and hash(B) == hash(cells) and {B: 1}[cells] == 1
    assert repr(B) == repr(cells)
    for twin in (pickle.loads(pickle.dumps(B)), pickle.loads(pickle.dumps(B, 0)), copy.copy(B), copy.deepcopy(B)):
        assert type(twin) is Box and twin == B and (twin.lo, twin.sides) == (lo, sides)
    # a slice or a sum is a plain tuple, read as any other set
    assert type(B[:]) is tuple and type(B + ()) is tuple


def test_a_box_corner_or_side_that_is_not_an_int_is_refused_not_truncated():
    for build in (
        lambda: Box((0.5,), (2,)),
        lambda: Box((0,), (2.0,)),
        lambda: box(1, 2.5),
        lambda: rect((0,), (1.0,)),
        lambda: rect((0.5, 0), (2, 1)),
        lambda: ball(1, 1.5),
    ):
        with pytest.raises(TypeError):
            build()
    assert Box((True,), (2,)) == ((1,), (2,))


def test_domains_are_built_once_per_chain_and_level():
    chain = make_chain(2, [2, 4, 8])
    first = chain.domain(3)
    assert chain.domain(3) is first
    assert first == box(2, 8)
    assert chain._domain_set(3) is chain._domain_set(3) == frozenset(first)
    with pytest.raises(LevelOutOfRange):
        chain.domain(4)


def test_a_warm_chain_equals_a_cold_one():
    warm, cold = make_chain(1, [2, 4, 8]), make_chain(1, [2, 4, 8])
    for n in range(warm.depth + 1):
        warm.domain(n)
        warm._domain_set(n)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert repr(warm) == "SubgroupChain(rank=1, scales=(2, 4, 8))"
    for chain in (warm, cold):
        back = pickle.loads(pickle.dumps(chain))
        assert back == cold and hash(back) == hash(cold) and repr(back) == repr(cold)
        assert back.domain(3) == cold.domain(3)
    assert {warm: "a"}[cold] == "a"


def test_coset_sets_over_one_shared_chain_agree_across_threads():
    # more threads than cores read and fill one chain's domains while building
    # coset sets and complements, switching often; every thread must get the
    # one stored domain (a lost update hands two threads two tuples), and a
    # fresh chain per seed gives the serial results
    def build(chain, seed):
        rng = random.Random(seed)
        out = []
        for n in range(chain.depth + 1):
            dom = chain.domain(n)
            cs = CosetSet(chain, n, rng.sample(dom, rng.randrange(len(dom) + 1)))
            out.append((dom, cs, cs.complement(), cs.complement().complement() == cs))
        return out

    seeds = range(16)
    shared = make_chain(2, [2, 4, 8, 16])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(build, [shared] * len(seeds), seeds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(dom is shared.domain(n) for result in threaded for n, (dom, *_) in enumerate(result))
    assert threaded == [build(make_chain(2, [2, 4, 8, 16]), s) for s in seeds]
