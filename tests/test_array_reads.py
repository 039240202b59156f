"""The exact coset paths read the period array whole: none of them reads a
cell through ``_CosetTable._at``, ``lookup`` or ``evaluate``.  Each reader
is replaced by a counting wrapper, so a return to the per-cell walk fails
here; nothing is timed."""

import sys
from fractions import Fraction

import pytest

import amenshift
from amenshift import configs
from amenshift.configs import BINARY, Periodic, per_set, per_set_letter
from amenshift.groups import make_chain
from amenshift.measures import empirical_measure
from amenshift.metrics import delta_star_exact, dstar_distance, shearer_values, weyl_upper_bound
from amenshift.toeplitz import (
    krieger_construct,
    periodic_approximation,
    psi_path,
    regular_table,
    regularity_profile,
    verify_skeleton,
)
from oracles import disagreement_set

CHAIN = make_chain(1, [2, 4, 8, 16, 32])
SQUARE = make_chain(2, [2, 4, 8])


@pytest.fixture
def cell_reads(monkeypatch):
    """The list of (reader, cell) of every per-cell read made while it is live."""
    reads = []

    def counting(name, reader):
        def wrapper(*args):
            reads.append((name, args[-1]))
            return reader(*args)

        return wrapper

    monkeypatch.setattr(configs._CosetTable, "_at", counting("_at", configs._CosetTable._at))
    monkeypatch.setattr(configs._CosetTable, "lookup", counting("lookup", configs._CosetTable.lookup))
    # every module that bound evaluate by name reads through its own binding
    wrapped = counting("evaluate", configs.evaluate)
    for name, module in sys.modules.items():
        if name.startswith("amenshift") and getattr(module, "evaluate", None) is configs.evaluate:
            monkeypatch.setattr(module, "evaluate", wrapped)
    return reads


@pytest.mark.parametrize("chain", [CHAIN, SQUARE], ids=["rank1", "rank2"])
def test_exact_coset_paths_read_no_single_cell(cell_reads, chain):
    unresolved = regular_table(chain, ("a", "b"), resolve_tail=False)
    resolved = regular_table(chain, ("b", "a"))
    word = Periodic(chain, 1, dict.fromkeys(chain.domain(1), "a"), unresolved.alphabet)
    path = psi_path(Fraction(1, 3), chain).table
    for x in (unresolved, resolved, word, path):
        for n in range(chain.depth + 1):
            per_set(x, n)
            per_set_letter(x, n, "a")
        verify_skeleton(x, chain.depth)
        regularity_profile(x, chain.depth)
        disagreement_set(x, resolved)
        disagreement_set(word, x)
        dstar_distance(x, resolved)
        dstar_distance(word, x)
    for n in range(chain.depth + 1):
        periodic_approximation(resolved, n)
    periodic_approximation(unresolved, 1)
    # fully resolved pairs scan their disagreement array over one period, for
    # an F and a cover that are boxes and for ones that are not
    dom = chain.domain(2)
    half = len(dom) // 2
    shapes = [(dom, [dom[:half], dom[half:]]), (dom[:0:-1], [dom[::2], dom[1::2], dom[:1]])]
    for x, z in [(resolved, resolved), (resolved, word), (word, resolved)]:
        for F, cover in shapes:
            delta_star_exact(x, z, F)
            shearer_values(x, z, F, cover, 1)
    assert cell_reads == []


def test_krieger_builder_reads_no_single_cell(cell_reads):
    krieger_construct(Fraction(1, 2), make_chain(1, [2**k for k in range(1, 12)]), BINARY, 3)
    krieger_construct(Fraction(1, 2), make_chain(2, [2, 4, 8, 16]), BINARY, 2)
    assert cell_reads == []


@pytest.mark.parametrize("chain", [CHAIN, SQUARE], ids=["rank1", "rank2"])
def test_scans_of_sets_that_are_not_boxes_check_only_their_first_cell(cell_reads, chain):
    # Shearer covers, a Weyl F and pattern translates that are not boxes go
    # through the one window scan: a windowed scan checks each side once
    # through evaluate, at its first cell S[0] + T[0], and _at reads every
    # cell; a scan of a periodic pair's disagreement array checks nothing
    resolved = regular_table(chain, ("a", "b"))
    # fully resolved too, but on another chain: the pair scans a window
    other = regular_table(make_chain(chain.rank, [3, 9]), ("b", "a"))
    dom = chain.domain(2)
    F, cover = dom[:0:-1], [dom[::2], dom[1::2], dom[:1]]
    below = lambda g: tuple(c - 1 for c in g)  # g + (-1, ..., -1), the ball's first cell

    def checks(run):
        del cell_reads[:]
        run()
        return [g for name, g in cell_reads if name == "evaluate"]

    firsts = [K[0] for K in [F, *cover]]
    # the periodic pair scans one period of translates of its disagreement
    # array, which reads no configuration cell
    assert checks(lambda: shearer_values(resolved, resolved, F, cover, 1)) == []
    assert checks(lambda: shearer_values(other, resolved, F, cover, 1, 1)) == [
        below(g) for g in firsts for _ in "xz"
    ]
    # only the window proxy reads the pair
    assert checks(lambda: weyl_upper_bound(resolved, resolved, F, 1)) == [below(F[0])] * 2
    assert checks(lambda: empirical_measure(resolved, F)) == [F[0]]
    assert checks(lambda: empirical_measure(resolved, F, dom[:2])) == [F[0]]
    assert len(cell_reads) > 1  # the pattern scan read its cells through _at


def test_the_counting_wrappers_see_a_cell_walk(cell_reads):
    # the guard itself: a point read through each entry is recorded
    x = regular_table(CHAIN, ("a", "b"))
    amenshift.configs.evaluate(x, 3)
    x.lookup(5)
    assert [name for name, _ in cell_reads] == ["evaluate", "_at", "lookup", "_at"]
