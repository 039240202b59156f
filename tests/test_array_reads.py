"""The exact coset paths read the period array whole: none of them reads a
cell through ``_CosetTable._at``, ``lookup`` or ``evaluate``.  Each reader
is replaced by a counting wrapper, so a return to the per-cell walk fails
here; nothing is timed."""

import sys
from fractions import Fraction

import pytest

import amenshift
from amenshift import configs
from amenshift.configs import BINARY, Periodic, disagreement_set, per_set, per_set_letter
from amenshift.groups import make_chain
from amenshift.toeplitz import (
    krieger_construct,
    periodic_approximation,
    psi_path,
    regular_table,
    regularity_profile,
    verify_skeleton,
)

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
    for n in range(chain.depth + 1):
        periodic_approximation(resolved, n)
    periodic_approximation(unresolved, 1)
    assert cell_reads == []


def test_krieger_builder_reads_no_single_cell(cell_reads):
    krieger_construct(Fraction(1, 2), make_chain(1, [2**k for k in range(1, 12)]), BINARY, 3)
    krieger_construct(Fraction(1, 2), make_chain(2, [2, 4, 8, 16]), BINARY, 2)
    assert cell_reads == []


def test_the_counting_wrappers_see_a_cell_walk(cell_reads):
    # the guard itself: a point read through each entry is recorded
    x = regular_table(CHAIN, ("a", "b"))
    amenshift.configs.evaluate(x, 3)
    x.lookup(5)
    assert [name for name, _ in cell_reads] == ["evaluate", "_at", "lookup", "_at"]
