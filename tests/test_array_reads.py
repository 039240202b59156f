"""The exact coset paths read the period array whole, and window scans read
a configuration's union box whole: none of them reads a coset table's cell
through ``_CosetTable._at``, ``lookup`` or ``evaluate``.  Each reader is
replaced by a counting wrapper, so a return to the per-cell walk fails here;
box reads through ``_read`` and the skeleton check's compares with a shifted
window are counted the same way.
Nothing is timed."""

import ast
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import amenshift
from amenshift import configs, suites, toeplitz
from amenshift.cli import main
from amenshift.configs import (
    BINARY,
    Alphabet,
    Oracle,
    Periodic,
    ToeplitzTable,
    config_descriptor,
    per_set,
    per_set_letter,
    shift,
)
from amenshift.entropy import pattern_set
from amenshift.groups import Box, add, make_chain
from amenshift.measures import empirical_measure, omega_profile
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
from test_harness import COLUMN_TYPE_PINS, README_EXAMPLES_SHA256

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
    # every module that bound evaluate by name reads through its own binding:
    # configs' and measures' alike, so the original is kept before any is set
    evaluate = configs.evaluate
    wrapped = counting("evaluate", evaluate)
    for name, module in sys.modules.items():
        if name.startswith("amenshift") and getattr(module, "evaluate", None) is evaluate:
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
        for N in range(chain.depth + 1):
            verify_skeleton(x, N)
            regularity_profile(x, N)
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


@pytest.fixture
def box_reads(monkeypatch):
    """The list of (configuration, corner) of every box read made while it is live."""
    reads = []
    for cls in (configs._CosetTable, configs.Oracle):

        def counting(x, lo, sides, read=cls._read):
            reads.append((x, lo))
            return read(x, lo, sides)

        monkeypatch.setattr(cls, "_read", counting)
    return reads


def corner(K):
    """The corner of K's bounding box."""
    return tuple(map(min, zip(*K)))


@pytest.mark.parametrize("chain", [CHAIN, SQUARE], ids=["rank1", "rank2"])
def test_a_scan_reads_each_configuration_once(box_reads, cell_reads, chain):
    # Shearer covers, a Weyl F and pattern translates that are not boxes go
    # through the one window scan: it reads each side once, through _read,
    # on the union box bbox(K) + bbox(translates), from that box's corner; a
    # scan of a periodic pair's disagreement array reads no configuration, and
    # building that array reads each side once, on F_p from its corner e
    resolved = regular_table(chain, ("a", "b"))
    # fully resolved too, but on another chain: the pair scans a window
    other = regular_table(make_chain(chain.rank, [3, 9]), ("b", "a"))
    dom = chain.domain(2)
    F, cover = dom[:0:-1], [dom[::2], dom[1::2], dom[:1]]
    below = lambda K: tuple(c - 1 for c in corner(K))  # plus the ball's corner (-1, ..., -1)

    def reads(run):
        del box_reads[:]
        run()
        return box_reads[:]

    e = (0,) * chain.rank
    assert reads(lambda: shearer_values(resolved, resolved, F, cover, 1)) == [(resolved, e)] * 2
    assert reads(lambda: shearer_values(other, resolved, F, cover, 1, 1)) == [
        (y, below(K)) for K in [F, *cover] for y in (other, resolved)
    ]
    # the window proxy reads the pair around F, the exact value builds D
    proxy, exact = [(resolved, below(F))] * 2, [(resolved, e)] * 2
    assert reads(lambda: weyl_upper_bound(resolved, resolved, F, 1)) == proxy + exact
    shape = dom[:2]
    assert reads(lambda: empirical_measure(resolved, F, shape)) == [(resolved, add(corner(shape), corner(F)))]
    assert cell_reads == []
    # the letter walk of a measure checks x at F[0] and reads each cell through _at
    assert reads(lambda: empirical_measure(resolved, F)) == []
    assert [g for name, g in cell_reads if name == "evaluate"] == [F[0]]
    assert [g for name, g in cell_reads if name == "_at"] == [F[0], *F]  # evaluate's, then the walk's


@pytest.mark.parametrize("chain", [CHAIN, SQUARE], ids=["rank1", "rank2"])
def test_a_box_letter_walk_reads_its_configuration_once(box_reads, cell_reads, chain):
    # a Box is counted from one _read: the whole box, or after a Box it
    # begins with, the rows it adds; the walk reads no cell through _at, so
    # the one _at per set is evaluate's check of the set's first cell
    x = regular_table(chain, ("a", "b"))
    dom = chain.domain(3)
    assert empirical_measure(x, dom) == empirical_measure(x, list(dom))
    del box_reads[:], cell_reads[:]
    empirical_measure(x, dom)
    assert box_reads == [(x, dom.lo)]
    assert cell_reads == [("evaluate", dom.lo), ("_at", dom.lo)]
    lo, width = (-1,) * chain.rank, (3,) * (chain.rank - 1)
    rows = [Box(lo, (n, *width)) for n in (2, 5, 6)]
    del box_reads[:], cell_reads[:]
    omega_profile(x, rows)
    assert box_reads == [(x, lo), (x, (1, *lo[1:])), (x, (4, *lo[1:]))]
    assert [name for name, _ in cell_reads] == ["evaluate", "_at"] * 3


def test_an_entropy_level_range_reads_its_configuration_once(box_reads, monkeypatch, capsys):
    # every level of the range is counted from one read of the union box of
    # the deepest level's windows, windowed or over one period
    oracle = json.dumps({"variant": "oracle", "box": 64, "rule": "champernowne_binary"})
    table = json.dumps(config_descriptor(regular_table(CHAIN, ("a", "b"))))
    for config, window in [(oracle, ["--window", "3"]), (table, [])]:
        del box_reads[:]
        argv = ["entropy", "--scales", "2,4,8,16,32", "--config", config, "--level-lo", "1", "--level-hi", "5"]
        assert main([*argv, *window]) == 0
        assert len(json.loads(capsys.readouterr().out)["items"]) == 5
        assert len(box_reads) == 1
    # and so are the regular suite's eight levels
    reads, estimates = [], suites.entropy_estimates

    def counted(*args):
        before = len(box_reads)
        result = estimates(*args)
        reads.append(len(box_reads) - before)
        return result

    monkeypatch.setattr(suites, "entropy_estimates", counted)
    suites.suite_regular()
    assert reads == [1]


@pytest.mark.parametrize("chain", [CHAIN, SQUARE], ids=["rank1", "rank2"])
def test_windowed_scans_read_no_single_table_cell(cell_reads, capsys, chain):
    d, q = chain.rank, chain.scale(chain.depth)
    table = regular_table(chain, ("0", "1"))
    unresolved = regular_table(chain, ("0", "1"), resolve_tail=False)
    # its one Unknown cell in F_depth moved from q - 1 to q/2 - 1 on each
    # axis, outside the pattern windows below
    moved = shift((q // 2,) * d, unresolved)
    other = regular_table(make_chain(d, [3, 9]), ("1", "0"))
    oracle = Oracle(d, (-40,) * d, (40,) * d, lambda g: "01"[sum(g) % 3 == 0], BINARY)
    dom = chain.domain(2)
    F, cover = dom[:0:-1], [dom[::2], dom[1::2], dom[:1]]
    dstar_distance(table, oracle, 2, 3, chain)
    dstar_distance(oracle, unresolved, 2, 3, chain)
    weyl_upper_bound(table, other, F, 2)
    shearer_values(other, table, F, cover, 1, 2)
    assert not pattern_set(moved, 1, 1).exact
    empirical_measure(moved, dom[:2], chain.domain(1))
    scales = ",".join(map(str, chain.scales))
    desc = json.dumps(config_descriptor(unresolved))
    assert main(["density", "--rank", str(d), "--scales", scales, "--config", desc, "--letter", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["items"]
    assert cell_reads == []


def test_the_anchor_and_the_readme_commands_scan_boxes_only(monkeypatch, capsys):
    # a window scan reads a Box by its corner and sides and any other set cell
    # by cell, so a box built as a plain tuple would silently take the slow
    # path: every set the kernel frames while `verify --suite all --seed 7`
    # and the README and column-type commands run is a Box, but for the
    # shearer suite's sampled shapes
    framed, source = [], ["cli"]
    frame = configs._frame
    monkeypatch.setattr(configs, "_frame", lambda S: framed.append((source[0], S)) or frame(S))

    def tagged(name, suite):
        def run(seed):
            source[0] = name
            return suite(seed=seed)

        return run

    for name, suite in list(suites.SUITES.items()):
        monkeypatch.setitem(suites.SUITES, name, tagged(name, suite))
    assert main(["verify", "--suite", "all", "--seed", "7"]) == 0
    verify = len(framed)
    source[0] = "cli"
    for argv, *_ in [*README_EXAMPLES_SHA256.values(), *COLUMN_TYPE_PINS.values()]:
        main(argv)
    capsys.readouterr()
    # _BoxScan frames its shape, then its translates
    assert len(framed) % 2 == 0 and 0 < verify < len(framed)
    for (name, shape), (_, translates) in zip(framed[::2], framed[1::2]):
        assert type(translates) is Box, name
        assert type(shape) is Box or name == "shearer", name


def test_the_counting_wrappers_see_a_cell_walk(cell_reads):
    # the guard itself: a point read through each entry is recorded
    x = regular_table(CHAIN, ("a", "b"))
    amenshift.configs.evaluate(x, 3)
    x.lookup(5)
    assert [name for name, _ in cell_reads] == ["evaluate", "_at", "lookup", "evaluate", "_at"]
    # the letter walk of measures reads through its own binding of evaluate
    del cell_reads[:]
    empirical_measure(x, [3, 5])
    assert cell_reads == [("evaluate", 3), ("_at", (3,)), ("_at", (3,)), ("_at", (5,))]


@pytest.fixture
def rotations(monkeypatch):
    """The list of (q, sides, g) of every skeleton compare (``toeplitz._fixes``)
    made while it is live: the labels of [0, q)^d against their window at g."""
    calls = []
    fixes = toeplitz._fixes

    def counting(rows, q, g):
        calls.append((q, (q,) * len(g), g))
        return fixes(rows, q, g)

    monkeypatch.setattr(toeplitz, "_fixes", counting)
    return calls


def rarest_class_sizes(x, N):
    """The size of the rarest label class of F_n for n = 1..N, counted from
    per_set_letter and per_set: one class per letter, one for the cells off
    the periodic part."""
    sizes = []
    for n in range(1, N + 1):
        classes = [len(per_set_letter(x, n, a).reps) for a in x.alphabet.letters]
        classes.append(x.chain.domain_size(n) - len(per_set(x, n).reps))
        sizes.append(min(c for c in classes if c))
    return sizes


@pytest.mark.parametrize("chain", [CHAIN, SQUARE], ids=["rank1", "rank2"])
def test_regular_tables_confirm_no_shift(rotations, chain):
    # the one undecided cell of each level is a label class of its own, so no
    # shift is left to compare; with the tail resolved, the last level gives
    # the residual coset of the last level but one a single letter, so only
    # the levels above those two keep an undecided cell
    for tail, top in [(False, chain.depth), (True, chain.depth - 2)]:
        x = regular_table(chain, ("a", "b"), resolve_tail=tail)
        for N in range(top + 1):
            assert rarest_class_sizes(x, N) == [1] * N
            assert verify_skeleton(x, N).separation_ok
    assert rotations == []


@pytest.mark.parametrize("chain", [CHAIN, SQUARE], ids=["rank1", "rank2"])
def test_skeleton_checks_compare_at_most_the_rarest_class_less_one_shift_per_level(rotations, chain):
    e = (0,) * chain.rank
    q = chain.scale(2)
    tables = [
        regular_table(chain, ("a", "b")),
        psi_path(Fraction(1, 3), chain).table,
        Periodic(chain, 0, {e: "a"}, Alphabet(("a",))),
        Periodic(chain, 2, {f: "ab"[f[-1] % 2] for f in chain.domain(2)}, Alphabet(("a", "b"))),
        Periodic(chain, 2, {f: "ab"[f[0] >= q // 2] for f in chain.domain(2)}, Alphabet(("a", "b"))),
        ToeplitzTable(chain, ((1, e, "a"),), Alphabet(("a",))),
    ]
    for x in tables:
        for N in range(chain.depth + 1):
            del rotations[:]
            report = verify_skeleton(x, N)
            # a level's compares read its labels at their own side q_n
            assert all(sides == (Q,) * chain.rank and Q in chain.scales[:N] for Q, sides, _ in rotations)
            sizes = rarest_class_sizes(x, N)
            for n, size in enumerate(sizes, start=1):
                compared = [g for Q, _, g in rotations if Q == chain.scale(n)]
                assert len(compared) <= size - 1
                # a shift is reported only once a compare has confirmed it,
                # or unchecked when the level's labelling is one class
                reported = {g for m, g in report.separation_failures if m == n}
                if size < chain.domain_size(n):
                    assert reported <= set(compared)
                else:
                    assert compared == [] and reported == set(chain.domain(n)[1:])
    # every shift of every level fixes the constant word
    report = verify_skeleton(tables[2], chain.depth)
    assert report.separation_failures == tuple(
        (n, g) for n in range(1, chain.depth + 1) for g in chain.domain(n)[1:]
    )


def test_a_constant_word_records_every_shift_without_a_compare(rotations):
    # a labelling of one class is fixed by every shift: 3 + 15 + 63 shifts
    # reported, none compared
    chain = make_chain(2, [2, 4, 8])
    word = Periodic(chain, 1, dict.fromkeys(chain.domain(1), "a"), Alphabet(("a",)))
    report = verify_skeleton(word, 3)
    assert rotations == []
    assert len(report.separation_failures) == 3 + 15 + 63
    assert report.separation_failures == tuple((n, g) for n in (1, 2, 3) for g in chain.domain(n)[1:])
    assert report.nonempty == (True,) * 3 and report.coverage == 1


def self_referring_functions(source: str) -> list[str]:
    """The module-level functions of ``source`` whose body names the function
    itself: a direct call, or the function passed on, e.g. to ``partial``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            inner = (n for stmt in node.body for n in ast.walk(stmt))
            if any(isinstance(n, ast.Name) and n.id == node.name for n in inner):
                names.append(node.name)
    return names


def test_configs_array_readers_do_not_recurse_on_rank():
    # every period-array reader in configs walks the axes in a loop
    source = Path(configs.__file__).read_text(encoding="utf-8")
    assert self_referring_functions(source) == []


def test_the_recursion_check_sees_a_function_calling_itself():
    source = (
        "from functools import partial\n"
        "def a(n):\n    return a(n - 1) if n else 0\n"
        "def b(xs, g):\n    return list(map(partial(b, g=g), xs))\n"
        "def c(n):\n    return n\n"
        "class K:\n    def a(self):\n        return a(1)\n"
    )
    assert self_referring_functions(source) == ["a", "b"]
