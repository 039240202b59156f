"""Finite descriptions of shift configurations and their periodicity structure.

A configuration is a point of 𝒜^G for G = Z^d, described in one of three
finite ways:

* ``Periodic`` — a total word on the level-k fundamental domain, repeated on
  every coset of H_k;
* ``ToeplitzTable`` — a list of coset assignments (level, representative,
  letter); cells covered by no assignment are explicitly Unknown;
* ``Oracle`` — an evaluation rule on a declared finite box, Unknown outside.

Unknown is the value ``None``, never an exception: any aggregate over a
region containing Unknown must report an interval instead of guessing.

The shift action follows (h·x)(g) = x(g+h), so shifting by h moves the
pattern of x at g+h to g.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, product
from itertools import chain as concat
from math import prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InconsistentCylinders, InexactVariant, UnknownMembership
from .groups import Box, Element, SubgroupChain, add, aselem, identity, sub

Letter = str


@dataclass(frozen=True)
class Alphabet:
    """Finite set of letters with the discrete metric ρ(a,b) = [a ≠ b].

    The discrete metric separates distinct cylinders at distance 1 > 1/2 and
    keeps every Δ_F sum an integer, so all densities stay rational.
    """

    letters: tuple[Letter, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, a: Letter) -> bool:
        return a in self.letters


BINARY = Alphabet(("0", "1"))


@dataclass(frozen=True)
class CosetSet:
    """A union of cosets of H_n, stored as level + representatives in F_n.

    Such sets are exactly the sets whose upper and lower Banach densities
    coincide and equal |reps| / |F_n|.  ``reps`` is stored as a frozenset
    whatever iterable it is given; its cells must be elements of F_n as int
    tuples (:meth:`make` normalizes bare ints).
    """

    chain: SubgroupChain
    level: int
    reps: frozenset[Element]

    def __post_init__(self):
        reps = frozenset(self.reps)
        if not reps <= self.chain._domain_set(self.level):
            raise ValueError("representatives must lie in the fundamental domain")
        object.__setattr__(self, "reps", reps)

    @classmethod
    def make(cls, chain: SubgroupChain, level: int, reps) -> "CosetSet":
        return cls(chain, level, frozenset(aselem(r, chain.rank) for r in reps))

    @classmethod
    def _of_domain(cls, chain: SubgroupChain, level: int, reps: frozenset[Element]) -> "CosetSet":
        """A CosetSet of reps drawn from F_level itself, so with no subset check."""
        cosets = object.__new__(cls)
        vars(cosets).update(chain=chain, level=level, reps=reps)
        return cosets

    def __contains__(self, g) -> bool:
        return self.chain.coset_rep(g, self.level) in self.reps

    def density(self) -> Fraction:
        return Fraction(len(self.reps), self.chain.domain_size(self.level))

    def complement(self) -> "CosetSet":
        return CosetSet._of_domain(self.chain, self.level, self.chain._domain_set(self.level) - self.reps)


# ---------------------------------------------------------------------------
# configuration variants
# ---------------------------------------------------------------------------


class _CosetTable:
    """The coset table of Periodic and ToeplitzTable: the distinct (level, rep,
    letter) triples ``_assigned``, coarsest first, the period array ``_cells`` on
    F_max_level, row-major, None where Unknown, and ``_period`` = q_max_level, set
    from Periodic's word or by ToeplitzTable's ``_fill``; read on any box, F_level
    too, by ``_read``."""

    _assigned: tuple[tuple[int, Element, Letter], ...]
    _cells: tuple[Letter | None, ...]
    _period: int

    @property
    def rank(self) -> int:
        return self.chain.rank

    @property
    def max_level(self) -> int:
        return self._assigned[-1][0] if self._assigned else 1

    def _at(self, g: Element) -> Letter | None:
        """Letter at g, or None, for g of the chain's rank (unchecked)."""
        return self._cells[_index(g, self._period)]

    def _read(self, lo, sides: tuple[int, ...]) -> Sequence[Letter | None]:
        """The letters on lo + [0, sides), row-major, None where Unknown: one
        cyclic window of the period array, after evaluate's check of lo."""
        return _window(self._cells, self._period, sides, aselem(lo, self.rank))

    def lookup(self, g) -> Letter | None:
        """Letter at g, or None: :func:`evaluate`."""
        return evaluate(self, g)

    def restrict(self, level: int, rep: Element) -> list[tuple[int, Element, Letter]]:
        """Assignments describing this table on the coset rep + H_level, rep in F_level.

        An assigned coset at a level no deeper than ``level`` that contains
        rep covers the whole target coset and is returned as one assignment
        at ``level``; otherwise the answer is the deeper assignments whose
        representatives reduce to rep mod q_level.
        """
        pieces = []
        for n, s, a in self._assigned:
            if n <= level:
                if self.chain.coset_rep(rep, n) == s:
                    return [(level, rep, a)]
            elif self.chain.coset_rep(s, level) == rep:
                pieces.append((n, s, a))
        return pieces

    def fully_resolved(self) -> bool:
        """Whether every cell is known, so x repeats with period q_max_level:
        the one periodicity test."""
        return None not in self._cells


def _index(g: Element, q: int) -> int:
    """The row-major index in the box [0, q)^d of the cell of g mod q."""
    i = 0
    for c in g:
        i = i * q + c % q
    return i


def _cycle(c: int, Q: int, q: int, line: Sequence) -> Sequence:
    """k ↦ line[(k + c) mod Q] for k in [0, q): the line of Q cells rotated by
    c, then repeated or cut to length q, by slices of only the cells returned."""
    c %= Q
    if c + q <= Q:
        return line[c : c + q]
    if q <= Q:
        return line[c:] + line[: c + q - Q]
    line = line[c:] + line[:c]
    return line * (q // Q) + line[: q % Q]


def _window(cells: Sequence, Q: int, sides: tuple[int, ...], g: Element) -> Sequence:
    """The window f ↦ cells[(f + g) mod Q] over [0, sides) of the row-major
    array ``cells`` over [0, Q)^d, g and sides of rank d, row-major: in rank 1
    one cyclic read (:func:`_cycle`); ``cells`` itself for sides [0, Q)^d and
    g = 0; else one :func:`_along` pass of a cyclic read per axis."""
    if len(g) == 1:
        return _cycle(g[0], Q, sides[0], cells)
    if not any(g) and all(n == Q for n in sides):
        return cells
    return tuple(_along(cells, (Q,) * len(g), [partial(_cycle, c, Q, n) for c, n in zip(g, sides)]))


@dataclass(frozen=True)
class Periodic(_CosetTable):
    """x(g) = word(g mod q_k): a total word on F_k repeated on H_k-cosets,
    the coset table of one fully assigned level k (k = 0 allowed)."""

    chain: SubgroupChain
    level: int
    word: Mapping[Element, Letter]
    alphabet: Alphabet

    def __post_init__(self):
        dom, cells = self.chain.domain(self.level), self.chain._domain_set(self.level)
        if self.word.keys() == cells:  # keys equal to the int-tuple cells: store those
            normalized = {f: self.word[f] for f in dom}
        else:
            normalized = {aselem(k, self.chain.rank): v for k, v in self.word.items()}
        if normalized.keys() != cells:
            raise ValueError(f"word must be total on the level-{self.level} domain")
        bad = [v for v in normalized.values() if v not in self.alphabet]
        if bad:
            raise ValueError(f"letters {bad} not in alphabet")
        object.__setattr__(self, "word", normalized)
        # the cosets of one level are disjoint: the word in domain order is
        # the period array, and no two of its triples can conflict
        object.__setattr__(self, "_assigned", tuple((self.level, f, normalized[f]) for f in dom))
        object.__setattr__(self, "_cells", tuple(normalized[f] for f in dom))
        object.__setattr__(self, "_period", self.chain.scale(self.level))


@dataclass(frozen=True)
class ToeplitzTable(_CosetTable):
    """Coset assignments (level n ≥ 1, representative in F_n, letter).

    An assignment inside a coarser or equal one must agree with it, so all
    assignments covering a point carry one letter; a conflict raises
    ``InconsistentCylinders``.  Cells covered by no assignment are Unknown,
    and every aggregate over them is reported as an interval.
    """

    chain: SubgroupChain
    assignments: tuple[tuple[int, Element, Letter], ...]
    alphabet: Alphabet

    def __post_init__(self):
        chain, letters, distinct = self.chain, self.alphabet.letters, set()
        for level, r, a in self.assignments:
            if not 1 <= level <= chain.depth:
                raise ValueError(f"assignment level {level} outside 1..{chain.depth}")
            # a rep that already is a cell of F_level as an int tuple,
            # canonical reps above all, is stored as given; any other is
            # reduced ((0.0,) and (True,) equal cells but are no int tuples)
            q = chain.scales[level - 1]
            if not (type(r) is tuple and len(r) == chain.rank and all(type(c) is int and 0 <= c < q for c in r)):
                r = chain.coset_rep(r, level)
            if a not in letters:
                raise ValueError(f"letter {a!r} not in alphabet")
            distinct.add((level, r, a))
        self._fill(distinct)
        object.__setattr__(self, "assignments", self._assigned)

    @classmethod
    def _of_claims(
        cls,
        chain: SubgroupChain,
        assigned: tuple[tuple[int, Element, Letter], ...],
        alphabet: Alphabet,
        claims: Sequence[Letter | None],
        Q: int,
    ) -> "ToeplitzTable":
        """The table of the sorted, distinct, valid triples ``assigned``, whose
        cosets fill ``claims`` without conflict: a row-major array on F_k,
        Q = q_k for some k ≥ max_level, None off them.  Cut to F_max_level it
        is the period array, so no check of ``__post_init__`` runs."""
        table = object.__new__(cls)
        vars(table).update(chain=chain, assignments=assigned, alphabet=alphabet, _assigned=assigned)
        q = chain.scale(table.max_level)
        vars(table).update(_cells=tuple(_window(claims, Q, (q,) * chain.rank, identity(chain.rank))), _period=q)
        return table

    def _fill(self, assigned: Iterable[tuple[int, Element, Letter]]) -> None:
        """Store the triples and fill the period array coarsest first: the one conflict check."""
        # cosets of nested subgroups are nested or disjoint, so a coset whose
        # representative's cell is filled lies inside an earlier coset and
        # agrees with it iff that cell holds its letter
        object.__setattr__(self, "_assigned", tuple(sorted(assigned)))
        chain = self.chain
        Q = chain.scale(self.max_level)
        cells: list[Letter | None] = [None] * Q**chain.rank
        for n, r, a in self._assigned:
            b = cells[_index(r, Q)]
            if b is None:
                q = chain.scales[n - 1]
                # the coset r + H_n meets each row of F_max_level it crosses
                # in one stride-q_n slice of the row-major array
                for row in product(*(range(c, Q, q) for c in r[:-1])):
                    start = _index(row, Q) * Q
                    cells[start + r[-1] : start + Q : q] = [a] * (Q // q)
            elif b != a:
                # the first triple covering r holds b: nested ones agree
                m, rm = next((m, rm) for m, rm, _ in self._assigned if chain.coset_rep(r, m) == rm)
                raise InconsistentCylinders(
                    f"level-{n} assignment at {r} conflicts with level-{m} at {rm}"
                )
        object.__setattr__(self, "_cells", tuple(cells))
        object.__setattr__(self, "_period", Q)


@dataclass(frozen=True)
class Oracle:
    """A rule on a declared box [lo, hi]; Unknown outside, never a guess.

    Exists to express hand-built counterexample configurations; exact Per
    sets and densities are undecidable from a bounded window, so the exact
    operations reject this variant.  Its ``chain`` is None: the one test by
    which every exact operation tells coset-structured configurations apart.
    A shift moves the box and composes ``rule`` once (see ``shift``).  The
    bounds pass ``operator.index``, as a Box's do: a bound that is no tuple
    of ints raises TypeError naming it, never truncated.
    """

    rank: int
    lo: Element
    hi: Element
    rule: Callable[[Element], Letter]
    alphabet: Alphabet
    name: str = "custom"

    def __post_init__(self):
        for key in ("lo", "hi"):
            bound = getattr(self, key)
            try:
                object.__setattr__(self, key, tuple(map(operator.index, bound)))
            except TypeError:
                raise TypeError(f"oracle bound {key} must be a tuple of ints, not {bound!r}") from None
        if len(self.lo) != self.rank or len(self.hi) != self.rank:
            raise ValueError("box bounds must match rank")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("declared box is empty")

    @property
    def chain(self) -> None:
        """No subgroup chain: a property, so repr, eq, hash and fields skip it."""
        return None

    def _at(self, g: Element) -> Letter | None:
        """rule(g) inside the box, None outside, for g of this rank (unchecked)."""
        if all(map(operator.le, self.lo, g)) and all(map(operator.le, g, self.hi)):
            return self.rule(g)
        return None

    def _read(self, lo, sides: tuple[int, ...]) -> list[Letter | None]:
        """``_at`` over lo + [0, sides), row-major, after evaluate's check of lo:
        the box clipped to the declared one once, the inside read by the rule's
        runs (:class:`_Runs`, rank 1) or one rule call per cell, then padded
        with None by one :func:`_along` pass where the clip cut the box."""
        lo = aselem(lo, self.rank)
        clip = [(max(c, a), min(c + n, b + 1)) for c, n, a, b in zip(lo, sides, self.lo, self.hi)]
        if any(a >= b for a, b in clip):
            return [None] * prod(sides)
        inner = tuple(b - a for a, b in clip)
        if isinstance(self.rule, _Runs) and self.rank == 1:
            cells = list(self.rule.letters(*clip[0]))
        else:
            cells = _points(self.rule)([a for a, _ in clip], inner)
        if inner == sides:
            return cells
        return _along(cells, inner, [partial(_pad, a - c, c + n - b) for (a, b), c, n in zip(clip, lo, sides)])


def _pad(before: int, after: int, line: list) -> list:
    """line with ``before`` Nones in front and ``after`` behind."""
    return [None] * before + line + [None] * after


@dataclass(frozen=True)
class _Runs:
    """A rank-1 rule written as its run reader: ``letters(a, b)`` is the
    letters on [a, b), and the rule at (n,) reads the run of length one."""

    letters: Callable[[int, int], Sequence[Letter]]

    def __call__(self, g: Element) -> Letter:
        (n,) = g
        return self.letters(n, n + 1)[0]


Configuration = Periodic | ToeplitzTable | Oracle


def evaluate(x: Configuration, g) -> Letter | None:
    """Point evaluation; returns None (Unknown) where x is undetermined.

    g is normalized to x's rank (a bare int in rank 1), ValueError
    otherwise, before x's unchecked reader ``_at`` sees it; a box read
    ``x._read(lo, sides)`` makes the same check of its corner lo.
    """
    if not isinstance(x, (_CosetTable, Oracle)):
        raise TypeError(f"not a configuration: {x!r}")
    return x._at(aselem(g, x.rank))


def _points(point: Callable[[Element], object]) -> Callable[[Element, tuple[int, ...]], list]:
    """The box reader of a point function: one call per cell of lo + [0, sides), row-major."""
    return lambda lo, sides: list(map(point, product(*(range(c, c + n) for c, n in zip(lo, sides)))))


def _rank(g) -> int:
    """The rank of the element g: a bare int is rank 1."""
    return 1 if isinstance(g, int) else len(g)


def _cells(S: Sequence) -> Sequence[Element]:
    """S's cells as int tuples of one rank: S itself when S is a Box or they are
    (``(1.0,)`` is not one), else normalized through aselem to S[0]'s rank."""
    if isinstance(S, Box):
        return S
    ints = set(map(type, S)) == {tuple} and set(map(type, concat.from_iterable(S))) == {int}
    return S if ints and len(set(map(len, S))) == 1 else [aselem(g, _rank(S[0])) for g in S]


def _frame(S: Sequence) -> tuple[Element, tuple[int, ...], Sequence[Element]]:
    """(corner, sides) of S's bounding box and S's cells: a :class:`Box` as
    it is, any other S through :func:`_cells`."""
    if isinstance(S, Box):
        return S.lo, S.sides, S
    cells = _cells(S)
    lo, hi = tuple(map(min, zip(*cells))), tuple(map(max, zip(*cells)))
    return lo, tuple(b - a + 1 for a, b in zip(lo, hi)), cells


class _BoxScan:
    """The window-scan kernel: the windows shape + t, t over the translates
    in their order, for any finite nonempty shape and translate set.  The
    box reader ``read`` (a configuration's ``_read``, or :func:`_points`) is
    called once, on the union box bbox(shape) + bbox(translates), and
    ``values`` keeps its cells, row-major: a sparse shape in a wide box pays
    for the whole box.  A :class:`Box` is read as a box: a box
    shape's windows are joined row slices, and two boxes count windows by
    separable prefix sums (Crow's summed-area table), one :func:`_along`
    pass of sliding sums per axis.  Any other set is read as offsets into
    ``values``, in its own order, repeats kept.  A shape and translates of
    different ranks raise ValueError before the read."""

    def __init__(self, read: Callable, shape: Sequence, translates: Sequence):
        self.shape, self.translates = _frame(shape), _frame(translates)
        (s_lo, s_sides, *_), (t_lo, t_sides, *_) = self.shape, self.translates
        if len(s_lo) != len(t_lo):
            raise ValueError(f"shape of rank {len(s_lo)} and translates of rank {len(t_lo)}")
        self.sides = tuple(s + t - 1 for s, t in zip(s_sides, t_sides))
        self.values = read(add(s_lo, t_lo), self.sides)

    def window_sums(self, cells: list) -> list[int]:
        """Σ cells over each window of the row-major array ``cells`` over the
        union box: one sliding pass per axis for two boxes, else one sum each."""
        (_, s_sides, S), (*_, T) = self.shape, self.translates
        if not (isinstance(S, Box) and isinstance(T, Box)):
            return list(map(sum, self.windows(cells)))
        return _along(cells, self.sides, [partial(_sliding_sums, width) for width in s_sides])

    def windows(self, cells: list) -> Iterator[tuple]:
        """Each window of the row-major array ``cells`` over the union box, in
        shape order: joined runs, a box shape's rows or another shape's cells."""
        (s_lo, s_sides, S), (t_lo, t_sides, T) = self.shape, self.translates
        sides = self.sides
        if isinstance(S, Box):
            rows = [_offset(r + (0,), sides) for r in product(*map(range, s_sides[:-1]))]
            width = s_sides[-1]
        else:
            rows, width = [_offset(sub(f, s_lo), sides) for f in S], 1
        places = product(*map(range, t_sides)) if isinstance(T, Box) else (sub(t, t_lo) for t in T)
        for o in (_offset(t, sides) for t in places):
            yield tuple(concat.from_iterable(cells[o + r : o + r + width] for r in rows))

    def check_known(self) -> None:
        """Raise UnknownMembership at the first None, in shape order, of the
        first window holding one, at its int cell; cells in no window never raise."""
        if None in self.values:
            for t, window in zip(self.translates[2], self.windows(self.values)):
                if None in window:
                    require_known(None, add(self.shape[2][window.index(None)], t))


def _offset(g: Element, sides: tuple[int, ...]) -> int:
    """The row-major index of g in the box [0, sides)."""
    i = 0
    for c, n in zip(g, sides):
        i = i * n + c
    return i


def _along(cells: Sequence, sides: tuple[int, ...], lines: Sequence[Callable[[Sequence], list]]) -> list:
    """Apply lines[axis] to every line along each axis of the row-major array
    ``cells`` over [0, sides) in turn, axis 0 first; lines[axis] maps the
    cells of a line to its output line, whose length is the axis's new side.
    A pass reads only its own side and those after it, none of them changed
    by an earlier pass, so an output of no cells needs no new side."""
    for axis, f in enumerate(lines):
        n, inner = sides[axis], prod(sides[axis + 1 :])
        out: list = []
        for start in range(0, len(cells), n * inner):
            stop = start + n * inner
            outs = [f(cells[r:stop:inner]) for r in range(start, start + inner)]
            out += outs[0] if inner == 1 else concat.from_iterable(zip(*outs))
        cells = out
    return cells


def _sliding_sums(width: int, line: list) -> list[int]:
    """The sums of every run of ``width`` consecutive cells of line."""
    p = [0, *accumulate(line)]
    return list(map(operator.sub, p[width:], p[: len(p) - width]))


def shift(h, x: Configuration) -> Configuration:
    """The shifted configuration h·x with (h·x)(g) = x(g+h); variant preserved.

    A periodic word is its period array's window at offset h, one box read;
    an oracle's box moves by -h and its rule becomes g ↦ rule(g + h), a
    run reader's runs [a, b) ↦ letters(a + h, b + h)."""
    if isinstance(x, Periodic):
        word = zip(x.chain.domain(x.level), x._read(h, (x._period,) * x.rank))
        return Periodic(x.chain, x.level, dict(word), x.alphabet)
    if isinstance(x, ToeplitzTable):
        h = aselem(h, x.rank)
        # the table reduces each moved representative into its F_n
        moved = tuple((lvl, sub(r, h), a) for lvl, r, a in x.assignments)
        return ToeplitzTable(x.chain, moved, x.alphabet)
    if isinstance(x, Oracle):
        h, rule = aselem(h, x.rank), x.rule
        if isinstance(rule, _Runs) and x.rank == 1:
            (c,), letters = h, rule.letters
            moved = _Runs(lambda a, b: letters(a + c, b + c))
        else:
            moved = lambda g: rule(add(g, h))
        return replace(x, lo=sub(x.lo, h), hi=sub(x.hi, h), rule=moved)
    raise TypeError(f"not a configuration: {x!r}")


# ---------------------------------------------------------------------------
# periodicity structure
# ---------------------------------------------------------------------------


def _exact_chain(x: Configuration) -> SubgroupChain:
    if x.chain is None:
        raise InexactVariant("needs a subgroup chain: a Periodic or ToeplitzTable configuration")
    return x.chain


def _constant_cosets(x: Configuration, n: int) -> Sequence[Letter | None]:
    """The labels of F_n, row-major: the letter a where the whole H_n-coset
    of the cell is known and constantly a, None elsewhere.

    x is coset-constant at level max(n, max_level), so the coset f + H_n is
    sampled by the cells of the lifted array congruent to f mod q_n: at
    n ≥ max_level the lifted array is the labelling, below it the period
    array folds by residue (in rank 1 the class of r is cells[r::q_n]).
    """
    q = _exact_chain(x).scale(n)
    if n >= x.max_level:
        return x._read(identity(x.rank), (q,) * x.rank)
    return _fold(x._cells, x._period, q, x.rank)


def _fold(labels: Sequence[Letter | None], Q: int, q: int, rank: int) -> list[Letter | None]:
    """The labels over [0, q)^rank, q | Q, of the row-major labelling
    ``labels`` over [0, Q)^rank: the letter a where every cell ≡ f mod q is
    labelled a, None elsewhere.  The class of f is the product of its
    residue classes along the axes, so the fold runs axis by axis, the class
    of r in a line being line[r::q]."""
    k = Q // q

    def fold(line: Sequence) -> list:
        # the class of r holds k cells, line[r] first
        return [a if line[r::q].count(a) == k else None for r, a in enumerate(line[:q])]

    return _along(labels, (Q,) * rank, [fold] * rank)


def _level_labels(x: Configuration, N: int) -> list[Sequence[Letter | None]]:
    """The labels of F_n (see :func:`_constant_cosets`) for n = 0..N, indexed
    by level: F_N's once, then each coarser level's, finest first.  At and
    above max_level the lifted array is the labelling; below it each level's
    labels are folded from the next finer level's, since the H_n-coset of f
    is the union of the H_{n+1}-cosets of the cells f' ≡ f mod q_n of
    F_{n+1}.  A fold reads |F_{n+1}| labels, so all N + 1 levels cost about
    one labelling of the finer of F_N and F_max_level."""
    chain = _exact_chain(x)
    labels = [_constant_cosets(x, N)]
    for n in range(N, 0, -1):
        if n > x.max_level:
            labels.append(x._read(identity(x.rank), (chain.scale(n - 1),) * x.rank))
        else:
            labels.append(_fold(labels[-1], chain.scale(n), chain.scale(n - 1), x.rank))
    return labels[::-1]


def per_set(x: Configuration, n: int) -> CosetSet:
    """Per_{H_n}(x): positions whose whole H_n-coset is determined and constant.

    For a partial coset table a coset with Unknown cells is never counted;
    the result is the confirmed periodic part.
    """
    labels = _constant_cosets(x, n)
    cells = zip(x.chain.domain(n), labels)
    return CosetSet._of_domain(x.chain, n, frozenset(f for f, a in cells if a is not None))


def per_set_letter(x: Configuration, n: int, a: Letter) -> CosetSet:
    """Per_{H_n}(x, a): positions whose whole H_n-coset is constantly a."""
    labels = _constant_cosets(x, n)
    cells = zip(x.chain.domain(n), labels)
    return CosetSet._of_domain(x.chain, n, frozenset(f for f, b in cells if b == a))


# ---------------------------------------------------------------------------
# disagreements
# ---------------------------------------------------------------------------


def _coset_pair(x: Configuration, z: Configuration) -> tuple[int, list[bool | None]] | None:
    """(p, D) for coset tables over one chain, the one exact-pair test, else None:
    p = max(max_level), D = [x_g ≠ z_g] on F_p, None if Unknown (:func:`_differs`)."""
    if x.chain is not None and x.chain == z.chain:
        p = max(x.max_level, z.max_level)
        return p, _differs(x, z)(identity(x.rank), (x.chain.scale(p),) * x.rank)
    return None


def _differs(x: Configuration, z: Configuration) -> Callable[[Element, tuple[int, ...]], list[bool | None]]:
    """The box reader of [x_g ≠ z_g], None where either side is Unknown: one
    ``_read`` of each side, zipped."""

    def differs(lo, sides):
        pairs = zip(x._read(lo, sides), z._read(lo, sides))
        return [None if a is None or b is None else a != b for a, b in pairs]

    return differs


def require_known(value: Letter | None, g: Element) -> Letter:
    if value is None:
        raise UnknownMembership(f"configuration is Unknown at {g}")
    return value


# ---------------------------------------------------------------------------
# builtin oracle rules
# ---------------------------------------------------------------------------


def _geometric_lengths(eps) -> Iterator[int]:
    """L_0 = 1, L_1, L_2, ... without end: the recurrence of :func:`geometric_box_lengths`."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    p, q = eps.numerator, eps.denominator
    length = 1
    while True:
        yield length
        length = max((2 * length * q + q - p) // (2 * (q - p)), length + 1)


def geometric_box_lengths(eps: Fraction, count: int) -> list[int]:
    """Box lengths L_0 = 1, L_n with L_n/L_{n+1} → 1-eps: L_{n+1} = round(L_n/(1-eps)).

    Rounding is to the nearest integer (ties up) with a floor of L_n + 1 so
    the boxes stay strictly nested: for eps = p/q, in integers,
    L_{n+1} = max(⌊(2·L_n·q + q - p) / (2(q - p))⌋, L_n + 1).
    """
    return list(islice(_geometric_lengths(eps), max(count, 0) + 1))


def _shell_edges(eps: Fraction, end: int) -> list[int]:
    """0, then L_0, L_1, ... up to the first box length that reaches end, L_64 at most."""
    edges = [0]
    for length in islice(_geometric_lengths(eps), 65):
        edges.append(length)
        if length >= end:
            break
    return edges


def block_alternating(eps, radius: int) -> Oracle:
    """Ones on F_1 and on the odd shells F_{2n+1} \\ F_{2n} of geometric boxes.

    The boxes are [0, L_n), n ≤ 64, with geometric lengths of ratio 1/(1-eps); along
    that sequence the letter-1 frequency oscillates between 1/(2-eps) (odd
    levels) and (1-eps)/(2-eps) (even levels), so the distribution measures
    split into two separated clusters.  The rule is a run reader: one
    constant run per shell a window meets.  Only the boxes up to the first
    past the radius are built; a read beyond them, outside the declared box,
    builds its own.
    """
    eps = Fraction(eps)
    # shell j is [edges[j], edges[j + 1]): F_1 for j = 0 and F_j \ F_{j-1}
    # for 1 ≤ j < last, ones for j = 0 and odd j; 0 below 0 (j = -1) and
    # past the 64th box (j = last = 65, once all 66 edges are built).  near
    # ends at the first box past the radius; a read beyond it, outside the
    # declared box, builds its own edges unless near already has all 66
    near = _shell_edges(eps, radius + 1)

    def letters(a: int, b: int) -> str:
        edges = near if b <= near[-1] or len(near) == 66 else _shell_edges(eps, b)
        last = len(edges) - 1
        runs = []
        while a < b:
            j = bisect_right(edges, a) - 1
            end = b if j == last else min(edges[j + 1], b)
            runs.append(("1" if 0 <= j < last and (j == 0 or j % 2) else "0") * (end - a))
            a = end
        return "".join(runs)

    return Oracle(
        rank=1,
        lo=(-radius,),
        hi=(radius,),
        rule=_Runs(letters),
        alphabet=BINARY,
        name=f"block_alternating({eps})",
    )


def _champernowne_number(n: int) -> tuple[int, int]:
    """The number holding digit n (0-based) of the binary concatenation
    1 10 11 100 101 ..., and the place of digit n in it.  The k-bit numbers
    start at digit (k - 2)·2^(k-1) + 1, and n < k·2^k, so k is at least
    bit_length(n) - bit_length(k): a few steps up from there find it."""
    b = n.bit_length()
    k = max(b - (b + 1).bit_length(), 1)
    while ((k - 1) << k) + 1 <= n:  # digit n lies past the k-bit numbers
        k += 1
    i, r = divmod(n - ((k - 2) << (k - 1)) - 1, k)
    return (1 << (k - 1)) + i, r


def _champernowne_letters(a: int, b: int) -> str:
    """The letters on [a, b): 0 below 0, then the digits of the binary
    numbers concatenated, sliced from the numbers holding digits a and b - 1."""
    zeros = "0" * (min(b, 0) - a) if a < 0 else ""
    a = max(a, 0)
    if a >= b:
        return zeros
    (first, r), (last, _) = _champernowne_number(a), _champernowne_number(b - 1)
    return zeros + "".join(map("{:b}".format, range(first, last + 1)))[r : r + b - a]


def champernowne_binary(radius: int) -> Oracle:
    """Binary Champernowne-style concatenation on Z+, the letter 0 on Z-.

    Contains every finite binary word, so its pattern counts saturate and
    its entropy estimates approach log 2.
    """
    return Oracle(
        rank=1,
        lo=(-radius,),
        hi=(radius,),
        rule=_Runs(_champernowne_letters),
        alphabet=BINARY,
        name="champernowne_binary",
    )


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def _parse_element(raw, rank: int) -> Element:
    if isinstance(raw, str):
        raw = [int(c) for c in raw.split(",")]
    return aselem(raw, rank)


def _element_key(g: Element) -> str:
    return ",".join(str(c) for c in g)


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_element(value) -> bool:
    return _is_int(value) or isinstance(value, (list, tuple)) and all(map(_is_int, value))


def _is_assignment(value) -> bool:
    # [level, rep, letter], the rep an element or its comma-joined key
    triple = isinstance(value, list) and len(value) == 3 and _is_int(value[0])
    rep_ok = triple and (isinstance(value[1], str) or _is_element(value[1]))
    return rep_ok and isinstance(value[2], str)


# descriptor fields: the test each value must pass, and what errors call it
_DESCRIPTOR_FIELDS = {
    "level": (_is_int, "an integer"),
    "word": (
        lambda v: isinstance(v, dict) and all(isinstance(a, str) for a in v.values()),
        "an object of string letters",
    ),
    "assignments": (
        lambda v: isinstance(v, list) and all(map(_is_assignment, v)),
        "an array of [level, rep, letter] triples, letters strings",
    ),
    "box": (_is_int, "an integer"),
    "rule": (lambda v: isinstance(v, str), "a string"),
}


def _descriptor_field(desc: Mapping, variant: str, key: str):
    valid, kind = _DESCRIPTOR_FIELDS[key]
    value = desc.get(key)
    if not valid(value):
        raise ValueError(f"{variant} descriptor: {key!r} must be {kind}")
    return value


def config_from_descriptor(desc: Mapping, chain: SubgroupChain | None) -> Configuration:
    """Build a configuration from its JSON descriptor.

    Periodic: {"variant":"periodic","level":k,"word":{"0":"a","1":"b"}}
    Table:    {"variant":"toeplitz","assignments":[[n,rep,letter],...]}
    Oracle:   {"variant":"oracle","box":R,"rule":"champernowne_binary"}
              or rule "block_alternating(1/2)"
    Word keys and representatives are ints or comma-joined coordinates.
    A missing or mistyped field raises ValueError naming the variant and
    the field.
    """
    variant = desc.get("variant")
    if variant in ("periodic", "toeplitz") and chain is None:
        raise ValueError(f"{variant} descriptor needs a chain")
    if variant == "periodic":
        level = _descriptor_field(desc, variant, "level")
        word = {
            _parse_element(k, chain.rank): v
            for k, v in _descriptor_field(desc, variant, "word").items()
        }
        # an empty word has no alphabet: Periodic refuses it as not total
        letters = tuple(sorted(set(word.values())))
        return Periodic(chain, level, word, Alphabet(letters) if letters else None)
    if variant == "toeplitz":
        assignments = tuple(
            (n, _parse_element(rep, chain.rank), a)
            for n, rep, a in _descriptor_field(desc, variant, "assignments")
        )
        # an empty table has no alphabet: refused here, at its field
        if not assignments:
            raise ValueError(f"{variant} descriptor: 'assignments' must be nonempty")
        letters = tuple(sorted({a for _, _, a in assignments}))
        return ToeplitzTable(chain, assignments, Alphabet(letters))
    if variant == "oracle":
        radius = _descriptor_field(desc, variant, "box")
        return _oracle_rule(_descriptor_field(desc, variant, "rule"))(radius)
    raise ValueError(f"unknown configuration variant {variant!r}")


def _oracle_rule(rule: str) -> Callable[[int], Oracle]:
    """The builtin oracle a descriptor's rule names, as a function of the box radius."""
    if rule == "champernowne_binary":
        return champernowne_binary
    if rule.startswith("block_alternating(") and rule.endswith(")"):
        try:
            eps = Fraction(rule[len("block_alternating(") : -1])
        except ZeroDivisionError:
            raise ValueError(f"oracle rule {rule!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"oracle rule {rule!r} needs a fraction, such as 1/2") from None
        if not 0 < eps < 1:
            raise ValueError(f"oracle rule {rule!r} needs eps in (0,1), such as 1/2")
        return lambda radius: block_alternating(eps, radius)
    raise ValueError(f"unknown oracle rule {rule!r}")


def config_descriptor(x: Configuration) -> dict:
    """The JSON descriptor of a configuration (inverse of config_from_descriptor);
    ValueError for an oracle that is shifted, off [-R, R]^d, of an unknown rule
    or of another rank than its rule."""
    if isinstance(x, Periodic):
        return {
            "variant": "periodic",
            "level": x.level,
            "word": {_element_key(k): v for k, v in sorted(x.word.items())},
        }
    if isinstance(x, ToeplitzTable):
        return {
            "variant": "toeplitz",
            "assignments": [[n, _element_key(r), a] for n, r, a in x.assignments],
        }
    if isinstance(x, Oracle):
        radius = x.hi[0]
        # a shift h ≠ 0 always moves the box off [-R, R]^d
        if (x.lo, x.hi) != ((-radius,) * x.rank, (radius,) * x.rank):
            raise ValueError("only an unshifted oracle on a centered box has a descriptor")
        # raises for a rule the descriptor parser does not know
        rank = _oracle_rule(x.name)(radius).rank
        if rank != x.rank:
            raise ValueError(f"oracle rule {x.name!r} is of rank {rank}, not {x.rank}")
        return {"variant": "oracle", "box": radius, "rule": x.name}
    raise TypeError(f"not a configuration: {x!r}")
