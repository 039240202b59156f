"""Group arithmetic in Z^d, box Følner sets and validated subgroup chains.

Elements of Z^d are plain int tuples; the group operation is componentwise
addition and the identity is the zero vector.  Finite subsets are kept in the
canonical enumeration (lexicographic on coordinates), so every scan in the
package is deterministic; a box is a :class:`Box`, which keeps its corner and
sides, so no scan compares its cells to know it is one.

A chain with scales q_1 | q_2 | ... | q_N describes the nested finite-index
subgroups H_n = (q_n Z)^d with fundamental domains F_n = [0, q_n)^d.  Level 0
is the whole group with F_0 = {e}.  Construction checks q_i | q_{i+1}, from
which the four chain conditions follow for box domains: nesting, nested
domains, the fundamental-domain property, and the tiling
F_{i+1} = ⊔_{v ∈ F_{i+1} ∩ H_i} (F_i + v).  The tests re-derive all four.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import LevelOutOfRange, NonDividingScales

Element = tuple[int, ...]
FiniteSubset = tuple[Element, ...]


def aselem(g, rank: int) -> Element:
    """Normalize an element to an int tuple: a bare int is accepted when rank
    is 1, and integral coordinates (``True``, ``2.0``) become ints; a
    coordinate that is not integral (``0.5``) raises ValueError, as a wrong
    rank does."""
    g = (g,) if isinstance(g, int) else tuple(g)
    e = tuple(map(int, g))
    if e != g:
        raise ValueError(f"element {g} has a non-integral coordinate")
    if len(e) != rank:
        raise ValueError(f"element {e} has rank {len(e)}, expected {rank}")
    return e


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def identity(rank: int) -> Element:
    return (0,) * rank


def add(g: Element, h: Element) -> Element:
    return tuple(map(operator.add, g, h))


def sub(g: Element, h: Element) -> Element:
    return tuple(map(operator.sub, g, h))


class Box(tuple):
    """The cells of lo + [0, sides) in canonical order: a tuple, equal to and
    hashed as that tuple, that keeps its corner ``lo`` and ``sides``.  A corner
    or side that is no int raises TypeError, never truncated."""

    def __new__(cls, lo, sides):
        lo, sides = tuple(map(operator.index, lo)), tuple(map(operator.index, sides))
        if len(lo) != len(sides) or any(n < 1 for n in sides):
            raise ValueError(f"box at {lo} needs one positive side per axis, not {sides}")
        cells = super().__new__(cls, itertools.product(*map(range, lo, map(operator.add, lo, sides))))
        cells.lo, cells.sides = lo, sides
        return cells

    def __getnewargs__(self):
        return self.lo, self.sides


def box(rank: int, side: int) -> Box:
    """The box [0, side)^rank in canonical order."""
    return Box((0,) * rank, (side,) * rank)


def rect(lo: Element, hi: Element) -> Box:
    """Product of the inclusive intervals [lo_i, hi_i], canonical order."""
    return Box(lo, [b - a + 1 for a, b in zip(lo, hi)])


def ball(rank: int, radius: int) -> Box:
    """The centered box [-radius, radius]^rank; contains e, closed under negation."""
    return rect((-radius,) * rank, (radius,) * rank)


@dataclass(frozen=True)
class SubgroupChain:
    """Validated chain H_0 ⊃ H_1 ⊃ ... with box fundamental domains.

    Construction checks the scales q_1 | q_2 | ... | q_N and raises
    NonDividingScales when some q_i does not divide q_{i+1}; that is exactly
    the situation in which the tiling condition (4) must fail.
    """

    rank: int
    scales: tuple[int, ...]

    def __post_init__(self):
        if not _is_int(self.rank) or self.rank < 1:
            raise ValueError("rank must be a positive integer")
        scales = tuple(self.scales)
        if not scales or not all(_is_int(q) and q >= 1 for q in scales):
            raise ValueError("scales must be positive integers")
        if any(b <= a for a, b in zip(scales, scales[1:])):
            raise ValueError(f"scales must be strictly increasing: {scales}")
        for a, b in zip((1,) + scales, scales):
            if b % a != 0:
                raise NonDividingScales(f"{a} does not divide {b}")
        object.__setattr__(self, "scales", scales)
        # the domains built so far, level -> F_n and ("set", level) -> its
        # frozenset: filled lazily, read by every user of this chain; not a
        # field, so eq, hash and repr stay the fields'
        object.__setattr__(self, "_domains", {})

    @property
    def depth(self) -> int:
        return len(self.scales)

    def _check_level(self, n: int) -> None:
        if not 0 <= n <= self.depth:
            raise LevelOutOfRange(f"level {n} outside 0..{self.depth}")

    def scale(self, n: int) -> int:
        """q_n, with q_0 = 1."""
        self._check_level(n)
        return 1 if n == 0 else self.scales[n - 1]

    def domain(self, n: int) -> Box:
        """The fundamental domain F_n = [0, q_n)^d in canonical order.

        Built once per chain and level, then shared: the tuple is immutable,
        so every caller, in any thread, reads the same one.
        """
        dom = self._domains.get(n)
        return dom if dom is not None else self._domains.setdefault(n, box(self.rank, self.scale(n)))

    def _domain_set(self, n: int) -> frozenset[Element]:
        """F_n as a frozenset, built once per chain and level like the tuple."""
        key = ("set", n)
        cells = self._domains.get(key)
        return cells if cells is not None else self._domains.setdefault(key, frozenset(self.domain(n)))

    def domain_size(self, n: int) -> int:
        return self.scale(n) ** self.rank

    def coset_rep(self, g, n: int) -> Element:
        """The unique element of F_n in the coset H_n + g (componentwise mod q_n)."""
        g = aselem(g, self.rank)
        q = self.scale(n)
        return tuple(c % q for c in g)

    def subgroup_in_domain(self, n: int, m: int) -> FiniteSubset:
        """H_n ∩ F_m for n ≤ m, canonical order."""
        self._check_level(n)
        self._check_level(m)
        if n > m:
            raise LevelOutOfRange(f"need n <= m, got {n} > {m}")
        qn, qm = self.scale(n), self.scale(m)
        return tuple(itertools.product(range(0, qm, qn), repeat=self.rank))


def make_chain(rank: int, scales: Sequence[int]) -> SubgroupChain:
    """The chain with scales q_1 | q_2 | ... | q_N, checked as it is built."""
    return SubgroupChain(rank, scales)
