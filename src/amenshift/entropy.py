"""Pattern-counting entropy, the binary-entropy tail bound, and exact
density-relaxed separated/spanning numbers of small sampled systems.

Entropy estimates of a level range count the windows of every level from
one read of the configuration, by labels that name each F_{n+1}-window by
the labels of its F_n tiles (:func:`_window_counts`); pattern sets keep one
tuple per window, since they return the patterns themselves.

The separated and spanning numbers come from branch-and-bound searches over
bitmask graphs of at most ``SYSTEM_CAP`` points, one row per point read
straight off the diff table: a maximum clique bounded by size plus remaining
candidates, and a minimum dominating set that branches on the uncovered point
with the fewest covers, bounded by chosen points plus ⌈uncovered / widest
cover⌉.  For ε ≥ 1 both are 1 in closed form: the discrete letter metric never
exceeds ε, so no two points are ε-apart anywhere and any one point spans.

Log conventions: topological entropy estimates are reported in nats
(natural log of the pattern count over the window size), while the binary
entropy E_S(ε) = -ε log₂ ε - (1-ε) log₂(1-ε) is kept in bits because the
tail bound is the base-2 statement Σ_{j≤⌊nε⌋} C(n,j) ≤ 2^{n·E_S(ε)}.  The
two meet in the continuity bound 2δ·ln|𝒜| + ln2·E_S(2δ), where the ln 2
factor performs the conversion.  Both inequalities also ship as exact
big-integer comparators so tests never trust floating point.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .configs import Configuration, _along, _BoxScan
from .errors import DeltaOutOfRange, SystemTooLarge
from .groups import Box, SubgroupChain, ball

SYSTEM_CAP = 20

Pattern = tuple[str, ...]


@dataclass(frozen=True)
class PatternSet:
    """Distinct windows of a fixed shape found in a configuration."""

    level: int
    patterns: frozenset[Pattern]
    exact: bool
    window_radius: int | None

    def __len__(self) -> int:
        return len(self.patterns)


@dataclass(frozen=True)
class EntropyEstimate:
    level: int
    window_radius: int | None
    pattern_count: int
    value: float  # nats: ln(pattern_count) / |F_level|
    saturated: bool
    exact: bool

    def __post_init__(self):
        if self.pattern_count < 1:
            raise ValueError("pattern count must be positive")
        if self.value < 0:
            raise ValueError("entropy estimate cannot be negative")


def _resolve_chain(x: Configuration, chain: SubgroupChain | None) -> SubgroupChain:
    if x.chain is not None:
        return x.chain
    if chain is None:
        raise ValueError("oracle configurations need an explicit chain for the shape")
    if chain.rank != x.rank:
        raise ValueError(f"chain rank {chain.rank} differs from the configuration's rank {x.rank}")
    return chain


def _translates(x: Configuration, ch: SubgroupChain, radius: int | None) -> tuple[bool, Box]:
    """(exact, translates): a fully resolved coset table repeats with period
    q_max_level, so the translates F_max_level see every window; any other
    configuration is scanned over ball(radius), a lower bound only."""
    if x.chain is not None and x.fully_resolved():
        return True, ch.domain(x.max_level)
    if radius is None:
        raise ValueError("non-periodic configuration: supply a window radius")
    return False, ball(x.rank, radius)


def pattern_set(
    x: Configuration,
    n: int,
    radius: int | None = None,
    chain: SubgroupChain | None = None,
) -> PatternSet:
    """All distinct restrictions of x to translates of the level-n box.

    Periodic (fully resolved) configurations are scanned over one full
    period, giving the complete pattern set; otherwise translates range over
    ball(radius) and the count is a certified lower bound only.  Either way
    x is read once, on the union box of the windows (``x._read``).
    """
    ch = _resolve_chain(x, chain)
    exact, translates = _translates(x, ch, radius)
    scan = _BoxScan(x._read, ch.domain(n), translates)
    scan.check_known()
    return PatternSet(n, frozenset(scan.windows(scan.values)), exact, None if exact else radius)


def entropy_estimates(
    x: Configuration,
    levels: Iterable[int],
    radius: int | None = None,
    chain: SubgroupChain | None = None,
) -> tuple[EntropyEstimate, ...]:
    """ln(pattern count) / |F_n| in nats at each level n of the levels, in
    their order: a lower bound unless the scan was exact.  All from one read
    of x: the union box of F_top and the translates, top the deepest
    of the levels the chain has (:func:`_window_counts`).  A level that holds
    an Unknown window raises as a scan of that level alone does, and a level
    past the chain as its domain does, each only after every level before it
    has passed."""
    levels = tuple(levels)
    ch = _resolve_chain(x, chain)
    exact, translates = _translates(x, ch, radius)
    top = max((n for n in levels if 0 <= n <= ch.depth), default=None)
    counts = () if top is None else _window_counts(x._read, ch, top, translates)
    estimates = []
    for n in levels:
        if not 0 <= n <= ch.depth:
            ch.domain(n)  # raises LevelOutOfRange
        count, unknown = counts[n]
        if unknown:
            # the cold path: a scan of level n alone names the first Unknown cell
            _BoxScan(x._read, ch.domain(n), translates).check_known()
        size, letters = ch.domain_size(n), len(x.alphabet)
        estimates.append(estimate_from_count(count, n, size, letters, None if exact else radius, exact))
    return tuple(estimates)


def _window_counts(read: Callable, ch: SubgroupChain, top: int, translates: Box) -> list[tuple[int, bool]]:
    """(distinct windows, whether one holds an Unknown cell) of F_n + t, t
    over the translates, for n = 0..top, from one read of the union box
    bbox(F_top) + bbox(translates).

    Windows are counted by labels, Karp, Miller and Rosenberg's labelling
    ("Rapid identification of repeated patterns in strings, trees and
    arrays", STOC 1972) over the chain's own nesting: level 0's labels are
    the cells, None included, and F_{n+1} is tiled by k^d translates of F_n,
    k = q_{n+1}/q_n, so one :func:`_along` pass per axis labels position i
    of a line by the id of its k tiles (line[i], line[i + q_n], ...,
    line[i + (k-1)q_n]).  Each axis of a level has one dict of ids, shared
    by every line of the pass, so equal labels are equal windows.  An id is
    Unknown if one of its k parts is; that set is kept only when the read
    holds a None.  Level n's count is over its labels at [0, translates' sides).
    """
    scan = _BoxScan(read, ch.domain(top), translates)
    labels, sides, t_sides = scan.values, scan.sides, scan.translates[1]
    unknown = {None} if None in labels else set()
    counts = []
    for n in range(top + 1):
        seen = _distinct_in(labels, sides, t_sides)
        counts.append((len(seen), not unknown.isdisjoint(seen)))
        if n == top:
            break
        q, k = ch.scale(n), ch.scale(n + 1) // ch.scale(n)
        stages = [defaultdict(itertools.count().__next__) for _ in sides]
        labels = _along(labels, sides, [partial(_tiles, ids, q, k) for ids in stages])
        sides = tuple(s - (k - 1) * q for s in sides)
        if unknown:
            for ids in stages:
                unknown = {i for key, i in ids.items() if not unknown.isdisjoint(key)}
    return counts


def _tiles(ids: dict, q: int, k: int, line: Sequence) -> list[int]:
    """The id of (line[i], line[i + q], ..., line[i + (k-1)q]) at each i
    where the k tiles fit, from the shared dict ids."""
    m = len(line) - (k - 1) * q
    return list(map(ids.__getitem__, zip(*(line[j * q : j * q + m] for j in range(k)))))


def _distinct_in(labels: Sequence, sides: tuple[int, ...], box: tuple[int, ...]) -> set:
    """The distinct labels on [0, box) of the row-major array over [0, sides):
    one :func:`_along` pass cutting each axis to its first box cells."""
    return set(_along(labels, sides, [itemgetter(slice(n)) for n in box]))


def estimate_from_count(
    count: int, level: int, domain_size: int, alphabet_size: int, window_radius: int | None = None, exact: bool = False
) -> EntropyEstimate:
    """ln(count) / |F_level| for a pattern count: exact when the count is
    complete, else a lower bound from a scan of window_radius or a certificate."""
    return EntropyEstimate(
        level=level,
        window_radius=window_radius,
        pattern_count=count,
        value=math.log(count) / domain_size,
        saturated=count == alphabet_size**domain_size,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# binary entropy and the exact inequality comparators
# ---------------------------------------------------------------------------


def es_entropy(eps) -> float:
    """E_S(ε) = -ε log₂ ε - (1-ε) log₂(1-ε) in bits; 0 at both endpoints."""
    eps = Fraction(eps)
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0,1]")
    if eps in (0, 1):
        return 0.0
    e = float(eps)
    return -e * math.log2(e) - (1 - e) * math.log2(1 - e)


def binomial_tail(n: int, eps) -> int:
    """Σ_{j=0}^{⌊nε⌋} C(n,j), exact."""
    eps = Fraction(eps)
    top = math.floor(n * eps)
    return sum(math.comb(n, j) for j in range(top + 1))


def es_binomial_bound_holds(n: int, eps) -> bool:
    """Exact check of Σ_{j≤⌊nε⌋} C(n,j) ≤ 2^{n·E_S(ε)} for 0 < ε ≤ 1/2, n ≥ 1.

    With ε = p/q in lowest terms, 2^{qn·E_S} = q^{qn} / (p^{pn} (q-p)^{(q-p)n}),
    so raising both sides to the q-th power keeps everything integral.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("bound is stated for 0 < eps <= 1/2")
    p, q = eps.numerator, eps.denominator
    lhs = binomial_tail(n, eps)
    return lhs**q * p ** (p * n) * (q - p) ** ((q - p) * n) <= q ** (q * n)


def pattern_counting_bound_holds(
    bounded_count: int, base_count: int, d, domain_size: int, alphabet_size: int
) -> bool:
    """Exact check of bounded_count ≤ |𝒜|^{2d·|F|} · 2^{E_S(2d)·|F|} · base_count.

    d must be a multiple of 1/|F| (a coset disagreement density), which makes
    2d·|F| integral and the E_S factor a rational power with integer exponents.
    """
    d = Fraction(d)
    if not 0 <= d < Fraction(1, 2):
        raise ValueError("need 0 <= d < 1/2 so that 2d < 1")
    two_j = 2 * d * domain_size
    if two_j.denominator != 1:
        raise ValueError("d must be a multiple of 1/|F|")
    two_j = int(two_j)
    if d == 0:
        return bounded_count <= base_count
    p, q = (2 * d).numerator, (2 * d).denominator
    m = domain_size // q  # q divides |F| because 2d·|F| is an integer and gcd(p,q)=1
    lhs = bounded_count * p ** (m * p) * (q - p) ** (m * (q - p))
    rhs = base_count * alphabet_size**two_j * q ** (m * q)
    return lhs <= rhs


def entropy_continuity_bound(delta, alphabet_size: int) -> float:
    """2δ·ln|𝒜| + ln2·E_S(2δ) in nats, for 0 < δ < 1/4."""
    delta = Fraction(delta)
    if not 0 < delta < Fraction(1, 4):
        raise DeltaOutOfRange("bound requires 0 < delta < 1/4")
    return 2 * float(delta) * math.log(alphabet_size) + math.log(2) * es_entropy(2 * delta)


# ---------------------------------------------------------------------------
# density-relaxed separated / spanning sets, branch and bound up to the cap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledSystem:
    """Finitely many symbolic points restricted to a common window.

    ``diff_counts[i][j]`` is the number of window positions where points i
    and j differ; with the discrete letter metric this determines every
    (F, ε, δ) separation/spanning question about the sample.
    """

    window_size: int
    diff_counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.diff_counts)
        if not m:
            raise ValueError("need at least one point")
        for i in range(m):
            if len(self.diff_counts[i]) != m or self.diff_counts[i][i] != 0:
                raise ValueError("diff table must be square with zero diagonal")
            for j in range(m):
                if self.diff_counts[i][j] != self.diff_counts[j][i]:
                    raise ValueError("diff table must be symmetric")
                if not 0 <= self.diff_counts[i][j] <= self.window_size:
                    raise ValueError("diff counts must lie in [0, window size]")

    def __len__(self) -> int:
        return len(self.diff_counts)

    @classmethod
    def from_points(cls, points: Sequence[Sequence[str]]) -> "SampledSystem":
        pts = [tuple(p) for p in points]
        size = len(pts[0]) if pts else 0
        if any(len(p) != size for p in pts):
            raise ValueError("points must share a common window")
        table = tuple(
            tuple(sum(a != b for a, b in zip(p, r)) for r in pts) for p in pts
        )
        return cls(size, table)


def _check_params(sys: SampledSystem, eps, delta) -> tuple[Fraction, Fraction]:
    if len(sys) > SYSTEM_CAP:
        raise SystemTooLarge(f"{len(sys)} points exceed the cap {SYSTEM_CAP}")
    eps = eps if isinstance(eps, Fraction) else Fraction(eps)
    delta = delta if isinstance(delta, Fraction) else Fraction(delta)
    # a Fraction's denominator is positive
    if eps.numerator <= 0 or not 0 < delta.numerator <= delta.denominator:
        raise ValueError("need eps > 0 and delta in (0, 1]")
    return eps, delta


def separated_max(sys: SampledSystem, eps, delta) -> int:
    """Largest subset in which every pair differs on more than δ|F| positions.

    A maximum clique in the "differ on more than δ|F| cells" graph, found by
    branch and bound: candidates are expanded lowest bit first, and a branch
    stops once its size plus every remaining candidate cannot beat the best
    clique so far (Carraghan and Pardalos, Oper. Res. Lett. 1990).
    """
    eps, delta = _check_params(sys, eps, delta)
    if eps.numerator >= eps.denominator:
        return 1  # no pair is ε-apart at any position
    # an integer count c exceeds δ|F| iff it exceeds ⌊δ|F|⌋, which the zero
    # diagonal never does
    threshold = delta.numerator * sys.window_size // delta.denominator
    adj = [sum(1 << j for j, c in enumerate(row) if c > threshold) for row in sys.diff_counts]
    best = 1  # a singleton is vacuously separated

    def grow(size: int, cand: int) -> None:
        # cand holds only points above every chosen one, so each clique is
        # reached once, in increasing order
        nonlocal best
        best = max(best, size)
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            cand ^= low
            grow(size + 1, cand & adj[low.bit_length() - 1])

    grow(0, (1 << len(sys)) - 1)
    return best


def spanning_min(sys: SampledSystem, eps, delta) -> int:
    """Smallest subset Z such that every point agrees with some z ∈ Z on more
    than (1-δ)|F| positions.

    A minimum dominating set in the "differ on fewer than δ|F| cells" graph,
    found by branch and bound from the whole sample (every point covers
    itself): each step branches over the covers of the uncovered point with
    the fewest covers (Fomin, Grandoni and Kratsch, J. ACM 2009), and a
    branch stops once its size plus ⌈|uncovered| / widest cover⌉ cannot beat
    the best so far.
    """
    eps, delta = _check_params(sys, eps, delta)
    # an integer count c is below δ|F| iff it is below ⌈δ|F|⌉, which is 0
    # only for an empty window; the zero diagonal is below any other
    threshold = -(-delta.numerator * sys.window_size // delta.denominator)
    if threshold == 0:
        raise ValueError("an empty window admits no spanning set")
    if eps.numerator >= eps.denominator:
        return 1  # every point is ε-close to every other at every position
    # the diff table is symmetric, so covers[i] is both the set of points
    # that i covers and the set of points covering i
    covers = [sum(1 << j for j, c in enumerate(row) if c < threshold) for row in sys.diff_counts]
    m = len(sys)
    fewest = sorted(range(m), key=lambda i: covers[i].bit_count())
    widest = max(c.bit_count() for c in covers)
    best = m

    def cover(chosen: int, uncovered: int) -> None:
        nonlocal best
        if not uncovered:
            best = min(best, chosen)
            return
        if chosen - (-uncovered.bit_count() // widest) >= best:
            return
        i = next(i for i in fewest if uncovered >> i & 1)
        options = covers[i]
        while options:
            low = options & -options
            options ^= low
            cover(chosen + 1, uncovered & ~covers[low.bit_length() - 1])

    cover(0, (1 << m) - 1)
    return best
