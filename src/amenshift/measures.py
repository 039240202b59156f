"""Finitely supported empirical measures and exact Prokhorov/Hausdorff distances.

The Prokhorov distance D_P(μ,ν) = inf{ε > 0 : μ(B) ≤ ν(B^ε) + ε for every B}
is attained with closed ε-expansions.  Under the discrete letter metric
(``discrete_metric`` itself) the closed ε-neighbourhood of B is B for ε < 1,
so D_P is the total variation: a closed form, read from the weights in units
of 1/lcm(weight denominators).  For any other metric, Strassen's theorem says
the condition at ε holds iff a sub-coupling of mass ≥ 1 - ε lives on the atom
pairs at distance ≤ ε, so D_P = min over atom distances t of
max(t, 1 - maxflow_t): an exact integer max-flow in those units, polynomial in
the support size, with no support cap.  The distances are read once per call
(per Hausdorff matrix) onto their own int scale 1/L, L the lcm of their
denominators, so the flow compares ints only, t·s against (s - flow)·L, and
each distance is one Fraction made at the end.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from math import lcm
from typing import Callable, Hashable, Iterable, Sequence

from .configs import Configuration, _BoxScan, _cells, _is_int, evaluate, require_known
from .groups import Box, FiniteSubset

Atom = Hashable
AtomMetric = Callable[[Atom, Atom], Fraction]


_ZERO, _ONE = Fraction(0), Fraction(1)


def discrete_metric(a: Atom, b: Atom) -> Fraction:
    return _ZERO if a == b else _ONE


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finitely supported probability measure with exact rational weights:
    each an int or a Fraction, any other weight (a float or a bool too)
    refused."""

    atoms: tuple[tuple[Atom, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("measure needs at least one atom")
        support = [a for a, _ in self.atoms]
        if len(set(support)) != len(support):
            raise ValueError("atoms must be distinct")
        weights = [w for _, w in self.atoms]
        for w in weights:
            if not (_is_int(w) or isinstance(w, Fraction)):
                raise ValueError(f"weight {w!r} is not an int or a Fraction")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if sum(weights) != 1:
            raise ValueError(f"weights sum to {sum(weights)}, not 1")
        object.__setattr__(self, "atoms", tuple(sorted(self.atoms, key=lambda p: repr(p[0]))))

    @classmethod
    def from_counts(cls, counts: dict[Atom, int]) -> "EmpiricalMeasure":
        """The frequencies of a dict of counts, zero counts dropped.  Its atoms
        are distinct and its weights sum to 1, so only a negative count
        (``weights must be positive``) or a zero total (``measure needs at
        least one atom``) is refused; atoms are sorted by repr."""
        if any(c < 0 for c in counts.values()):
            raise ValueError("weights must be positive")
        total = sum(counts.values())
        if not total:
            raise ValueError("measure needs at least one atom")
        atoms = sorted(((a, Fraction(c, total)) for a, c in counts.items() if c), key=lambda p: repr(p[0]))
        measure = object.__new__(cls)
        object.__setattr__(measure, "atoms", tuple(atoms))
        return measure

    @classmethod
    def point_mass(cls, atom: Atom) -> "EmpiricalMeasure":
        return cls(((atom, Fraction(1)),))

    def weight(self, atom: Atom) -> Fraction:
        return next((w for a, w in self.atoms if a == atom), _ZERO)

    @property
    def support(self) -> tuple[Atom, ...]:
        return tuple(a for a, _ in self.atoms)


def empirical_measure(
    x: Configuration,
    F: FiniteSubset,
    shape: FiniteSubset | None = None,
) -> EmpiricalMeasure:
    """Emp(x, F): frequency over g in F of the letter at g (or the pattern on shape+g).

    Letters are the one-set walk of :func:`omega_profile`; Unknown raises at
    the first Unknown cell met walking F (for patterns, the first window
    holding one, in shape order).  Patterns are the windows of one window
    scan (:class:`_BoxScan`), for any shape and F, bare ints too.
    """
    if shape is None:
        return omega_profile(x, (F,)).measures[0]
    if not F:
        raise ValueError("F must be nonempty")
    if not shape:
        atoms = [()] * len(F)  # every window of the empty shape is the empty pattern
    else:
        scan = _BoxScan(x._read, shape, F)
        scan.check_known()
        atoms = scan.windows(scan.values)
    return EmpiricalMeasure.from_counts(Counter(atoms))


def _units(measures: Sequence[EmpiricalMeasure]) -> tuple[int, list[list[int]]]:
    """The lcm of all weight denominators, and each measure's weights in units of 1/scale."""
    scale = lcm(*(w.denominator for m in measures for _, w in m.atoms))
    return scale, [[w.numerator * (scale // w.denominator) for _, w in m.atoms] for m in measures]


def _l1(p: dict[Atom, int], q: dict[Atom, int], m: int, n: int) -> int:
    """Σ_a |p(a)·m - q(a)·n| over the atoms of either dict, absent atoms 0: for
    m = n = 1 the l1 distance of two weight dicts on one scale; for counts p
    out of n and q out of m, 2·n·m times the TV of their frequencies."""
    return sum(abs(p.get(a, 0) * m - q.get(a, 0) * n) for a in p.keys() | q.keys())


def total_variation(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> Fraction:
    """max_B |μ(B) - ν(B)| = (1/2) Σ_a |μ(a) - ν(a)|, exact."""
    scale, (plus, minus) = _units((mu, nu))
    return Fraction(_l1(dict(zip(mu.support, plus)), dict(zip(nu.support, minus)), 1, 1), 2 * scale)


def _ranked(rows: Sequence[Atom], cols: Sequence[Atom], metric: AtomMetric):
    """The distances over rows × cols on one int scale: L, the lcm of their
    denominators; the distinct distances as ascending ints in units of 1/L; and
    the rank among them of each row-major pair index.  One metric call per
    pair, keyed by its numerator and denominator; a value without them (a
    float, a "p/q" string) is read through Fraction first."""
    groups = defaultdict(list)
    for k, (a, b) in enumerate(product(rows, cols)):
        v = metric(a, b)
        try:
            groups[v.numerator, v.denominator].append(k)
        except AttributeError:
            v = Fraction(v)
            groups[v.numerator, v.denominator].append(k)
    unit = lcm(*(d for _, d in groups))
    ints = defaultdict(list)  # one value keyed twice (a Rational in lowest terms or not) meets here
    for (p, d), ks in groups.items():
        ints[p * (unit // d)] += ks
    thresholds = sorted(ints)
    ranks = [0] * (len(rows) * len(cols))
    for r, t in enumerate(thresholds):
        for k in ints[t]:
            ranks[k] = r
    return unit, thresholds, ranks


def _augment(near, carried, supply, demand) -> int:
    """Push flow along shortest augmenting paths until none is left; return the amount.

    Arcs: source → μ-atom i (residual supply[i]) → ν-atom j in near[i]
    (uncapacitated) → sink (residual demand[j]); carried[j][i] is the flow on
    i → j and the residual of the backward arc j → i.
    """
    pushed = 0
    while True:
        back = {i: None for i, s in enumerate(supply) if s}  # μ-atom: ν-atom before it
        fore, queue, end = {}, deque(back), None  # ν-atom: μ-atom before it
        while queue and end is None:
            i = queue.popleft()
            for j in near[i]:
                if j in fore:
                    continue
                fore[j] = i
                if demand[j]:
                    end = j
                    break
                for k in carried[j]:
                    if k not in back:
                        back[k] = j
                        queue.append(k)
        if end is None:
            return pushed
        path, j = [], end  # forward arcs (i, j), walked back from the sink side
        while j is not None:
            path.append((fore[j], j))
            j = back[fore[j]]
        root = path[-1][0]
        reverse = [(i, j) for (i, _), (_, j) in zip(path, path[1:])]  # backward arcs j → i
        amount = min(supply[root], demand[end], *(carried[j][i] for i, j in reverse))
        supply[root] -= amount
        demand[end] -= amount
        for i, j in path:
            carried[j][i] = carried[j].get(i, 0) + amount
        for i, j in reverse:
            carried[j][i] -= amount
            if not carried[j][i]:
                del carried[j][i]
        pushed += amount


def _flow_distance(supply, demand, scale, unit, thresholds, ranks) -> int:
    """min_t max(t, 1 - maxflow_t / scale) in units of 1/(unit·scale), t over
    thresholds[ranks[i·|ν| + j]] / unit for the μ-ν atom pairs (i, j); ascending
    t only adds edges, so augmenting resumes.  Both sides compare as ints:
    t·scale against (scale - maxflow_t)·unit."""
    near, carried, n = [[] for _ in supply], [{} for _ in demand], len(demand)
    flow, best = 0, unit * scale
    for r, cells in groupby(sorted(range(len(ranks)), key=ranks.__getitem__), ranks.__getitem__):
        t = thresholds[r] * scale
        if t >= best:
            break
        for k in cells:
            near[k // n].append(k % n)
        flow += _augment(near, carried, supply, demand)
        best = min(best, max(t, (scale - flow) * unit))
    return best


def prokhorov_distance(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    metric: AtomMetric = discrete_metric,
) -> Fraction:
    """Exact Prokhorov distance min_t max(t, 1 - maxflow_t), t over the μ-ν atom distances.

    Strassen: μ(B) ≤ ν(B^t) + ε for every B iff maxflow_t ≥ 1 - ε, where
    maxflow_t couples μ to ν along the pairs at distance ≤ t; this is
    symmetric, so one direction suffices.  With ``discrete_metric`` itself
    the only thresholds are 0 and 1 and maxflow_0 = 1 - TV, so the distance
    is :func:`total_variation` and no flow runs; any other metric, a wrapper
    of the discrete one too, takes the flow.  The metric is called once per
    atom pair and may return an int, a Fraction, a float or a "p/q" string;
    the flow runs on ints in units of 1/(L·s), L the lcm of the distances'
    denominators and s of the weights', and the one Fraction is its minimum.
    """
    if metric is discrete_metric:
        return total_variation(mu, nu)
    scale, (supply, demand) = _units((mu, nu))
    unit, thresholds, ranks = _ranked(mu.support, nu.support, metric)
    return Fraction(_flow_distance(supply, demand, scale, unit, thresholds, ranks), unit * scale)


def hausdorff_distance(
    A: Sequence[EmpiricalMeasure],
    B: Sequence[EmpiricalMeasure],
    metric: AtomMetric = discrete_metric,
) -> Fraction:
    """max of the two directed sup-inf Prokhorov distances, exact on finite
    nonempty families of measures.

    D_P is symmetric, so both directions read one |A|×|B| matrix, whose entries
    share one unit scale 1/s.  Under ``discrete_metric`` itself an entry is
    the total variation Σ_a |u_μ(a) - u_ν(a)| / (2s) of the two measures'
    weights u in those units: the min and max are taken on the int sums and
    one Fraction is made at the end.  Any other metric reads one distance
    table over ∪A × ∪B, one call per atom pair, onto one int scale and runs
    the flow of :func:`prokhorov_distance` per entry; the min and max are
    taken on those int entries, in units of 1/(L·s), and one Fraction is
    made at the end, as under the discrete metric.
    """
    if not A or not B:
        raise ValueError("both families must be nonempty")
    scale, units = _units((*A, *B))
    if metric is discrete_metric:
        weights = [dict(zip(m.support, u)) for m, u in zip((*A, *B), units)]
        return Fraction(_sup_inf([[_l1(p, q, 1, 1) for q in weights[len(A) :]] for p in weights[: len(A)]]), 2 * scale)
    col_at = {b: y for y, b in enumerate(dict.fromkeys(b for nu in B for b in nu.support))}
    row_at = {a: x * len(col_at) for x, a in enumerate(dict.fromkeys(a for mu in A for a in mu.support))}
    unit, thresholds, ranks = _ranked(list(row_at), list(col_at), metric)
    rows = [[row_at[a] for a in mu.support] for mu in A]
    cols = [[col_at[b] for b in nu.support] for nu in B]

    def entry(row, supply, col, demand) -> int:
        cells = [ranks[x + y] for x in row for y in col]
        return _flow_distance(list(supply), list(demand), scale, unit, thresholds, cells)

    matrix = [[entry(r, s, c, d) for c, d in zip(cols, units[len(A) :])] for r, s in zip(rows, units)]
    return Fraction(_sup_inf(matrix), unit * scale)


def _sup_inf(rows):
    """max of the two directed sup-inf values of an |A|×|B| matrix, by rows and by columns."""
    return max(max(min(row) for row in rows), max(min(col) for col in zip(*rows)))


@dataclass(frozen=True)
class OmegaProfile:
    """Empirical measures along nested sets, with the consecutive-step trace.

    ``steps`` hold D_P of consecutive measures as TV: for ε < 1 the closed
    ε-neighbourhood of B under the discrete letter metric is B, so D_P = TV.
    ``step_bounds`` holds (|F_{n+1}| - |F_n|) / |F_{n+1}|, which dominates
    each consecutive Prokhorov step whenever the sets are nested; when the
    ratios |F_n|/|F_{n+1}| tend to 1 the trace is Cauchy and the limit set
    connected, while geometric ratios allow the trace to split in two.
    """

    sizes: tuple[int, ...]
    measures: tuple[EmpiricalMeasure, ...]
    steps: tuple[Fraction, ...]
    step_bounds: tuple[Fraction, ...]


def omega_profile(x: Configuration, sets: Iterable[FiniteSubset]) -> OmegaProfile:
    """Emp(x, F) along the given sets plus consecutive D_P (= TV) and their nesting bounds.

    The sets are read one at a time, in order, so a lazy iterable stops at
    the first set holding an Unknown cell before the next one is built.
    Letters are counted over each set as a sequence (a repeat counts again):
    a set that begins with the previous one, cell for cell, counts only its
    cells after it, and any other set starts afresh, so Unknown raises at F's
    first Unknown cell.  One evaluate checks F[0].  A :class:`Box` is counted
    from one ``_read``: of the whole box, or of the rows it adds to a previous
    Box with its corner and outer sides; any other set's cells, normalized as
    a window scan normalizes them (:func:`_cells`), are read one by one
    through :func:`evaluate`.  Each step is one integer sum over the two
    sets' letter counts (:func:`_l1`) and one Fraction.
    """
    sizes, tallies, measures = [], [], []
    counts, prev = Counter(), ()
    for F in sets:
        if not F:
            raise ValueError("F must be nonempty")
        sizes.append(len(F))
        evaluate(x, F[0])
        if isinstance(F, Box):
            lo, sides = F.lo, F.sides
            if isinstance(prev, Box) and prev.lo == lo and prev.sides[1:] == sides[1:] and prev.sides[0] <= sides[0]:
                # F begins with prev: its new cells are the rows past prev's
                lo, sides = (lo[0] + prev.sides[0], *lo[1:]), (sides[0] - prev.sides[0], *sides[1:])
            else:
                counts = Counter()
            letters = x._read(lo, sides)
            if None in letters:
                require_known(None, Box(lo, sides)[letters.index(None)])
            counts.update(letters)
        else:
            F = _cells(F)
            if F[: len(prev)] != prev:
                counts, prev = Counter(), ()
            counts.update(require_known(evaluate(x, g), g) for g in F[len(prev) :])
        tallies.append(dict(counts))  # counts grows on with the next set
        measures.append(EmpiricalMeasure.from_counts(counts))
        prev = F
    if not sizes:
        raise ValueError("need at least one set")
    steps = tuple(Fraction(_l1(c, d, m, n), 2 * n * m) for c, d, n, m in zip(tallies, tallies[1:], sizes, sizes[1:]))
    bounds = tuple(Fraction(nxt - prev, nxt) for prev, nxt in zip(sizes, sizes[1:]))
    return OmegaProfile(tuple(sizes), tuple(measures), steps, bounds)
