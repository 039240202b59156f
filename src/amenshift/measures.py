"""Finitely supported empirical measures and exact Prokhorov/Hausdorff distances.

The Prokhorov distance
    D_P(μ,ν) = inf{ε > 0 : μ(B) ≤ ν(B^ε) + ε for every B}
is computed exactly by exhausting subsets of the joint support: feasibility
is monotone in ε, the infimum is attained in the limit-from-above form with
closed ε-expansions, and it always equals either a pairwise atom distance or
a subset mass difference μ(B) - ν(B^{≤d}) at some distance threshold d.  The
support is capped so the subset search stays exhaustive rather than
approximate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Sequence

from .configs import Configuration, _windows, evaluate, require_known
from .errors import SupportTooLarge
from .groups import FiniteSubset

Atom = Hashable
AtomMetric = Callable[[Atom, Atom], Fraction]

PROKHOROV_SUPPORT_CAP = 15


def discrete_metric(a: Atom, b: Atom) -> Fraction:
    return Fraction(0) if a == b else Fraction(1)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finitely supported probability measure with exact rational weights."""

    atoms: tuple[tuple[Atom, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("measure needs at least one atom")
        support = [a for a, _ in self.atoms]
        if len(set(support)) != len(support):
            raise ValueError("atoms must be distinct")
        weights = [w for _, w in self.atoms]
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if sum(weights) != 1:
            raise ValueError(f"weights sum to {sum(weights)}, not 1")
        object.__setattr__(self, "atoms", tuple(sorted(self.atoms, key=lambda p: repr(p[0]))))

    @classmethod
    def from_counts(cls, counts: dict[Atom, int]) -> "EmpiricalMeasure":
        total = sum(counts.values())
        return cls(tuple((a, Fraction(c, total)) for a, c in counts.items() if c))

    @classmethod
    def point_mass(cls, atom: Atom) -> "EmpiricalMeasure":
        return cls(((atom, Fraction(1)),))

    def weight(self, atom: Atom) -> Fraction:
        for a, w in self.atoms:
            if a == atom:
                return w
        return Fraction(0)

    @property
    def support(self) -> tuple[Atom, ...]:
        return tuple(a for a, _ in self.atoms)


def empirical_measure(
    x: Configuration,
    F: FiniteSubset,
    shape: FiniteSubset | None = None,
) -> EmpiricalMeasure:
    """Emp(x, F): frequency over g in F of the letter at g (or the pattern on shape+g)."""
    if not F:
        raise ValueError("F must be nonempty")
    point = lambda g: require_known(evaluate(x, g), g)
    atoms = map(point, F) if shape is None else map(tuple, _windows(point, shape, F))
    return EmpiricalMeasure.from_counts(Counter(atoms))


def total_variation(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> Fraction:
    """max_B |μ(B) - ν(B)| = (1/2) Σ_a |μ(a) - ν(a)|, exact."""
    support = set(mu.support) | set(nu.support)
    return sum((abs(mu.weight(a) - nu.weight(a)) for a in support), Fraction(0)) / 2


def _prokhorov_tables(mu, nu, metric):
    support = sorted(set(mu.support) | set(nu.support), key=repr)
    if len(support) > PROKHOROV_SUPPORT_CAP:
        raise SupportTooLarge(f"joint support {len(support)} exceeds {PROKHOROV_SUPPORT_CAP}")
    n = len(support)
    mw = [mu.weight(a) for a in support]
    nw = [nu.weight(a) for a in support]
    dist = [[Fraction(metric(a, b)) for b in support] for a in support]
    thresholds = sorted({Fraction(0)} | {dist[i][j] for i in range(n) for j in range(i + 1, n)})
    # subset masses, indexed by bitmask
    mu_mass = [Fraction(0)] * (1 << n)
    nu_mass = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        mu_mass[mask] = mu_mass[mask ^ low] + mw[i]
        nu_mass[mask] = nu_mass[mask ^ low] + nw[i]
    # closed expansion of each subset at each threshold, as bitmasks
    expansions = {}
    for t in thresholds:
        near = [0] * n
        for i in range(n):
            for j in range(n):
                if dist[i][j] <= t:
                    near[i] |= 1 << j
        exp = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            i = low.bit_length() - 1
            exp[mask] = exp[mask ^ low] | near[i]
        expansions[t] = exp
    return support, thresholds, mu_mass, nu_mass, expansions


def prokhorov_distance(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    metric: AtomMetric = discrete_metric,
) -> Fraction:
    """Exact Prokhorov distance over the joint support, symmetrized form.

    Checks every subset in both directions; candidate values are the atom
    distances together with all subset mass differences at each distance
    threshold, and the answer is the least feasible candidate under closed
    ε-expansions (the limit of the open-expansion condition from above).
    """
    support, thresholds, mu_mass, nu_mass, expansions = _prokhorov_tables(mu, nu, metric)
    n = len(support)
    full = (1 << n) - 1

    def feasible(eps: Fraction) -> bool:
        t = max((d for d in thresholds if d <= eps), default=Fraction(0))
        exp = expansions[t]
        for mask in range(1, full + 1):
            if mu_mass[mask] > nu_mass[exp[mask]] + eps:
                return False
            if nu_mass[mask] > mu_mass[exp[mask]] + eps:
                return False
        return True

    candidates = set(thresholds)
    for t in thresholds:
        exp = expansions[t]
        for mask in range(1, full + 1):
            candidates.add(mu_mass[mask] - nu_mass[exp[mask]])
            candidates.add(nu_mass[mask] - mu_mass[exp[mask]])
    ordered = sorted(c for c in candidates if c >= 0)
    # feasibility is monotone in eps: binary search the boundary
    lo, hi = 0, len(ordered) - 1
    if not feasible(ordered[hi]):
        raise AssertionError("no feasible candidate; candidate set incomplete")
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]


@dataclass(frozen=True)
class MeasureSet:
    """A nonempty finite family of empirical measures (an ω̂-style trace)."""

    measures: tuple[EmpiricalMeasure, ...]

    def __post_init__(self):
        if not self.measures:
            raise ValueError("measure set must be nonempty")


def hausdorff_distance(
    A: MeasureSet | Sequence[EmpiricalMeasure],
    B: MeasureSet | Sequence[EmpiricalMeasure],
    metric: AtomMetric = discrete_metric,
) -> Fraction:
    """max of the two directed sup-inf Prokhorov distances, exact on finite sets."""
    fam_a = A.measures if isinstance(A, MeasureSet) else tuple(A)
    fam_b = B.measures if isinstance(B, MeasureSet) else tuple(B)
    if not fam_a or not fam_b:
        raise ValueError("both families must be nonempty")
    d_ab = max(min(prokhorov_distance(mu, nu, metric) for nu in fam_b) for mu in fam_a)
    d_ba = max(min(prokhorov_distance(nu, mu, metric) for mu in fam_a) for nu in fam_b)
    return max(d_ab, d_ba)


@dataclass(frozen=True)
class OmegaProfile:
    """Empirical measures along nested sets, with the consecutive-step trace.

    ``step_bounds`` holds (|F_{n+1}| - |F_n|) / |F_{n+1}|, which dominates
    each consecutive Prokhorov step whenever the sets are nested; when the
    ratios |F_n|/|F_{n+1}| tend to 1 the trace is Cauchy and the limit set
    connected, while geometric ratios allow the trace to split in two.
    """

    sizes: tuple[int, ...]
    measures: tuple[EmpiricalMeasure, ...]
    steps: tuple[Fraction, ...]
    step_bounds: tuple[Fraction, ...]

    def as_measure_set(self) -> MeasureSet:
        return MeasureSet(self.measures)


def omega_profile(
    x: Configuration,
    sets: Sequence[FiniteSubset],
    shape: FiniteSubset | None = None,
    metric: AtomMetric = discrete_metric,
) -> OmegaProfile:
    """Emp(x, F) along the given sets plus consecutive D_P and their nesting bounds."""
    if len(sets) < 1:
        raise ValueError("need at least one set")
    measures = tuple(empirical_measure(x, F, shape) for F in sets)
    steps = []
    bounds = []
    for prev, nxt, mp, mn in zip(sets, sets[1:], measures, measures[1:]):
        steps.append(prokhorov_distance(mn, mp, metric))
        bounds.append(Fraction(len(nxt) - len(prev), len(nxt)))
    return OmegaProfile(
        tuple(len(F) for F in sets), measures, tuple(steps), tuple(bounds)
    )
