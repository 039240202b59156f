"""Weyl-type pseudometrics between shift configurations.

For symbolic configurations with the discrete letter metric the Weyl
pseudometric equals the upper Banach density of the disagreement set, the
Besicovitch pseudometric along a Følner sequence equals the plain Følner
average of the disagreement indicator, and the fixed-point form
D_W'(x,z) = inf{ε : D*({g : ρ(x_g,z_g) > ε}) < ε} collapses to the same
disagreement density.  A coset pair's exact values all read its one disagreement
array D on F_p; anything windowed is labelled with its bracket direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .configs import (
    Configuration,
    _BoxScan,
    _cells,
    _coset_pair,
    _differs,
    _rank,
    _window,
    require_known,
)
from .densities import IntervalEstimate, _windowed
from .errors import NotAKCover
from .groups import Box, Element, FiniteSubset, SubgroupChain, ball, identity


@dataclass(frozen=True)
class PseudometricReport:
    value: IntervalEstimate
    basis: str


def dstar_distance(
    x: Configuration,
    z: Configuration,
    n: int | None = None,
    radius: int | None = None,
    chain: SubgroupChain | None = None,
) -> PseudometricReport:
    """D* of the disagreement set {g : x_g ≠ z_g}.

    Exact bracket (collapsed unless cells are unresolved) for same-chain
    coset-structured pairs; otherwise a window scan with level n and
    translate radius must be supplied (and a chain, when neither side
    carries one).

    This is also the fixed-point form D_W'(x,z) = inf{ε > 0 : D*({g :
    ρ(x_g, z_g) > ε}) < ε}: with the discrete letter metric the inner set is
    the disagreement set for every ε in (0,1), so the infimum is the
    disagreement density itself (including the boundary case density 1,
    where only ε ≥ 1 qualifies), and ``--metric dwprime`` reports this value.
    """
    if pair := _coset_pair(x, z):
        # D counts the confirmed and the unresolved cosets of the disagreement set
        D = pair[1]
        true, unknown = D.count(True), D.count(None)
        value = IntervalEstimate._counted(true, true + unknown, len(D), not unknown, "exact-coset")
        return PseudometricReport(value, "exact-coset")
    if n is None or radius is None:
        raise ValueError("non-coset pair: supply level n and window radius")
    chain = chain or x.chain or z.chain
    if chain is None:
        raise ValueError("two boxed oracles: supply the chain for the window shape")
    value = _windowed(_differs(x, z), chain, n, radius)
    return PseudometricReport(value, "window-bracket")


def _delta_sup(F: FiniteSubset, read, translates) -> int:
    """max over the translates g of Σ_{f∈F} of the values the box reader
    ``read`` gives at f + g, 0 for an empty F, by one window scan
    (:class:`_BoxScan`); Unknown raises at the first Unknown cell, in F's
    order, of the first window holding one."""
    if not F:
        return 0
    scan = _BoxScan(read, F, translates)
    scan.check_known()
    return max(scan.window_sums(scan.values))


def _period_scan(x: Configuration, z: Configuration) -> Callable[[FiniteSubset], int] | None:
    """F ↦ Δ*_F for a fully resolved pair over one chain, read off its
    disagreement array D on F_p (:func:`_coset_pair`), else None, with no D built.

    Σ_{f∈F} D[(f + g) mod q_p] is periodic in g, so the sup over the group is
    the max over g ∈ F_p.  A :class:`Box` F takes the kernel over
    the union box bbox(F) + F_p, one window of D, whose prefix sums cost
    about that many cells; any other F sums the |F| windows g ↦ D[(f + g)
    mod q_p], f ∈ F, cell by cell (``configs._window`` over F_p: |F|·|F_p|
    additions, which the kernel's per-window sums cost as well).  Neither reads a
    configuration cell, so neither checks one: a shape of another rank is
    refused before any window or scan.
    """
    if not (x.chain is not None and x.chain == z.chain and x.fully_resolved() and z.fully_resolved()):
        return None
    p, D = _coset_pair(x, z)
    chain, q = x.chain, x.chain.scale(p)

    def sup(F: FiniteSubset) -> int:
        if not F or isinstance(F, Box):
            return _delta_sup(F, lambda lo, sides: _window(D, q, sides, lo), chain.domain(p))
        cells = _cells(F)
        if len(cells[0]) != chain.rank:
            raise ValueError(f"shape of rank {len(cells[0])} and translates of rank {chain.rank}")
        return max(map(sum, zip(*(_window(D, q, (q,) * chain.rank, f) for f in cells))))

    return sup


def delta_star_exact(x: Configuration, z: Configuration, F: FiniteSubset) -> int:
    """Δ*_F(x,z) = sup_g Σ_{f∈F} ρ(x_{f+g}, z_{f+g}), exact from one period.

    Both sides must be fully resolved over one chain (every Periodic is); the
    summand is then periodic in g with period q_p, so the sup over the whole
    group is attained on F_p.  A Box F is scanned over bbox(F) + F_p; any
    other F sums |F| rotations of the disagreement array on F_p
    (:func:`_period_scan`).
    """
    if (sup := _period_scan(x, z)) is None:
        raise ValueError("exact Δ* needs two fully resolved configurations over one chain")
    return sup(F)


@dataclass(frozen=True)
class WeylBound:
    """H(F)/|F| material: a window proxy and, when available, the exact value.

    ``window_proxy`` is a lower bound for sup_g Δ_{F+g}/|F| (which itself
    bounds the Weyl pseudometric from above); ``exact`` is the true sup, for
    same-chain fully resolved pairs read off their disagreement array on one
    period (:func:`_period_scan`: a Box F by the kernel, any other F by rotation).
    """

    window_proxy: Fraction
    exact: Fraction | None


def weyl_upper_bound(
    x: Configuration,
    z: Configuration,
    F: FiniteSubset,
    radius: int = 0,
) -> WeylBound:
    """Window proxy for H(F)/|F| with H(F) = Δ*_F, plus the exact value when periodic."""
    if not F:
        raise ValueError("F must be nonempty")
    proxy_num = _delta_sup(F, _differs(x, z), ball(_rank(F[0]), radius))
    sup = _period_scan(x, z)
    exact = None if sup is None else Fraction(sup(F), len(F))
    return WeylBound(Fraction(proxy_num, len(F)), exact)


@dataclass(frozen=True)
class BesicovitchTrace:
    """Følner averages of the pointwise distance over a run of levels."""

    levels: tuple[int, ...]
    averages: tuple[Fraction, ...]
    running_max: Fraction


def besicovitch_estimate(
    x: Configuration,
    z: Configuration,
    chain: SubgroupChain,
    n_lo: int,
    n_hi: int,
) -> BesicovitchTrace:
    """Averages (1/|F_n|) Σ_{g∈F_n} ρ(x_g, z_g) for n in [n_lo, n_hi].

    The boxes F_n = [0, q_n)^d are nested, so ρ is read once on F_{n_hi} and
    each F_n is cut out of that array in row-major order; Unknown raises at
    the first Unknown cell of the first F_n holding one.  A level off the
    chain raises LevelOutOfRange naming it; n_lo > n_hi, ValueError naming both.
    """
    if n_lo > n_hi:
        raise ValueError(f"level range {n_lo}..{n_hi} is empty")
    chain._check_level(n_lo)
    chain._check_level(n_hi)
    levels = tuple(range(n_lo, n_hi + 1))
    e, q = identity(chain.rank), chain.scale(n_hi)
    values = _differs(x, z)(e, (q,) * chain.rank)
    averages = []
    for n in levels:
        cut = _window(values, q, (chain.scale(n),) * chain.rank, e)
        if None in cut:
            require_known(None, chain.domain(n)[cut.index(None)])
        averages.append(Fraction(cut.count(True), len(cut)))
    return BesicovitchTrace(levels, tuple(averages), max(averages))


def _cover_counts(F: FiniteSubset, cover: Sequence[FiniteSubset]) -> Iterator[tuple[Element, int]]:
    """(g, how many sets of the cover hold g) for each cell g of F, as :func:`_cells` reads them."""
    sets = [set(_cells(K)) for K in cover]
    return ((g, sum(g in K for K in sets)) for g in _cells(F))


def validate_k_cover(F: FiniteSubset, cover: Sequence[FiniteSubset], k: int) -> None:
    """NotAKCover unless k sets of the cover hold each cell of F (:func:`_cover_counts`)."""
    if k < 1:
        raise NotAKCover("k must be at least 1")
    for g, hits in _cover_counts(F, cover):
        if hits < k:
            raise NotAKCover(f"{g} covered {hits} < {k} times")


def shearer_values(
    x: Configuration,
    z: Configuration,
    F: FiniteSubset,
    cover: Sequence[FiniteSubset],
    k: int,
    radius: int = 0,
) -> tuple[Fraction, list[Fraction]]:
    """H(F) and the H(K_i) for a k-cover of F, the two sides of Shearer's
    inequality H(F) ≤ (1/k) Σ H(K_i): exact for fully resolved pairs, read
    off their disagreement array on one period (a Box by the kernel, a
    sparse cover by |K| rotations of the array; :func:`_period_scan`), else
    window proxies at one shared radius."""
    validate_k_cover(F, cover, k)
    # one full period of translates is exact; otherwise the shared window
    if (sup := _period_scan(x, z)) is None:
        read, window = _differs(x, z), ball(x.rank, radius)
        sup = lambda K: _delta_sup(K, read, window)
    hf = Fraction(sup(F))
    hks = [Fraction(sup(tuple(K))) for K in cover]
    return hf, hks

