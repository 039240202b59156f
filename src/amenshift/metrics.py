"""Weyl-type pseudometrics between shift configurations.

For symbolic configurations with the discrete letter metric the Weyl
pseudometric equals the upper Banach density of the disagreement set, the
Besicovitch pseudometric along a Følner sequence equals the plain Følner
average of the disagreement indicator, and the fixed-point form
D_W'(x,z) = inf{ε : D*({g : ρ(x_g,z_g) > ε}) < ε} collapses to the same
disagreement density.  Exact rationals are produced whenever the pair has
coset structure; anything windowed is labelled with its bracket direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .configs import (
    Configuration,
    CosetDisagreement,
    _BoxScan,
    _check_cell,
    _differs,
    _offset,
    _prefix_sums,
    _rank,
    disagreement_set,
    require_known,
)
from .densities import IntervalEstimate, banach_density_windowed
from .errors import NotAKCover
from .groups import FiniteSubset, SubgroupChain, ball, identity


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
    if x.chain is not None and x.chain == z.chain:
        dis = disagreement_set(x, z)
        assert isinstance(dis, CosetDisagreement)
        lower = dis.confirmed.density()
        upper = lower + dis.unresolved.density()
        value = IntervalEstimate(lower, upper, dis.exact, "exact-coset")
        return PseudometricReport(value, "exact-coset")
    if n is None or radius is None:
        raise ValueError("non-coset pair: supply level n and window radius")
    chain = chain or x.chain or z.chain
    if chain is None:
        raise ValueError("two boxed oracles: supply the chain for the window shape")
    value = banach_density_windowed(_differs(x, z), chain, n, radius, x, z)
    return PseudometricReport(value, "window-bracket")


def _delta_sup(x, z, F: FiniteSubset, translates) -> int:
    """max over the translates g of Σ_{f∈F} ρ(x_{f+g}, z_{f+g}), 0 for an empty
    F, by one window scan (:class:`_BoxScan`) for every F, box or not; Unknown
    raises at the first Unknown cell, in F's order, of the first window holding one."""
    if not F:
        return 0
    scan = _BoxScan(_differs(x, z), F, translates, x, z)
    scan.check_known()
    return max(scan.window_sums(scan.values))


def _common_period_level(x: Configuration, z: Configuration) -> int | None:
    if x.chain is not None and x.chain == z.chain and x.fully_resolved() and z.fully_resolved():
        return max(x.max_level, z.max_level)
    return None


def delta_star_exact(x: Configuration, z: Configuration, F: FiniteSubset) -> int:
    """Δ*_F(x,z) = sup_g Σ_{f∈F} ρ(x_{f+g}, z_{f+g}), exact by one full period scan.

    Both sides must be fully resolved over one chain (every Periodic is); the
    summand is then periodic in g with period q_p, so the sup over the whole
    group is attained on F_p.
    """
    p = _common_period_level(x, z)
    if p is None:
        raise ValueError("exact Δ* needs two fully resolved configurations over one chain")
    return _delta_sup(x, z, F, x.chain.domain(p))


@dataclass(frozen=True)
class WeylBound:
    """H(F)/|F| material: a window proxy and, when available, the exact value.

    ``window_proxy`` is a lower bound for sup_g Δ_{F+g}/|F| (which itself
    bounds the Weyl pseudometric from above); ``exact`` is the true
    sup, available for same-chain fully resolved pairs via a full period scan.
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
    proxy_num = _delta_sup(x, z, F, ball(_rank(F[0]), radius))
    p = _common_period_level(x, z)
    exact = None if p is None else Fraction(_delta_sup(x, z, F, x.chain.domain(p)), len(F))
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
    every average is one entry of its summed-area table; Unknown raises at
    the first Unknown cell of the first F_n holding one.
    """
    if not 0 <= n_lo <= n_hi <= chain.depth:
        raise ValueError("bad level range")
    levels = tuple(range(n_lo, n_hi + 1))
    # F_{n_hi} starts at the identity; both sides are checked there once
    _check_cell(identity(chain.rank), x, z)
    values = list(map(_differs(x, z), chain.domain(n_hi)))
    sides = (chain.scale(n_hi),) * chain.rank
    unknown = _prefix_sums([v is None for v in values], sides)
    hits = _prefix_sums([1 if v else 0 for v in values], sides)
    averages = []
    for n in levels:
        corner = _offset((chain.scale(n) - 1,) * chain.rank, sides)
        if unknown[corner]:
            require_known(None, next(g for g in chain.domain(n) if values[_offset(g, sides)] is None))
        averages.append(Fraction(hits[corner], chain.domain_size(n)))
    return BesicovitchTrace(levels, tuple(averages), max(averages))


def validate_k_cover(F: FiniteSubset, cover: Sequence[FiniteSubset], k: int) -> None:
    if k < 1:
        raise NotAKCover("k must be at least 1")
    for g in F:
        hits = sum(1 for K in cover if g in K)
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
    inequality H(F) ≤ (1/k) Σ H(K_i): exact for periodic pairs, else window
    proxies at one shared radius."""
    validate_k_cover(F, cover, k)
    p = _common_period_level(x, z)
    # one full period of translates is exact; otherwise the shared window
    translates = x.chain.domain(p) if p is not None else ball(x.rank, radius)
    hf = Fraction(_delta_sup(x, z, F, translates))
    hks = [Fraction(_delta_sup(x, z, tuple(K), translates)) for K in cover]
    return hf, hks

