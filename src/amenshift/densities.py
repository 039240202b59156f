"""Exact and windowed Banach densities.

Everything here is exact rational arithmetic; no floats.  Exact answers exist
for unions of cosets (where upper and lower Banach density coincide with the
count over one fundamental domain); for arbitrary membership predicates a
finite window can only certify a lower bound for the translate-sup, and the
interval output says so instead of pretending otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .configs import CosetSet, _BoxScan, _points
from .groups import Element, SubgroupChain, ball

MembershipPredicate = Callable[[Element], "bool | None"]

WINDOW_CAVEAT = (
    "window sup underestimates the sup over the whole group; "
    "lower is a certified lower bound for the translate-sup density, "
    "upper only accounts for Unknown cells inside the window"
)


@dataclass(frozen=True)
class IntervalEstimate:
    """A density bracket [lower, upper] with an exactness claim.

    ``exact`` implies lower == upper; the converse is deliberately not
    claimed (a collapsed window bracket still proves nothing globally).
    Each bound is an int or a Fraction, any other (a float too) refused.
    """

    lower: Fraction
    upper: Fraction
    exact: bool
    method: str
    caveat: str | None = None

    def __post_init__(self):
        for bound in (self.lower, self.upper):
            if not isinstance(bound, (int, Fraction)):
                raise ValueError(f"bound {bound!r} is not an int or a Fraction")
        if not 0 <= self.lower <= self.upper <= 1:
            raise ValueError(f"bad interval [{self.lower}, {self.upper}]")
        if self.exact and self.lower != self.upper:
            raise ValueError("exact estimates must have lower == upper")

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError("no single value for an inexact interval")
        return self.lower

    @staticmethod
    def of(value: Fraction, method: str) -> "IntervalEstimate":
        value = Fraction(value)
        return IntervalEstimate._counted(value.numerator, value.numerator, value.denominator, True, method)

    @classmethod
    def _counted(
        cls, lower: int, upper: int, size: int, exact: bool, method: str, caveat: str | None = None
    ) -> "IntervalEstimate":
        """[lower/size, upper/size] from integer counts out of size > 0: the
        constructor's checks made on the counts, and each Fraction built once."""
        if not 0 <= lower <= upper <= size:
            raise ValueError(f"bad interval [{Fraction(lower, size)}, {Fraction(upper, size)}]")
        if exact and lower != upper:
            raise ValueError("exact estimates must have lower == upper")
        low = Fraction(lower, size)
        high = low if upper == lower else Fraction(upper, size)
        estimate = object.__new__(cls)
        vars(estimate).update(lower=low, upper=high, exact=exact, method=method, caveat=caveat)
        return estimate


def banach_density_exact(B: CosetSet) -> IntervalEstimate:
    """Banach density of a union of cosets: |reps| / |F_n|, exact.

    Upper and lower Banach densities agree on such sets, so a single exact
    rational is the complete answer.
    """
    count = len(B.reps)
    return IntervalEstimate._counted(count, count, B.chain.domain_size(B.level), True, "exact-coset")


def lower_banach_density(B: CosetSet) -> IntervalEstimate:
    """D_*(B) = 1 - D*(complement); the complement of a coset union is one too.

    Counted, not built: reps ⊆ F_n (checked when B was made), so the
    complement holds |F_n| - |reps| cells and D_*(B) = |reps| / |F_n|, the
    upper density :func:`banach_density_exact`.
    """
    return banach_density_exact(B)


def banach_density_windowed(
    member: MembershipPredicate,
    chain: SubgroupChain,
    n: int,
    radius: int,
) -> IntervalEstimate:
    """Windowed proxy for D*_{F_n}: max over translates g in ball(radius).

    lower counts confirmed members only; upper additionally counts Unknown
    cells as members.  The finite max is one-sided: the true translate-sup
    can exceed it, and the caveat field records that.

    member is called once per cell of the union box F_n + ball(radius), in
    row-major order; the window counts come from prefix sums over those
    values.
    """
    return _windowed(_points(member), chain, n, radius)


def _windowed(read: Callable, chain: SubgroupChain, n: int, radius: int) -> IntervalEstimate:
    """banach_density_windowed of the memberships ``read`` gives on a box (``configs._BoxScan``)."""
    F = chain.domain(n)
    scan = _BoxScan(read, F, ball(chain.rank, radius))
    values = scan.values
    lower = max(scan.window_sums(list(map(bool, values))))
    # with no Unknown cell read, upper counts what lower counts
    upper = max(scan.window_sums([v is None or bool(v) for v in values])) if None in values else lower
    return IntervalEstimate._counted(lower, upper, len(F), False, "windowed", WINDOW_CAVEAT)
