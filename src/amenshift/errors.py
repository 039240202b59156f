"""Exceptions shared across the package."""


class AmenshiftError(Exception):
    """Base class for all errors raised by this package."""


class NonDividingScales(AmenshiftError):
    """Chain scales q_1 | q_2 | ... violated; the box decomposition cannot hold."""


class LevelOutOfRange(AmenshiftError):
    """A chain level outside 0..depth was requested."""


class InexactVariant(AmenshiftError):
    """An exact quantity was requested from a bounded-oracle configuration."""


class ChainMismatch(AmenshiftError):
    """Two coset-table configurations live over different subgroup chains."""


class UnknownMembership(AmenshiftError):
    """An aggregate hit an Unknown cell; use an interval-reporting variant."""


class SystemTooLarge(AmenshiftError):
    """Sampled system has more points than SYSTEM_CAP, the branch-and-bound searches' cap."""


class NotAKCover(AmenshiftError):
    """The supplied family is not a k-cover of the target set."""


class DeltaOutOfRange(AmenshiftError):
    """Continuity bound requested outside its 0 < delta < 1/4 hypothesis."""


class UnresolvedCells(AmenshiftError):
    """A coset table has Unknown cells where a total word is required."""


class InconsistentCylinders(AmenshiftError, ValueError):
    """Overlapping cosets of a coset table were assigned conflicting letters."""


class ChainTooShallow(AmenshiftError):
    """The chain has too few levels for the requested construction."""


class SpecError(AmenshiftError):
    """An experiment spec failed validation; message carries a JSON pointer."""
