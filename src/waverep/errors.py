"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class WaverepError(Exception):
    """Base class for all toolkit errors."""


class SingularMatrix(WaverepError):
    """The matrix has determinant zero."""


class NotExpansive(WaverepError):
    """Some eigenvalue has modulus <= 1.

    ``stage`` records the first reduction stage of the exact stability
    test at which the certificate failed.
    """

    def __init__(self, message: str, stage: int):
        super().__init__(message)
        self.stage = stage


class DimensionMismatch(WaverepError):
    """Operands live in different ambient dimensions."""


class NonDiagonalDilation(WaverepError):
    """The exact box path needs a diagonal frequency-domain matrix (or n = 1)."""


class BadAnnulus(WaverepError):
    """Annulus radii must satisfy 0 < r_in < r_out."""


class NotCovered(WaverepError):
    """No dilate of the set contains the point within the searched range."""


class AmbiguousScale(WaverepError):
    """Two distinct dilates of the set contain the point (disjointness failure)."""

    def __init__(self, message: str, witnesses):
        super().__init__(message)
        self.witnesses = witnesses


class WindowTooSmall(WaverepError):
    """Truncation to the index window loses more mass than tolerated."""


class ZeroFunction(WaverepError):
    """The operation is undefined on the zero function."""


class InconsistentTarget(WaverepError):
    """The prescribed character values violate the compatibility relations."""


class LevelExceeded(WaverepError):
    """An element has a denominator exponent beyond the target's level."""


class InputError(WaverepError):
    """Malformed user input (files, CLI arguments)."""


class ExactModeUnavailable(InputError, ValueError):
    """Exact mode was asked for on a frequency matrix that is not diagonal."""
