"""Exception types shared across the package."""

from __future__ import annotations


class FastcuError(Exception):
    """Base class for every error raised by this package."""


class NotAssociative(FastcuError):
    pass


class NoIdentity(FastcuError):
    pass


class NoInverse(FastcuError):
    pass


class NotProjectiveRep(FastcuError):
    pass


class NotRightQuasigroup(FastcuError):
    pass


class DimensionMismatch(FastcuError):
    pass


class UnsupportedInput(FastcuError):
    pass


class NonOrthogonalProjectors(FastcuError):
    pass


class NetTooLarge(FastcuError):
    pass


class NotUnitary(FastcuError):
    pass


class NotSpecial(FastcuError):
    pass


class TooLarge(FastcuError):
    pass


class AxiomViolation(FastcuError):
    pass


class BudgetExhausted(FastcuError):
    """Compilation ran out of net budget. Carries the scan points tried, in order."""

    def __init__(self, message: str, scan: tuple = ()):
        super().__init__(message)
        self.scan = scan


class UnknownExample(FastcuError):
    pass


class SchemaMismatch(FastcuError):
    pass
