"""Exception hierarchy.

Every domain failure carries a stable ``name``, equal to its class name and
used verbatim in CLI reports, so callers can branch on the failure kind
without parsing messages.
"""

from __future__ import annotations


class PolargrassError(Exception):
    """Base class for all errors raised by this package."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.name = cls.__name__


class FormatError(PolargrassError):
    """Malformed input data (bad JSON shape, wrong keys, length mismatch).

    CLI maps this family to exit code 1.
    """


class DomainError(PolargrassError):
    """A mathematically meaningful precondition failed.

    CLI maps this family to exit code 2 and records ``name`` in the report.
    """


class DimensionMismatch(DomainError):
    pass


class NonHermitian(DomainError):
    pass


class NotPositiveDefinite(DomainError):
    pass


class RankMismatch(DomainError):
    pass


class InvariantViolation(DomainError):
    """A typed object failed one of its construction invariants."""


class NotSkewAdjoint(DomainError):
    pass


class NotAComplexStructure(DomainError):
    pass


class NotPositive(DomainError):
    pass


class NotSkewSymmetric(DomainError):
    pass


class SingularTransform(DomainError):
    pass


class EigenspaceDimension(DomainError):
    pass


class NotRealizable(DomainError):
    pass


class NotComplementary(DomainError):
    pass


class ProjectionSingular(DomainError):
    pass


class NotSymplectic(DomainError):
    pass


class NotOrthogonal(DomainError):
    pass


class ShapeViolation(DomainError):
    pass


class NumericallySingular(DomainError):
    pass


class BoundaryContact(DomainError):
    pass


class NotUpperHalf(DomainError):
    pass


class NoPairing(DomainError):
    pass


class OutsideChart(DomainError):
    pass


class NotIncreasing(DomainError):
    pass


class BlockSingular(DomainError):
    pass


class DimensionGuard(DomainError):
    pass


class AliasingRisk(UserWarning):
    """Quadrature grid too coarse for the requested mode cutoff."""
