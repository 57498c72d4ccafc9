"""Exception hierarchy and warning categories shared across the package."""

from __future__ import annotations


class LeadAllocError(Exception):
    """Base class for all errors raised by this package."""


class InvalidNameError(LeadAllocError):
    """A neighborhood name is empty after canonicalization."""


class DomainValidationError(LeadAllocError):
    """A domain object or parameter violates one of its invariants."""


class UndefinedCorrelationError(LeadAllocError):
    """Correlation is undefined (too few points or zero variance)."""


class UnknownCityError(LeadAllocError):
    """City identifier is not present in the city registry."""


class DatasetValidationError(LeadAllocError):
    """An input file was rejected; carries the full validation report."""

    def __init__(self, report):
        self.report = report
        lines = "; ".join(report.describe(issue) for issue in report.errors())
        super().__init__(f"input rejected: {lines}")


class DataQualityWarning(UserWarning):
    """Non-fatal data condition (degenerate column, clamped weight, ...)."""
