"""Exception hierarchy and warning categories shared across the package."""

from __future__ import annotations


class LeadAllocError(Exception):
    """Base class for all errors raised by this package; :func:`located` explains ``at``."""

    def __init__(self, *args, at: tuple = ()) -> None:
        super().__init__(*args)
        self.at = at


class DomainValidationError(LeadAllocError):
    """A domain object or parameter violates one of its invariants."""


class InvalidNameError(DomainValidationError):
    """A neighborhood name is empty after canonicalization."""


class UndefinedCorrelationError(LeadAllocError):
    """Correlation is undefined (too few points or zero variance)."""


class UnknownCityError(LeadAllocError):
    """City identifier is not present in the city registry."""


class DatasetValidationError(LeadAllocError):
    """An input file was rejected; carries the full report.

    ``str()`` is one line per issue, warnings as well as errors, in the
    order the parse found them, which in a CSV is row order.
    """

    def __init__(self, report):
        self.report = report
        super().__init__("\n".join(map(report.describe, report.issues)))

    def __reduce__(self):  # rebuilt from its report, so a rejection can be pickled
        return (type(self), (self.report,))


class DataQualityWarning(UserWarning):
    """Non-fatal data condition (degenerate column, clamped weight, ...)."""


def located(at: tuple, build, *args):
    """``build(*args)``, with ``at``, where it builds, put in front of a fault's ``at``.

    ``at`` holds the keys and indices leading to a fault, as a JSON Pointer (RFC 6901) does.
    """
    try:
        return build(*args)
    except DomainValidationError as exc:
        exc.at = (*at, *exc.at)
        raise
