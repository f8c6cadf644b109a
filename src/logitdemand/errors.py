"""Exception types raised across the package."""

from __future__ import annotations


class LogitDemandError(Exception):
    """Base class for all package errors."""


class EstimationError(LogitDemandError):
    """A fit or an instrument test failed on a valid spec and panel; the CLI exits 3."""


# --- linear algebra ---------------------------------------------------------


class RankDeficientError(EstimationError):
    """Design matrix is numerically rank deficient (perfect multicollinearity)."""

    def __init__(self, columns, message=None):
        self.columns = tuple(columns)
        super().__init__(
            message or f"matrix is rank deficient; dependent columns: {list(self.columns)}"
        )


# --- demand / shares --------------------------------------------------------


class ZeroQuantityError(LogitDemandError):
    """A product sold zero units; its log share is undefined."""


class OutsideShareNonPositiveError(LogitDemandError):
    """Total quantity meets or exceeds market size, leaving no outside share."""


# --- estimation -------------------------------------------------------------


class InsufficientObservationsError(EstimationError):
    """Fewer usable rows than estimated coefficients."""


class CollinearWithFixedEffectsError(EstimationError):
    """A regressor is absorbed by the unit/period fixed effects, or the panel is disconnected."""

    def __init__(self, column, message=None):
        self.column = column
        super().__init__(
            message or f"regressor {column!r} is collinear with the fixed effects"
        )


class OrderConditionViolatedError(LogitDemandError):
    """Fewer instruments than endogenous regressors (m < k)."""


# --- diagnostics ------------------------------------------------------------


class MultipleEndogenousError(EstimationError):
    """The first-stage F test supports exactly one endogenous regressor."""


class ExactlyIdentifiedError(EstimationError):
    """Over-identification test is undefined when m = k."""


# --- data ingestion ---------------------------------------------------------


class ParseError(LogitDemandError):
    """Malformed CSV cell or structure."""

    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column!r}: {message}")


class DuplicateKeyError(LogitDemandError):
    """The same (unit, period) pair appears twice."""

    def __init__(self, unit, period):
        self.unit = unit
        self.period = period
        super().__init__(f"duplicate row for unit {unit!r}, period {period}")


class DomainViolationError(LogitDemandError):
    """A cell value violates the column's domain."""

    def __init__(self, column, row, reason):
        self.column = column
        self.row = row
        super().__init__(f"column {column!r}, row {row}: {reason}")


# --- model-spec files -------------------------------------------------------


class UnknownKeyError(LogitDemandError):
    """Spec file contains a key outside the schema."""


class MissingRequiredError(LogitDemandError):
    """Spec file lacks a required field."""

    def __init__(self, field):
        self.field = field
        super().__init__(f"spec is missing required field {field!r}")


class UnknownColumnError(LogitDemandError):
    """Spec file references a column absent from the dataset."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"spec references unknown column {name!r}")


# --- simulation -------------------------------------------------------------


class DegenerateSharesError(LogitDemandError):
    """Simulated market produced a vanishing share even after re-draws."""
