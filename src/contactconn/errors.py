"""Exception types shared across the package."""

from collections import Counter


class ContactConnError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ContactConnError):
    """Malformed expression text.

    `offset` is the byte offset into the source string at which the
    problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier that is neither a coordinate, a constant nor a function."""

    def __init__(self, name: str, coords: tuple[str, ...], offset: int):
        super().__init__(
            f"unknown identifier {name!r}; known coordinates: {', '.join(coords)}",
            offset,
        )
        self.name = name


class ExprDomainError(ContactConnError):
    """Evaluation hit a point outside an operation's domain.

    Reports the offending subexpression so the user can locate the
    division by zero or negative sqrt argument in their input; `message`
    is what went wrong there.
    """

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in {subexpr!r}")
        self.message = message
        self.subexpr = subexpr


class SingularMatrixError(ContactConnError):
    """Value part of a linear system is rank deficient."""


class LinearSolveResidualError(ContactConnError):
    """A linear solve produced a residual above its contract bound."""


class NotContactError(ContactConnError):
    """The contact condition fails at the requested point."""


class DegenerateMetricError(ContactConnError):
    """g restricted to the contact distribution is not positive definite."""


class DegenerateFrameError(ContactConnError):
    """A 3D adapted frame is not oriented: d(theta_hat)(X1, X2) is not +1."""


class SymmetryError(ContactConnError):
    """A tensor violates the symmetry its operation requires."""


class InconsistentStructureError(ContactConnError):
    """Structure-equation residual exceeded tolerance; upstream data is bad."""


class SpecError(ContactConnError):
    """A manifold description file or registry entry is invalid.

    `field` is a dotted path naming the offending entry when known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class UnknownManifoldError(ContactConnError):
    """Requested built-in manifold name does not exist."""

    def __init__(self, name: str, available: tuple[str, ...]):
        super().__init__(
            f"unknown manifold {name!r}; available: {', '.join(available)}"
        )
        self.available = available


class SuiteUnavailableError(ContactConnError):
    """A verification suite does not apply to the manifold's dimension."""


class AllPointsSkippedError(ContactConnError):
    """Every sampled point was skipped.

    `reasons` holds each point's skip reason, in point order; the message
    names each distinct one with the number of points it skipped, in order
    of first appearance.
    """

    def __init__(self, message: str, reasons=()):
        self.reasons = tuple(reasons)
        counts = Counter(self.reasons)
        listed = "; ".join(
            f"{n} point{'' if n == 1 else 's'}: {reason}" for reason, n in counts.items()
        )
        super().__init__(f"{message} ({listed})" if listed else message)
