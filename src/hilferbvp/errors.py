"""Exception types shared across the package."""


class HilferBvpError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDomain(HilferBvpError):
    """An argument lies outside the domain of the requested operation."""


class SingularProblem(HilferBvpError):
    """The coefficient mu = 1 - lambda/Gamma(gamma+1) is zero (or not
    positive where positivity is required), so the integral-equation
    formulation of the boundary-value problem is unavailable."""


class MeshMismatch(HilferBvpError):
    """Sample count does not match the mesh node count."""


class InsufficientNodes(HilferBvpError):
    """Too few mesh intervals for the finite-difference stencils."""


class RhsNegative(HilferBvpError):
    """The right-hand side evaluated to a negative value; the positive-cone
    iteration requires f >= 0."""


class RhsEvaluationFailure(HilferBvpError):
    """The right-hand side raised or returned a non-finite value."""


class MeshTooLarge(HilferBvpError):
    """The integral operator on the requested mesh would not fit in physical memory."""


class InvalidInterval(HilferBvpError):
    """An interval [lo, hi] is empty, reversed, or outside the positive axis."""


class MissingBounds(HilferBvpError):
    """The problem carries no constant bounds A1/A2 for f."""


class NotConstantRhs(HilferBvpError):
    """The closed-form oracle requires a constant right-hand side."""


class RequiresLambdaZero(HilferBvpError):
    """The closed-form oracle requires lambda = 0."""


class ConfigError(HilferBvpError):
    """A configuration file failed to parse or validate.

    Carries an optional source location so the CLI can emit line-anchored
    messages.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class ExpressionError(ConfigError):
    """A user-supplied rhs expression failed to parse."""
