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


class NonFiniteIterate(HilferBvpError):
    """An image of the integral operator overflowed to a non-finite value."""


class MeshTooLarge(HilferBvpError):
    """An array of the requested mesh or its operator would not fit in
    physical memory, or could not be allocated (see core._memory_guard)."""


class NonFiniteResidual(HilferBvpError):
    """A residual of a computed or stored solution is not finite."""


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


class DegenerateMesh(ConfigError):
    """Two nodes of a graded mesh lie closer than the smallest normal double
    (for example t_1 underflows to 0 on a steep grading), so the mesh does
    not resolve [0, 1] in floating point.  A ConfigError: the mesh size and
    grading are input to be changed."""
