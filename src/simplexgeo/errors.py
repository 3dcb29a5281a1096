"""Exception hierarchy shared by all simplexgeo modules."""


class SimplexGeoError(Exception):
    """Base class for every error raised by this package."""


# --- data-model construction -------------------------------------------------

class NonPositiveCoordinate(SimplexGeoError):
    """A coordinate that must be strictly positive is zero or negative."""


class DimensionTooSmall(SimplexGeoError):
    """Fewer than two coordinates were supplied."""


class NotNormalizable(SimplexGeoError):
    """The requested vector cannot be scaled into the target set."""


class LengthMismatch(SimplexGeoError):
    """Two vectors that must share a length do not."""


class InvalidExponent(SimplexGeoError):
    """An lq exponent outside (1, inf) was supplied."""


class NoTailModel(SimplexGeoError):
    """The sequence spec has no analytic tail, so refinement is undefined."""


class LossyTruncation(SimplexGeoError):
    """A truncated point has lost more of its mass than the operation accepts."""


class NonFiniteInput(SimplexGeoError):
    """An input contains NaN or infinity."""


class InvalidParameter(SimplexGeoError):
    """A scalar or list argument lies outside its documented range."""


# --- transforms and metrics --------------------------------------------------

class NotPositive(SimplexGeoError):
    """A sphere point required to be strictly positive is not."""


class BaseMismatch(SimplexGeoError):
    """Two tangent vectors are attached to different base points."""


class DimensionMismatch(SimplexGeoError):
    """Operands live in different ambient dimensions."""


class DegenerateEndpoints(SimplexGeoError):
    """A geodesic was requested between two identical points."""


# --- connections and flows ---------------------------------------------------

class StepUnderflow(SimplexGeoError):
    """No finite-difference step above the floor keeps the point interior."""


class CurveDomain(SimplexGeoError):
    """A curve could not be evaluated on the required time window."""


class PositivityLost(SimplexGeoError):
    """An integrator step left the open simplex; shrink the step size."""


class InvalidGrid(SimplexGeoError):
    """A time grid was asked for with a non-positive step or a negative horizon."""


class GridTooLarge(SimplexGeoError):
    """A time grid would have a non-finite or too large number of rows."""


# --- hamiltonian -------------------------------------------------------------

class ComplexResidue(SimplexGeoError):
    """A bracket that must be real carried a non-negligible imaginary part."""


# --- CLI ---------------------------------------------------------------------

class ParseError(SimplexGeoError):
    """A sequence-spec string does not match the accepted grammar."""

    def __init__(self, text: str, position: int, message: str):
        self.position = position
        super().__init__(f"{message} (at position {position} in {text!r})")


class RatioOutOfRange(SimplexGeoError):
    """A geometric ratio outside (0, 1) was supplied."""


class ConfigError(SimplexGeoError):
    """A run configuration is missing fields or fails schema validation."""


class NonFiniteOutput(SimplexGeoError):
    """A value to be written to an output file is NaN or infinite."""
