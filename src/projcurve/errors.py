"""Exception hierarchy for the projcurve package.

Each class carries the command line's exit code for it: 2 for a check
that could not be completed, 3 for a scene defect, malformed input or a
configuration outside the theory's setting.
"""


class ProjcurveError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ZeroPolynomial(ProjcurveError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""

    exit_code = 3


class AllZero(ProjcurveError):
    """Every polynomial in a tuple that must contain a nonzero entry is zero."""

    exit_code = 3


class DimensionMismatch(ProjcurveError):
    """Projective objects of different ambient dimensions were combined."""

    exit_code = 3


class WrongCount(ProjcurveError):
    """A hyperplane collection has the wrong number of elements."""

    exit_code = 3


class IdenticallyZero(ProjcurveError):
    """A curve/hyperplane pairing vanishes identically (the curve lies in the
    hyperplane); the scene is degenerate."""

    exit_code = 3

    def __init__(self, message: str, hyperplane_index: int | None = None):
        super().__init__(message)
        self.hyperplane_index = hyperplane_index


class FirstComponentZero(ProjcurveError):
    """The derived curve is undefined because the leading component vanishes
    identically."""

    exit_code = 3


class NotBlowingUp(ProjcurveError):
    """Rescaling exploration requires a family whose derivative sups blow up."""


class NumericOverflow(ProjcurveError):
    """A computed quantity left the float range, so no answer is given."""


class UnknownTemplate(ProjcurveError):
    """No scene generator with the requested name exists."""

    exit_code = 3


class BadParams(ProjcurveError):
    """A scene generator received invalid parameters."""

    exit_code = 3


class ParseError(ProjcurveError):
    """A scene file is not valid JSON."""

    exit_code = 3


class ValidationError(ProjcurveError):
    """A value violates a structural invariant.

    Carries the JSON path of the offending value when raised during scene
    loading.
    """

    exit_code = 3

    def __init__(self, message: str, path: str | None = None):
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
