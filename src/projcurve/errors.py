"""Exception hierarchy for the projcurve package."""


class ProjcurveError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPolynomial(ProjcurveError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


class AllZero(ProjcurveError):
    """Every polynomial in a tuple that must contain a nonzero entry is zero."""


class DimensionMismatch(ProjcurveError):
    """Projective objects of different ambient dimensions were combined."""


class WrongCount(ProjcurveError):
    """A hyperplane collection has the wrong number of elements."""


class IdenticallyZero(ProjcurveError):
    """A curve/hyperplane pairing vanishes identically (the curve lies in the
    hyperplane); the scene is degenerate."""

    def __init__(self, message: str, hyperplane_index: int | None = None):
        super().__init__(message)
        self.hyperplane_index = hyperplane_index


class FirstComponentZero(ProjcurveError):
    """The derived curve is undefined because the leading component vanishes
    identically."""


class NotBlowingUp(ProjcurveError):
    """Rescaling exploration requires a family whose derivative sups blow up."""


class UnknownTemplate(ProjcurveError):
    """No scene generator with the requested name exists."""


class BadParams(ProjcurveError):
    """A scene generator received invalid parameters."""


class ParseError(ProjcurveError):
    """A scene file is not valid JSON."""


class ValidationError(ProjcurveError):
    """A value violates a structural invariant.

    Carries the JSON path of the offending value when raised during scene
    loading.
    """

    def __init__(self, message: str, path: str | None = None):
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
