"""Exception types shared across the package.

Every error raised by the library (as opposed to plain programming errors)
derives from LatticeDissError so callers can catch one base class.
"""


class LatticeDissError(Exception):
    """Base class for all library errors."""


# --- input text -------------------------------------------------------------

class NotJSON(LatticeDissError, ValueError):
    """Text that is not JSON, or JSON nested too deeply for the parser."""


# --- polygon validation ---------------------------------------------------

class PolygonError(LatticeDissError):
    pass


class TooFewVertices(PolygonError):
    pass


class RepeatedVertex(PolygonError):
    pass


class NotStrictlyConvex(PolygonError):
    pass


# --- cyclic words ---------------------------------------------------------

class WordTooShort(LatticeDissError):
    pass


class IllegalStep(LatticeDissError):
    pass


class BoundExceeded(LatticeDissError):
    """A desk-scale exhaustive operation was asked to exceed its size bound."""


# --- combinatorial triangulations ----------------------------------------

class NotADisk(LatticeDissError):
    """A triangulation failed disk validation; .errors lists every violation."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class TooSmall(LatticeDissError):
    pass


class TheoremViolation(LatticeDissError):
    """An exhaustive check contradicted a proved statement: implementation bug."""


# --- geometric dissection construction ------------------------------------

class NotIntegerArea(LatticeDissError):
    pass


class Degenerate(LatticeDissError):
    pass


class OutsideTriangle(LatticeDissError):
    pass


class IsVertex(LatticeDissError):
    pass


# --- verification ----------------------------------------------------------

class InvalidDissection(LatticeDissError):
    pass


class PreconditionViolated(LatticeDissError):
    pass
