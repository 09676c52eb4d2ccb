"""Domain error taxonomy.

Every error carries a stable ``name`` used by the command line driver
when reporting failures (exit status 1).  Usage errors are left to
argparse (exit status 2).
"""


class GbsError(Exception):
    """Base class for all domain errors raised by this package."""

    name = "Error"


# graph construction / validation

class EmptyGraphError(GbsError):
    name = "EmptyGraph"


class DisconnectedError(GbsError):
    name = "Disconnected"


class NonPositiveLabelError(GbsError):
    name = "NonPositiveLabel"


class UnknownVertexError(GbsError):
    name = "UnknownVertex"


class UnknownEdgeError(GbsError):
    name = "UnknownEdge"


class GbsSyntaxError(GbsError):
    """Malformed text input; carries the 1-based offending line number."""

    name = "SyntaxError"

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class UnreadableFileError(GbsError):
    """A graph file that cannot be opened and read, or is not UTF-8 text."""

    name = "UnreadableFile"


# words

class UnknownGeneratorError(GbsError):
    name = "UnknownGenerator"


class MalformedWordError(GbsError):
    name = "MalformedWord"


class WordTooLongError(GbsError):
    name = "WordTooLong"


# deformation moves

class NotCollapsibleError(GbsError):
    name = "NotCollapsible"


class NotDivisibleError(GbsError):
    name = "NotDivisible"


class WrongOriginError(GbsError):
    name = "WrongOrigin"


class SameEdgeError(GbsError):
    name = "SameEdge"


class DifferentOriginError(GbsError):
    name = "DifferentOrigin"


class NotAscendingError(GbsError):
    name = "NotAscending"


class NotDivisorError(GbsError):
    name = "NotDivisor"


class BrokenMarkingError(GbsError):
    """A marked state failed its own consistency checks.

    This never happens through the public move API unless there is a bug;
    it exists so that the self-checks fail loudly instead of corrupting
    downstream length computations.
    """

    name = "BrokenMarking"


# rigidity checks

class NotReducedError(GbsError):
    name = "NotReduced"


class AscendingCaseError(GbsError):
    name = "AscendingCase"


# explorer

class BoundsTooTightError(GbsError):
    name = "BoundsTooTight"


class NoViolationError(GbsError):
    name = "NoViolation"
