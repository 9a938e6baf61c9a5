"""Exception hierarchy shared by all ncprob modules."""


class NCProbError(Exception):
    """Base class for every error raised by this package."""


class SpecFormatError(NCProbError, ValueError):
    """Malformed JSON spec, scalar text, word text, or partition text."""


class ValidationError(NCProbError, ValueError):
    """A mathematical object violates its structural invariants."""


class SizeOutOfRangeError(NCProbError, ValueError):
    """Ground-set size or degree outside the supported range."""


class DimensionMismatchError(NCProbError, ValueError):
    """Two objects that must share a ground-set size or degree bound do not."""


class OrderViolationError(NCProbError, ValueError):
    """An interval operation was asked for a non-comparable pair."""


class TruncationError(NCProbError, ValueError):
    """A computation needs a moment beyond the state's degree bound."""


class FactorMismatchError(NCProbError, ValueError):
    """A letter or word belongs to a different factor than required."""
