"""Exception types shared across the package."""


class RandfnnError(Exception):
    """Base class for all library errors."""


class ParseError(RandfnnError):
    """Input file could not be parsed."""


class ResolutionError(RandfnnError):
    """Timestamps within a day are not on a regular hourly grid."""


class DuplicateTimestampError(RandfnnError):
    """The same timestamp appears more than once."""


class ParameterError(RandfnnError, ValueError):
    """An argument is outside its documented domain."""


class ShapeError(RandfnnError, ValueError):
    """Array dimensions do not match."""


class DegenerateDispersion(RandfnnError):
    """A seasonal sequence is (numerically) constant and cannot be encoded."""


class EmptyTrainingSet(RandfnnError):
    """No admissible input/target pattern pairs exist."""


class MetricError(RandfnnError):
    """Percentage errors are undefined for the given data."""


class PairingError(RandfnnError):
    """Record sets from different runs cannot be paired."""


class ExperimentError(RandfnnError):
    """The experiment produced no usable results."""

