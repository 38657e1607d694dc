"""Exception taxonomy.

Grouped so the command-line layer can map failures to exit codes:
`DataError` covers ingestion and dataset problems, `NumericalError`
covers solver and quadrature breakdowns.
"""


class OfcError(Exception):
    """Base class for every library-specific failure."""


class DataError(OfcError):
    """Problems with user-supplied data or generated datasets."""


class ParseError(DataError):
    """Malformed text input (CSV rows, field files, config files)."""


class NonFiniteError(DataError):
    """Points or values contain nan or infinity."""


class DegenerateDataError(DataError):
    """Dataset cannot support the requested estimate (e.g. zero variance)."""


class InsufficientClassError(DataError):
    """A class has too few samples for the requested split or fit."""


class InvalidDatabaseError(DataError):
    """Unknown synthetic database identifier."""


class NumericalError(OfcError):
    """Numerical failure inside the variational machinery."""


class EmptyMassError(NumericalError):
    """A density integrates to (numerically) zero over the grid."""


class VanishingPositiveMassError(NumericalError):
    """The positive-class mass under the current region collapsed."""


class StepRejectedError(NumericalError):
    """An explicit step violated the step-size guard."""


class GridMismatchError(OfcError):
    """Fields that must share a grid do not."""


class InvalidShapeError(OfcError):
    """Degenerate or out-of-bounds initialization geometry."""


class DimensionError(OfcError):
    """Operation unsupported for the field/data dimensionality."""


class DegenerateModelError(OfcError):
    """Trained decision field has a single sign: no frontier exists."""


class ModelFormatError(OfcError):
    """Model container file is malformed or truncated."""


class VersionMismatchError(ModelFormatError):
    """Model container written by a newer format version."""


class EmptyConfusionError(OfcError):
    """All four confusion cells are zero."""
