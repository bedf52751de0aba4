"""Exception hierarchy shared across the package.

Every error quadflora raises on purpose derives from QuadfloraError, so
callers (and the CLI) can catch one type and still distinguish causes.
"""


class QuadfloraError(Exception):
    """Base class for all quadflora errors."""


class FormatError(QuadfloraError):
    """A file, header, row, or config value could not be parsed."""


class ConfigError(QuadfloraError):
    """A configuration object violates its invariants."""


class UsageError(QuadfloraError):
    """The command line could not be parsed."""


class TaxonomyError(QuadfloraError):
    """Base for hierarchy-table errors."""


class TaxonomyContradictionError(TaxonomyError):
    """A species maps to two genera, or a genus to two families."""


class DanglingReferenceError(TaxonomyError):
    """A genus (or family) index points outside the table."""


class UnknownSpeciesError(TaxonomyError):
    """Lookup of a species id that is not in the table."""


class GeometryError(QuadfloraError):
    """Degenerate crop, oversized grid scale, or invalid rectangle."""


class ShapeError(QuadfloraError):
    """A vector or matrix has the wrong length for the operation."""


class EnsembleError(QuadfloraError):
    """Base for model-combination errors."""


class IncongruentMembersError(EnsembleError):
    """Bag members do not cover the same tiles with the same shapes."""


class UnknownHeadError(EnsembleError):
    """A head id is not present in the registry."""


class IncompleteGridError(EnsembleError):
    """Kernel smoothing requires every tile of one grid scale."""


class SelectionError(QuadfloraError):
    """Base for candidate-selection errors."""


class UnattainableTargetError(SelectionError):
    """No threshold reaches the requested mean prediction length."""


class MissingGroupError(SelectionError):
    """A quadrat has no group key for metadata merging."""


class MetricError(QuadfloraError):
    """Base for scoring errors."""


class DuplicatePredictionError(MetricError):
    """Two prediction sets share one quadrat id."""
