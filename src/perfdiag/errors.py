"""Exception and warning types shared across the package."""


class PerfDiagError(Exception):
    """Base class for all errors raised by this package."""


# -- data model / ingestion --------------------------------------------------

class EmptyIntersection(PerfDiagError):
    """Two timestamp-indexed series share no common timestamps."""


class ParseError(PerfDiagError):
    """A file cell could not be parsed; message carries row/column."""


class NonUniformSpacing(PerfDiagError):
    """Timestamps are not evenly spaced."""


class NonBinaryLabel(PerfDiagError):
    """A label value other than 0 or 1 was encountered."""


class RowCountMismatch(PerfDiagError):
    """Values and labels files disagree on row count."""


class InvalidConfig(PerfDiagError):
    """A configuration value is out of range or inconsistent."""


# -- preprocessing / modelling ----------------------------------------------

class TooFewSamples(PerfDiagError):
    """Not enough rows for the requested operation."""


class AllFiltered(PerfDiagError):
    """Correlation selection retained no metric; thresholds may be relaxed."""


class DegenerateCovariance(PerfDiagError):
    """Covariance matrix has rank zero; PCA is undefined."""


class ShapeMismatch(PerfDiagError):
    """Array dimensions do not line up with the model or operation."""


class LengthMismatch(PerfDiagError):
    """Two aligned vectors have different lengths."""


class NumericalFailure(PerfDiagError):
    """An iterative solver failed to converge within its iteration cap."""


class SingleClassTraining(PerfDiagError):
    """Training labels contain only one class; the classifier cannot learn."""


class NonFiniteLoss(PerfDiagError):
    """Training loss, optimizer state or model parameters became NaN or infinite."""


class EmptyGroundTruth(PerfDiagError):
    """Root-cause accuracy requested with an empty ground-truth set."""


class MissingRank(PerfDiagError):
    """A method lacks a rank on one of the datasets."""


class PipelineStageError(PerfDiagError):
    """Wraps an error raised inside a pipeline stage with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


# -- warnings ----------------------------------------------------------------

class PerfDiagWarning(UserWarning):
    """Base class for non-fatal conditions worth surfacing."""


class ConstantColumnWarning(PerfDiagWarning):
    """A constant column was dropped or zeroed during normalization."""


class DegenerateSplitWarning(PerfDiagWarning):
    """A train/test split left one side empty or single-class."""


class SingularSubmatrixWarning(PerfDiagWarning):
    """A correlation submatrix needed ridge regularization to invert."""


class NoPredecessorsWarning(PerfDiagWarning):
    """The walk start node has no predecessors; ranking is empty."""
