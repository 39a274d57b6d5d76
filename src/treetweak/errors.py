"""Exception hierarchy shared by all treetweak modules."""


class TreeTweakError(Exception):
    """Base class for every error raised by this package."""


class SchemaMismatch(TreeTweakError):
    """Input columns or shapes disagree with the declared feature schema."""


class ZeroVariance(TreeTweakError):
    """A quantity that must have nonzero variance is constant."""

    def __init__(self, feature, message=None):
        self.feature = feature
        super().__init__(message or f"zero variance: {feature!r}")


class LengthMismatch(TreeTweakError):
    """Two vectors that must share a dimension do not."""


class UnknownCategory(TreeTweakError):
    """A categorical value is outside the declared category list."""

    def __init__(self, value, categories=None, line=None, column=None):
        self.value = value
        self.categories = categories
        self.line = line
        where = "" if line is None else f"line {line}: column {column!r}: "
        super().__init__(f"{where}unknown category {value!r}")


class ParseError(TreeTweakError):
    """A data file could not be parsed; carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SchemaVersionMismatch(TreeTweakError):
    """A model file was written with an unsupported format version."""


class CorruptModel(TreeTweakError):
    """A model file is truncated or structurally invalid."""


class EmptyNode(TreeTweakError):
    """Impurity requested for a node with no samples."""


class EmptyDataset(TreeTweakError):
    """Training requested on an empty dataset."""


class DegenerateLabels(TreeTweakError):
    """An evaluation set contains only one class."""


class ZeroVector(TreeTweakError):
    """Angle-based distance requested against a zero-norm vector."""


class InfeasiblePath(TreeTweakError):
    """A positive path cannot be satisfied with the requested margin.

    Raised when a path's folded interval on some feature is narrower than
    epsilon, or when a non-adjustable feature would have to move.
    """

    def __init__(self, feature, message=None):
        self.feature = feature
        super().__init__(message or f"path infeasible on feature {feature}")


class SearchSpaceTooLarge(TreeTweakError):
    """Exhaustive enumeration refused: too many positive paths."""


class NonFiniteValue(TreeTweakError):
    """A NaN or infinite value in an instance or a feature's statistics."""


class NotNegative(TreeTweakError):
    """Tweaking requested for an instance the ensemble already predicts positive."""


class EmptyInput(TreeTweakError):
    """An aggregation was requested over an empty collection."""


class DegenerateRanking(TreeTweakError):
    """Rank correlation requested for a constant ranking."""
