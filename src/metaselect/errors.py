"""Exception types raised across the package.

Every error deliberately raised by this library derives from
:class:`MetaselectError`, so callers can catch one base class at the
harness boundary and map it to an exit code.
"""


class MetaselectError(Exception):
    """Base class for all errors raised by metaselect."""


class MalformedArff(MetaselectError):
    """ARFF document violates the supported subset."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class InconsistentScenario(MetaselectError):
    """Scenario files disagree with each other (instances, folds, cutoff)."""


class InvalidConfig(MetaselectError):
    """A configuration value or approach string is unusable."""


class EmptyInstanceSet(MetaselectError):
    """A metric was requested over zero instances."""


class DegenerateGap(MetaselectError):
    """SBS and oracle coincide, so the normalized score is undefined."""


class DegenerateTraining(MetaselectError):
    """The training set is too small or empty for the requested fit."""


class DegenerateData(MetaselectError):
    """A learner received an empty or unusable data matrix."""


class KTooLarge(MetaselectError):
    """Neighbor or cluster count exceeds the number of stored points."""


class AllColumnsDropped(MetaselectError):
    """Variance-threshold selection removed every feature column."""


class BoostingCollapsed(MetaselectError):
    """No boosting round achieved a usable weighted error."""


class EmptyEnsemble(MetaselectError):
    """An aggregation was asked to combine zero selector outputs."""
