"""Exception types raised across the toolkit.

Grouped by the layer that raises them; all inherit from :class:`ScmLabError`
so callers can catch toolkit failures with a single except clause.
"""

import math
import re


class ScmLabError(Exception):
    """Base class for every error raised by this package."""


# --- structural model layer ---------------------------------------------

class CycleError(ScmLabError):
    """The induced graph contains a directed cycle (names one)."""


class UnknownParentError(ScmLabError):
    """An assignment references a parent that is not a declared node."""


class DuplicateAssignmentError(ScmLabError):
    """A node appears in more than one assignment."""


class UnknownNodeError(ScmLabError):
    """A node name is not part of the model or graph."""


class NonlinearModelError(ScmLabError):
    """Analytic solving requested for a model outside the linear-Gaussian
    family (custom assignments, or noise that is neither Gaussian nor
    constant)."""


class SingularCovarianceError(ScmLabError):
    """Regressor covariance block is numerically singular."""


class ModelFileError(ScmLabError, ValueError):
    """A model exchange file lacks a section or key, or holds a value that
    does not parse; the message gives the path.  Also a ``ValueError``, as
    a malformed file raised before."""


# --- graph layer --------------------------------------------------------

class OverlappingSetsError(ScmLabError, ValueError):
    """A query's sets overlap: d-separation's X, Y, Z, or a cause, outcome
    and adjustment set.  Also a ``ValueError``, as the latter raised one."""


class TooManyCandidatesError(ScmLabError):
    """Adjustment-set search asked to enumerate subsets of more than 20
    candidate nodes."""


class GraphFileError(ScmLabError, ValueError):
    """A line of a graph exchange file is not a ``parent child`` pair; the
    message gives the path and the 1-based line number.  Also a
    ``ValueError``, as a malformed line raised before."""


# --- estimator layer ----------------------------------------------------

class RankDeficientError(ScmLabError):
    """Design matrix is rank deficient (smallest singular value below
    1e-10 times the largest)."""


class InsufficientDataError(ScmLabError):
    """Not enough rows for the requested fit or split."""


class NonFiniteValueError(ScmLabError, ValueError):
    """A dataset column or a report result holds NaN or an infinity; the
    message names the column or the result key."""


class EmptyFeatureListError(ScmLabError, ValueError):
    """A design matrix, a model fit or an explanation was asked for with
    no feature columns.  Also a ``ValueError``, as numpy raised one
    before."""


class DegenerateColumnError(ScmLabError):
    """A column required to vary has zero variance."""


class SeparationError(ScmLabError):
    """Logistic regression diverged: perfectly separated or degenerate
    target."""


class NonBinaryTargetError(ScmLabError, ValueError):
    """A logistic target (a logistic regression's, or a GBT's under
    logistic loss) contains values outside {0, 1}.  Also a
    ``ValueError``, as the GBT's check raised before."""


# --- flexible-model layer -----------------------------------------------

class DivergenceError(ScmLabError):
    """Training loss exceeded 1e6 times its initial value."""


class DegenerateTargetError(ScmLabError):
    """Zero-variance target under squared loss."""


class MissingFeatureError(ScmLabError):
    """Prediction input lacks a feature column the model was trained on."""


class NotAModelError(ScmLabError, TypeError):
    """Prediction was asked of an object that is not a trained MLP or GBT.
    Also a ``TypeError``, as this check raised before."""


# --- explanation layer --------------------------------------------------

class TooManyFeaturesError(ScmLabError):
    """Exact coalition enumeration refused beyond 12 features."""


class FeatureMismatchError(ScmLabError, ValueError):
    """An explicit feature list given for a trained model differs from the
    feature names it was trained on (in names or order).  Also a
    ``ValueError``, like the other checks on explain's inputs."""


class FeatureListRequiredError(ScmLabError, ValueError):
    """A bare callable was explained without a ``features`` list; only a
    trained model carries its own feature names.  Also a ``ValueError``,
    as this check raised before."""


class RowShapeError(ScmLabError, ValueError):
    """Rows handed to explain (the instance, the evaluation rows or the
    background) are not rows over the feature columns; the message names
    them and gives their shape.  Also a ``ValueError``, as this check
    raised before."""


class EmptyBackgroundError(ScmLabError, ValueError):
    """Shapley background sample has no rows.  Also a ``ValueError``, like
    the other checks on explain's inputs."""


class EmptyEvaluationError(ScmLabError, ValueError):
    """An attribution summary was asked to explain zero evaluation rows.
    Also a ``ValueError``, like the other checks on those rows."""


# --- experiment runner --------------------------------------------------

class UnknownExperimentError(ScmLabError):
    """Requested experiment name is not registered."""


class ConfigValidationError(ScmLabError, ValueError):
    """A configuration value (an experiment parameter or a model setting)
    failed validation; the message names the field.  Also a ``ValueError``,
    so callers catching that still catch it."""


class IoError(ScmLabError):
    """Reading or writing an experiment artifact failed."""


# --- the range rule -----------------------------------------------------

_INTERVAL = re.compile(r"([\[(])(\S+), (\S+)([\])])")


def _bounds(accepts: str, n: int):
    """(lo, lo_open, hi, hi_open) of an interval ``accepts`` at sample size
    ``n``, or None when ``accepts`` is not an interval."""
    match = _INTERVAL.fullmatch(accepts)
    if match is None:
        return None
    lo_bracket, lo, hi, hi_bracket = match.groups()
    return (n if lo == "n" else float(lo), lo_bracket == "(",
            n if hi == "n" else float(hi), hi_bracket == ")")


def check_value(label: str, value, accepts: str = "", n: int = None) -> None:
    """The one range rule for settings and arguments: raise
    :class:`ConfigValidationError` (``<label> = <value> must be finite`` or
    ``... must lie in <accepts>``) if ``value`` is a float that is not
    finite, or lies outside ``accepts``.  ``accepts`` is "" for any value or
    an interval such as ``[1, inf)``, where "(" and ")" exclude a bound and
    a bound ``n`` is the ``n`` given; other text sets no range."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigValidationError(f"{label} = {value!r} must be finite")
    bounds = _bounds(accepts, n)
    if bounds is None:
        return
    lo, lo_open, hi, hi_open = bounds
    if not ((lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)):
        raise ConfigValidationError(
            f"{label} = {value!r} must lie in "
            + re.sub(r"\bn\b", str(n), accepts))
