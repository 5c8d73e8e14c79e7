"""Exception types raised across the toolkit.

Grouped by the layer that raises them; all inherit from :class:`ScmLabError`
so callers can catch toolkit failures with a single except clause.
"""

import math
import re
from dataclasses import fields

import numpy as np


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
    does not parse, or a model with a custom assignment was to be written
    to one; the message gives the path.  Also a ``ValueError``, as a
    malformed file and an unwritable model raised before."""


# --- graph layer --------------------------------------------------------

class DuplicateNodeError(ScmLabError, ValueError):
    """A graph declares a node name more than once.  Also a
    ``ValueError``, as it raised before."""


class EdgeShapeError(ScmLabError, ValueError):
    """An edge given to a graph is a string, or does not hold exactly two
    names.  Also a ``ValueError``, as an edge of another length raised
    one before (a two-letter string was read as its letters)."""


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


# --- data layer ---------------------------------------------------------

class DatasetShapeError(ScmLabError, ValueError):
    """Columns given to a ``Dataset`` do not hold real numbers, are not
    one-dimensional, differ in length, or make no column or no row; the
    message names the column.
    Also a ``ValueError``, as these checks raised before."""


class UnknownColumnError(ScmLabError, KeyError):
    """A dataset has no column of the requested name (an estimator's
    target or regressor, say).  Also a ``KeyError``, as it raised before.
    """

    def __str__(self):
        # KeyError's own str() would quote the message
        return str(self.args[0]) if self.args else ""


# --- estimator layer ----------------------------------------------------

class RankDeficientError(ScmLabError):
    """The design matrix of an OLS or logistic fit is rank deficient
    (smallest |R_jj| of its QR factorization below 1e-10 times the
    largest)."""


class InsufficientDataError(ScmLabError):
    """Not enough rows for the requested fit or split."""


class NonFiniteValueError(ScmLabError, ValueError):
    """A dataset column, rows to explain or predict, or a report result
    hold NaN or an infinity; the message names them or the result key."""


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
    feature names it was trained on (in names or order), or a feature
    list given to explain or to a GBT or MLP fit names a feature twice.
    Also a ``ValueError``, like the other checks on explain's inputs."""


class FeatureListRequiredError(ScmLabError, ValueError):
    """A bare callable was explained without a ``features`` list; only a
    trained model carries its own feature names.  Also a ``ValueError``,
    as this check raised before."""


class RowShapeError(ScmLabError, ValueError):
    """Rows handed to explain (the instance, the evaluation rows or the
    background) or to ``predict_on_matrix`` are not rows over the feature
    columns; the message names them and gives their shape.  Also a
    ``ValueError``, as this check raised before."""


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


class IoError(ScmLabError, OSError):
    """Reading or writing a file failed; the message names the path.  Also
    an ``OSError``, as these calls raised before."""


def open_file(path, what: str, mode: str = "r"):
    """``path`` opened as UTF-8 text; an ``OSError`` raises IoError,
    ``cannot read <what> <path>: …`` (or ``write``)."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        doing = "write" if "w" in mode else "read"
        raise IoError(f"cannot {doing} {what} {path}: {exc}") from exc


# --- the settings rule --------------------------------------------------

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


def _inside(value, lo, lo_open, hi, hi_open) -> bool:
    return ((lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi))


def _cast(value, kind):
    """``value`` as ``kind``, or None when it does not convert: a string is
    parsed, and any other value must convert exactly (3.0 to an int does,
    3.7 does not).  No setting is a bool, so a bool never converts, though
    ``True == 1``."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        if isinstance(value, str):
            return kind(value.strip())
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return out if out == value or out != out else None


def check_value(label: str, value, like, accepts: str = "", n: int = None):
    """The one type-and-range rule for settings and arguments: ``value`` in
    the type of the example value ``like``, checked against ``accepts``.

    A tuple ``like`` takes a tuple (or a string of comma- or space-separated
    items) whose items each take the type of ``like[0]``.  ``accepts`` is ""
    for any value, ``length K`` for a tuple of K items, ``one of a, b`` for
    a string that is one of the listed choices, or an interval such as
    ``[1, inf)`` that the value, or each item, lies in; "(" and ")" exclude
    a bound, and a bound ``n`` is the ``n`` given.  Every float must be
    finite.  Raises :class:`ConfigValidationError` naming ``label``, or the
    item (``hidden[0]``): ``could not parse <label> = <value> as int``,
    ``... must hold K values``, ``... must be finite``, ``... must be one of
    a, b`` or ``... must lie in <accepts>``."""
    many = type(like) is tuple
    kind = type(like[0] if many else like)
    items = (value,)
    if many:
        try:
            items = tuple(value.replace(",", " ").split()
                          if isinstance(value, str) else value)
        except TypeError:
            raise ConfigValidationError(
                f"could not parse {label} = {value!r} as tuple") from None
    bounds = _bounds(accepts, n) if accepts else None
    _, one_of, choices = accepts.partition("one of ")
    out = []
    for i, item in enumerate(items):
        v = _cast(item, kind)
        if v is None:
            head, tail = "could not parse ", f" = {item!r} as {kind.__name__}"
        elif isinstance(v, float) and not math.isfinite(v):
            head, tail = "", f" = {v!r} must be finite"
        elif one_of and v not in choices.split(", "):
            head, tail = "", f" = {v!r} must be {accepts}"
        elif bounds is not None and not _inside(v, *bounds):
            head, tail = "", (f" = {v!r} must lie in "
                              + re.sub(r"\bn\b", str(n), accepts))
        else:
            out.append(v)
            continue
        raise ConfigValidationError(
            head + (f"{label}[{i}]" if many else label) + tail)
    if not many:
        return out[0]
    out = tuple(out)
    _, _, length = accepts.partition("length ")
    if length and len(out) != int(length):
        raise ConfigValidationError(
            f"{label} = {out!r} must hold {length} values")
    return out


def check_fields(config, ranges: dict):
    """Set each field of the dataclass ``config`` to its value checked by
    :func:`check_value` against its default and ``ranges[name]``."""
    for f in fields(config):
        object.__setattr__(config, f.name, check_value(
            f.name, getattr(config, f.name), f.default, ranges[f.name]))


def names(x) -> list:
    """The one rule for reading a list of names: a bare string is one name,
    not the letters it is spelled with; any other iterable lists its names
    in order (``None`` keeps ``list()``'s TypeError)."""
    return [x] if isinstance(x, str) else list(x)
