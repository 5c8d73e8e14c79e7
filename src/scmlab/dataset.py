"""Named-column tabular data shared by samplers, estimators and models."""

from __future__ import annotations

import warnings

import numpy as np
from numpy.exceptions import ComplexWarning

from .errors import (DatasetShapeError, EmptyFeatureListError,
                     FeatureMismatchError, NonFiniteValueError, RowShapeError,
                     UnknownColumnError, names)

# cache budget, in elements, of one step of work on a block of rows: a
# chunk of evaluation rows that explain takes has at most this many
# coalition outputs (8 rows x 256 coalitions x 64 background rows) and a
# block of its coalition grid at most this many elements; GBT prediction
# and the cell-table build take rows and cells in blocks of this many
# elements over the group or feature count
_CHUNK_ROWS = 131_072


class Dataset:
    """Immutable table of named float64 columns of equal length.

    Parameters
    ----------
    columns : mapping of str -> array-like
        Column name to values; all columns must hold real numbers (a
        complex array does not), be one-dimensional and share one positive
        length (else DatasetShapeError), and every value must be finite
        (else NonFiniteValueError).
    """

    def __init__(self, columns):
        cols = {}
        n = None
        for name, values in columns.items():
            try:
                v = _as_real(values)
            except ValueError as exc:
                raise DatasetShapeError(
                    f"column {name!r} does not hold numbers: {exc}") from None
            if v.ndim != 1:
                raise DatasetShapeError(f"column {name!r} is not 1-dimensional")
            if n is None:
                n = v.shape[0]
            elif v.shape[0] != n:
                raise DatasetShapeError(
                    f"column {name!r} has length {v.shape[0]}, expected {n}")
            if not np.isfinite(v).all():
                raise NonFiniteValueError(
                    f"column {name!r} holds a non-finite value")
            v.flags.writeable = False
            cols[name] = v
        if not cols or n == 0:
            raise DatasetShapeError(
                "a dataset needs at least one column and one row")
        self._cols = cols
        self.n_rows = n

    @property
    def names(self):
        return list(self._cols)

    def __contains__(self, name):
        return name in self._cols

    def __len__(self):
        return self.n_rows

    def column(self, name: str) -> np.ndarray:
        """The named column; UnknownColumnError when there is none."""
        try:
            return self._cols[name]
        except KeyError:
            raise UnknownColumnError(f"no column named {name!r}") from None

    def matrix(self, columns) -> np.ndarray:
        """The named columns stacked as an (n_rows, k) array, in given
        order; at least one name is needed."""
        columns = names(columns)
        if not columns:
            raise EmptyFeatureListError("no columns named for the matrix")
        return np.column_stack([self.column(n) for n in columns])

    def take(self, rows) -> "Dataset":
        """Row subset (by index array), keeping all columns."""
        rows = np.asarray(rows)
        return Dataset({k: v[rows] for k, v in self._cols.items()})

    def __repr__(self):
        return f"Dataset({self.n_rows} rows x {len(self._cols)} cols: {', '.join(self._cols)})"


def _as_real(values) -> np.ndarray:
    """``values`` as a float64 array. Complex values raise ValueError, as
    a value that is not a number does, where numpy would only warn and
    drop the imaginary part: a numpy array by its dtype, other input
    (such as a list of numpy complex scalars) by numpy's ComplexWarning.
    A Python ``complex`` keeps numpy's TypeError."""
    if isinstance(values, np.ndarray) and values.dtype.kind != "O":
        if values.dtype.kind == "c":
            raise ValueError(f"{values.dtype} values are not real numbers")
        return np.asarray(values, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        try:
            return np.asarray(values, dtype=np.float64)
        except ComplexWarning:
            raise ValueError(f"{np.asarray(values).dtype} values are not "
                             f"real numbers") from None


def _linear(start, weights, columns, n) -> np.ndarray:
    """``n`` copies of ``start``, to which each weight times its column is
    added in order: the one summation order of every linear predictor, so
    its bits depend on no BLAS kernel."""
    total = np.full(n, start, dtype=np.float64)
    for w, col in zip(weights, columns):
        total += w * col
    return total


def _distinct_features(features) -> list:
    """``features`` as a list; FeatureMismatchError names the first
    feature that is listed twice."""
    features = names(features)
    for i, f in enumerate(features):
        if f in features[:i]:
            raise FeatureMismatchError(f"feature {f!r} is listed twice")
    return features


def _float_rows(rows, what):
    """``rows`` as a float array; RowShapeError names them as ``what`` when
    a value is not a real number or their lengths differ."""
    try:
        return _as_real(rows)
    except ValueError as exc:
        raise RowShapeError(f"{what} must hold numbers in rows of one "
                            f"length: {exc}") from None


def _row_matrix(rows, features, what):
    """``rows`` (a Dataset, or an (m, d) array in ``features`` order) as
    an (m, d) float matrix of finite values (a Dataset holds only those);
    RowShapeError or NonFiniteValueError names them as ``what``."""
    if isinstance(rows, Dataset):
        return rows.matrix(features)
    M = _float_rows(rows, what)
    if M.ndim != 2 or M.shape[1] != len(features):
        raise RowShapeError(f"{what} must be rows over the {len(features)} "
                            f"feature columns, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteValueError(f"{what}: a value is NaN or infinite")
    return M
