"""Named-column tabular data shared by samplers, estimators and models."""

from __future__ import annotations

import numpy as np

from .errors import (DatasetShapeError, EmptyFeatureListError,
                     NonFiniteValueError, RowShapeError, UnknownColumnError)


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

    def matrix(self, names) -> np.ndarray:
        """Columns stacked as an (n_rows, len(names)) array, in given
        order; at least one name is needed."""
        names = list(names)
        if not names:
            raise EmptyFeatureListError("no columns named for the matrix")
        return np.column_stack([self.column(n) for n in names])

    def take(self, rows) -> "Dataset":
        """Row subset (by index array), keeping all columns."""
        rows = np.asarray(rows)
        return Dataset({k: v[rows] for k, v in self._cols.items()})

    def __repr__(self):
        return f"Dataset({self.n_rows} rows x {len(self._cols)} cols: {', '.join(self._cols)})"


def _as_real(values) -> np.ndarray:
    """``values`` as a float64 array. A complex numpy array raises
    ValueError, as a value that is not a number does, where numpy would
    only warn and drop the imaginary part."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "c":
        raise ValueError(f"{values.dtype} values are not real numbers")
    return np.asarray(values, dtype=np.float64)


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
