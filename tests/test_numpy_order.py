"""The numpy behaviours that keep the package's sums in one order.

A GBT's group sums, in its cell values, its prediction and its exact
Shapley coalition outputs alike, are added one array at a time, and
``_phi_matrix`` sums its Shapley terms with ``cumsum``. ``np.add.reduce``
along a leading axis, which the MLP uses for its bias gradients, adds in
order when the trailing size is at least two. Each test below pins one of
these numpy behaviours on a value whose in-order sum, 1e16, differs from
any regrouping, so that a numpy upgrade that changes a summation order
fails here, by name, and not as an unexplained move of a report digest.

The least-squares core (``estimators._dots``) sums each column product by
``np.add.reduce`` along a contiguous row, in numpy's pairwise order. That
order is fixed by the row's length alone, which is why forward
selection's ‖x⊥‖ equals the R diagonal entry ``ols_fit`` reaches for the
same column bit for bit; the fourth test pins it.

The GBT grower searches two sibling nodes at once: one ``cumsum`` along
the bins of their stacked (node, feature, bin) tables and one ``argmax``
per node over its flattened gains, which must equal each node's own
search. It reads a column's bin edges from a sorted copy, which must give
``np.quantile``'s values on the column. The last three tests pin these.

What the code avoids, as measured on numpy 2.4: a 1-D ``sum`` (or
``np.add.reduce``) and a reduce whose trailing size is one add pairwise,
and ``np.add.reduceat`` does not add in order along axis 0 either, even on
a (41, 3, 512) block.
"""

import numpy as np
import pytest

SKEWED = [1e16] + [1.0] * 40


def in_order(values):
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def stacked(trailing):
    """SKEWED along axis 0, repeated over the ``trailing`` shape."""
    column = np.array(SKEWED).reshape((-1,) + (1,) * len(trailing))
    return np.broadcast_to(column, (len(SKEWED),) + trailing).copy()


def test_the_value_tells_the_orders_apart():
    assert in_order(SKEWED) == 1e16
    assert np.sum(SKEWED) != 1e16


@pytest.mark.parametrize("trailing", [(2,), (1, 2), (2, 1), (3, 512)])
def test_reduce_over_the_leading_axis_adds_in_order(trailing):
    a = stacked(trailing)
    assert (np.add.reduce(a, axis=0) == 1e16).all()
    out = np.empty(trailing)
    np.add.reduce(a, axis=0, out=out)
    assert (out == 1e16).all()


@pytest.mark.parametrize("trailing", [(), (1, 1), (2, 3)])
def test_cumsum_adds_in_order(trailing):
    assert (np.cumsum(stacked(trailing), axis=0)[-1] == 1e16).all()


@pytest.mark.parametrize("length", [41, 5000, 20_000])
def test_a_row_sums_alike_wherever_it_sits(length):
    row = np.array([1e16] + [1.0] * (length - 1))
    alone = np.add.reduce(row)
    assert alone != in_order(row)                 # pairwise, not in order
    block = np.zeros((4, length + 3))
    block[2, 3:] = row
    # one row of a strided block, alone or with others, at any offset
    assert np.add.reduce(block[1:, 3:], axis=-1)[1] == alone
    assert np.add.reduce(block[2:3, 3:], axis=1)[0] == alone
    for offset in range(1, 8):
        shifted = np.zeros(length + offset)
        shifted[offset:] = row
        assert np.add.reduce(shifted[offset:]) == alone


def test_cumsum_along_the_last_axis_of_stacked_tables_is_each_tables():
    # the GBT grower searches two sibling nodes' (feature, bin) tables
    # stacked as (node, feature, bin), with one cumsum along the bins
    tables = np.empty((2, 3, len(SKEWED)))
    tables[0] = SKEWED
    tables[1] = SKEWED[::-1]
    tables[1, 1] = np.roll(SKEWED, 7)
    stacked = tables.cumsum(axis=2)
    for node in range(2):
        assert np.array_equal(stacked[node], tables[node].cumsum(axis=1))
    assert (stacked[0, :, -1] == 1e16).all()


def test_argmax_along_rows_takes_each_rows_first_maximum():
    # each sibling's best split is the first maximum of its row of the
    # stacked gains, flattened (feature, bin) in C order
    gains = np.array([[[1.0, 3.0, 3.0], [3.0, -np.inf, 2.0]],
                      [[-np.inf, -np.inf, 0.5], [0.5, 0.5, 0.5]]])
    flat = gains.reshape(2, -1)
    assert flat.argmax(axis=1).tolist() == [1, 2]
    assert [int(np.argmax(row)) for row in flat] == [1, 2]


@pytest.mark.parametrize("n", [1, 2, 3, 64, 400, 2000])
def test_quantiles_of_a_sorted_column_are_the_columns(n):
    # the GBT reads each column's bin edges from one sorted copy of it
    qs = np.linspace(0.0, 1.0, 65)[1:-1]
    rng = np.random.default_rng(n)
    for _ in range(20):
        column = rng.standard_normal(n)
        if n > 3:
            column[rng.integers(0, n, n // 4)] = column[0]     # ties
        assert np.array_equal(np.quantile(np.sort(column), qs),
                              np.quantile(column, qs))
