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
same column bit for bit; the last test pins it.

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
