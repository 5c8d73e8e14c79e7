import numpy as np
import pytest
from scipy.special import ndtri

from scmlab.rng import derive_seed, normal_column, substream, uniform_column


def test_uniform_column_reproducible():
    a = uniform_column(123, (4,), 257)
    b = uniform_column(123, (4,), 257)
    assert np.array_equal(a, b)
    assert a.dtype == np.float64
    assert ((0.0 <= a) & (a < 1.0)).all()


def test_streams_differ_across_paths_and_seeds():
    base = uniform_column(7, (0,), 50)
    assert not np.array_equal(base, uniform_column(7, (1,), 50))
    assert not np.array_equal(base, uniform_column(8, (0,), 50))
    assert not np.array_equal(base, uniform_column(7, (0, 0), 50))


def test_normal_column_is_inverse_cdf_of_uniform():
    u = uniform_column(11, (3,), 200)
    z = normal_column(11, (3,), 200)
    assert np.array_equal(z, ndtri(u + 2.0 ** -54))
    assert np.isfinite(z).all()


def test_normal_column_moments():
    z = normal_column(0, (0,), 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_uniform_column_rejects_negative_arguments():
    with pytest.raises(ValueError):
        uniform_column(0, (0,), -1)


def test_substream_reproducible_and_distinct():
    a = substream(42, 1, 2).random(10)
    b = substream(42, 1, 2).random(10)
    c = substream(42, 2, 1).random(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(3, 1) == derive_seed(3, 1)
    assert derive_seed(3, 1) != derive_seed(3, 2)
    assert derive_seed(3, 1) != derive_seed(4, 1)
    assert 0 <= derive_seed(3, 1) < 2 ** 64
