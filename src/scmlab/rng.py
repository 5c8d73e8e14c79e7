"""Deterministic substream derivation for all randomness in the package.

Every random quantity is drawn from a counter-based generator (Philox)
keyed by ``(seed, path)`` where ``path`` is a tuple of small integers naming
the consumer: for sampling a structural model the path is the node index,
for an experiment it names a role ("train x1 draws", "model init", ...).
So draws for different paths are independent and order-independent: a
sampler may fill columns in any order, or in parallel, and get the same
bytes.

Normal variates use the inverse CDF applied to the uniform stream rather
than rejection sampling, so the mapping row -> variate is fixed across
platforms and numpy versions.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import check_value

# Offset added to uniforms in [0, 1) before the inverse CDF so the argument
# lies strictly inside (0, 1): draws are multiples of 2^-53, so adding
# 2^-54 maps them to odd multiples of 2^-54, bounded away from both ends.
_HALF_ULP = 2.0 ** -54


def _bit_generator(seed: int, path: tuple[int, ...]) -> np.random.Philox:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Philox(seed=ss)


def substream(seed: int, *path: int) -> np.random.Generator:
    """General-purpose generator for the given (seed, path) substream.

    Use for shuffles, parameter initialization, subsampling — anything that
    consumes a stream sequentially. For a column of draws use
    :func:`uniform_column` / :func:`normal_column`. ``seed`` must be a
    non-negative integer (else ConfigValidationError naming it).
    """
    seed = check_value("seed", seed, 0, "[0, inf)")
    return np.random.Generator(_bit_generator(seed, path))


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit integer seed derived from (seed, path), for components that
    take a scalar seed of their own; ``seed`` is checked as in
    :func:`substream`."""
    seed = check_value("seed", seed, 0, "[0, inf)")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def uniform_column(seed: int, path: tuple[int, ...], n: int) -> np.ndarray:
    """The first ``n`` uniforms in [0, 1) of the (seed, path) stream."""
    n = check_value("n", n, 0, "[0, inf)")
    return np.random.Generator(_bit_generator(seed, path)).random(n)


def normal_column(seed: int, path: tuple[int, ...], n: int) -> np.ndarray:
    """Standard-normal variates for the (seed, path) stream via inverse CDF."""
    return ndtri(uniform_column(seed, path, n) + _HALF_ULP)
