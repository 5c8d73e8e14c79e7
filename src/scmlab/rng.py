"""Deterministic substream derivation for all randomness in the package.

Every random quantity is drawn from a counter-based generator (Philox)
keyed by ``(seed, path)`` where ``path`` is a tuple of small integers naming
the consumer: for sampling a structural model the path is the node index,
for an experiment it names a role ("train x1 draws", "model init", ...).
Two consequences:

* draws for different paths are independent and order-independent — a
  sampler may fill columns in any order, or in parallel, and get the same
  bytes;
* draws within one path are randomly addressable by row, so a column can be
  generated in chunks that concatenate to exactly the single-shot draw.

Normal variates use the inverse CDF applied to the uniform stream rather
than rejection sampling, so the mapping row -> variate is fixed across
platforms and numpy versions.

One Philox counter block yields ``_DRAWS_PER_BLOCK`` doubles; random access
to row r advances the counter by r // 4 blocks and discards r % 4 draws.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import check_value

_DRAWS_PER_BLOCK = 4  # one 256-bit Philox block -> four 53-bit doubles

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
    consumes a stream sequentially. For row-addressable columns use
    :func:`uniform_column` / :func:`normal_column`.
    """
    return np.random.Generator(_bit_generator(seed, path))


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit integer seed derived from (seed, path), for components that
    take a scalar seed of their own."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def uniform_column(seed: int, path: tuple[int, ...], n: int, start: int = 0) -> np.ndarray:
    """``n`` uniforms in [0, 1) at rows ``start .. start+n-1`` of the
    (seed, path) stream.

    ``uniform_column(s, p, n)`` equals the concatenation of
    ``uniform_column(s, p, k, 0)`` and ``uniform_column(s, p, n-k, k)`` for
    any split point k — chunked generation is exact, not approximate.
    """
    check_value("n", n, "[0, inf)")
    check_value("start", start, "[0, inf)")
    bg = _bit_generator(seed, path)
    skip = start % _DRAWS_PER_BLOCK
    bg.advance(start // _DRAWS_PER_BLOCK)
    draws = np.random.Generator(bg).random(skip + n)
    return draws[skip:]


def normal_column(seed: int, path: tuple[int, ...], n: int, start: int = 0) -> np.ndarray:
    """Standard-normal variates for the (seed, path) stream via inverse CDF."""
    return ndtri(uniform_column(seed, path, n, start) + _HALF_ULP)
