"""Brute-force twin of explain's coalition outputs for trained models.

explain reads a boosted-tree ensemble from its cell tables, on just the
feature patterns each group of trees can read, and a black box in blocks
of coalitions. This module keeps the plain route: every one of the 2^d
coalitions is expanded against every background row into one grid of
rows, and the whole grid goes through ``predict_on_matrix``. The
package's paths must match it bit for bit, so the tests compare the two
with ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np

from scmlab.flexfit import predict_on_matrix


def grid_coalition_outputs(model, masks, Ec, B):
    """Model output for every (coalition, evaluation row, background row),
    shape (n_coal, ec, n_bg): row (c, e, b) takes Ec[e, j] for the features
    j in coalition c and B[b, j] for the others."""
    grid = np.where(masks[:, None, None, :], Ec[None, :, None, :],
                    B[None, None, :, :])
    out = predict_on_matrix(model, grid.reshape(-1, masks.shape[1]))
    return out.reshape(masks.shape[0], Ec.shape[0], B.shape[0])
