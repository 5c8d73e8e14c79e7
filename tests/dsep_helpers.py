"""Vectorized twins of the package's two d-separation algorithms.

The package answers one (graph, X, Y, Z) query at a time; sweeping every
labeled DAG on up to five nodes that way would take minutes of Python
overhead. These helpers restate both algorithms over a *stack* of adjacency
matrices so the full sweep is a handful of batched boolean matmuls, and the
package implementations are cross-checked against the stack on a random
subsample.

Adjacency convention: ``A[d, i, j]`` is True iff DAG d has the edge i -> j.
"""

from __future__ import annotations

import itertools

import numpy as np

#: number of labeled DAGs on m nodes, m = 0.. (sanity anchors)
DAG_COUNTS = {0: 1, 1: 1, 2: 3, 3: 25, 4: 543, 5: 29281}


def all_dags(m: int) -> np.ndarray:
    """Every labeled DAG on ``m`` nodes as a (D, m, m) boolean stack.

    Enumerated as (topological order, upper-triangular mask) pairs, then
    deduplicated — a DAG with several topological orders appears once.
    """
    iu = np.triu_indices(m, 1)
    b = len(iu[0])
    masks = ((np.arange(1 << b)[:, None] >> np.arange(b)) & 1).astype(bool)
    stacks = []
    for perm in itertools.permutations(range(m)):
        p = np.asarray(perm, dtype=np.intp)
        A = np.zeros((1 << b, m, m), dtype=bool)
        if b:
            A[:, p[iu[0]], p[iu[1]]] = masks
        stacks.append(A)
    A = np.concatenate(stacks)
    codes = A.reshape(A.shape[0], -1) @ (1 << np.arange(m * m, dtype=np.int64))
    _, keep = np.unique(codes, return_index=True)
    return A[np.sort(keep)]


# The products below take float32 operands (0.0/1.0) that the callers cast
# once per operand, not once per product.

def _bmm(Xf: np.ndarray, Yf: np.ndarray) -> np.ndarray:
    """Boolean batched matrix product over the DAG axis."""
    return (Xf @ Yf) > 0.5


def _bvm(v: np.ndarray, Af: np.ndarray) -> np.ndarray:
    """Boolean batched vector-matrix product: reach one step along A."""
    return (v.astype(np.float32)[:, None, :] @ Af)[:, 0] > 0.5


def _square_closure(C: np.ndarray) -> np.ndarray:
    """Transitive closure of a reflexive boolean stack by repeated squaring."""
    m = C.shape[1]
    steps = max(1, int(np.ceil(np.log2(max(m, 2)))))
    for _ in range(steps):
        Cf = C.astype(np.float32)
        C = _bmm(Cf, Cf)
    return C


def reflexive_closure(A: np.ndarray) -> np.ndarray:
    """R[d, i, j] True iff j is reachable from i (including i itself)."""
    return _square_closure(A | np.eye(A.shape[1], dtype=bool))


def moral_separated_batch(A, R, x: int, y: int, Z) -> np.ndarray:
    """Ancestral-moralization d-separation for every DAG in the stack."""
    m = A.shape[1]
    targets = np.zeros(m, dtype=bool)
    targets[[x, y, *Z]] = True
    anc = (R & targets).any(axis=2)                       # (D, m)
    Ap = A & anc[:, :, None] & anc[:, None, :]
    Apf = Ap.astype(np.float32)
    M = Ap | Ap.transpose(0, 2, 1) | _bmm(Apf, Apf.transpose(0, 2, 1))
    live = anc.copy()
    live[:, list(Z)] = False
    M = M & live[:, :, None] & live[:, None, :]
    C = _square_closure(M | np.eye(m, dtype=bool))
    return ~C[:, x, y]


def reachable_separated_batch(A, R, x: int, y: int, Z) -> np.ndarray:
    """Direction-tagged reachability d-separation for every DAG.

    States are (node, arrived-with-edge?) pairs exactly as in the scalar
    algorithm; colliders pass when the node can reach Z.
    """
    D, m, _ = A.shape
    z = np.zeros(m, dtype=bool)
    z[list(Z)] = True
    not_z = ~z
    anc_z = (R & z).any(axis=2)                           # includes Z itself
    Af = A.astype(np.float32)
    ATf = np.ascontiguousarray(Af.transpose(0, 2, 1))
    up = np.zeros((D, m), dtype=bool)
    down = np.zeros((D, m), dtype=bool)
    up[:, x] = True
    while True:
        # one step along AT from every state that may move to its parents
        # (up and not in Z, or a collider opened by Z), one along A from
        # every state that may move to its children (up or down, not in Z)
        new_up = up | _bvm((up & not_z) | (down & anc_z), ATf)
        new_down = down | _bvm((up | down) & not_z, Af)
        if (new_up == up).all() and (new_down == down).all():
            break
        up, down = new_up, new_down
    return ~(up[:, y] | down[:, y])


def all_queries(m: int) -> list:
    """Every ({x}, {y}, Z) pattern with x < y and Z over the rest."""
    queries = []
    for x, y in itertools.combinations(range(m), 2):
        rest = [v for v in range(m) if v not in (x, y)]
        for size in range(len(rest) + 1):
            for Z in itertools.combinations(rest, size):
                queries.append((x, y, Z))
    return queries
