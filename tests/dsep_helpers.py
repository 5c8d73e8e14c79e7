"""Vectorized twins of the package's two d-separation algorithms.

The package answers one (graph, X, Y, Z) query at a time; sweeping every
labeled DAG on up to five nodes that way would take minutes of Python
overhead. These helpers restate both algorithms over a *stack* of adjacency
matrices so the full sweep is a handful of bitwise operations over packed
rows per query, and the package implementations are cross-checked against
the stack on a random subsample.

Adjacency convention: ``A[d, i, j]`` is True iff DAG d has the edge i -> j.

``descendants_of`` is the set-based reference for one ``Dag``, read from
its edge list alone.
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


# Each row of a DAG's (m, m) matrix is packed into one byte (m <= 8): bit
# j is set iff the row has column j, and a set of nodes is one such byte
# per DAG. The products take the packed rows node-major, P[i] being row i
# of every DAG as one contiguous (D,) array, so a reach step or a squaring
# is a few bitwise ops per node over contiguous arrays.

def pack_rows(B: np.ndarray) -> np.ndarray:
    """The last axis of a boolean array (at most 8 long) as one uint8
    bitmask per row."""
    assert B.shape[-1] <= 8
    bits = B.view(np.uint8)
    P = np.zeros(B.shape[:-1], dtype=np.uint8)
    for j in range(B.shape[-1]):
        P |= bits[..., j] << j
    return P


def unpack_rows(P: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`pack_rows` for m columns."""
    return (P[..., None] & (1 << np.arange(m)).astype(np.uint8)) != 0


def node_major(B: np.ndarray) -> np.ndarray:
    """A (D, m, m) stack's packed rows as an (m, D) array."""
    return np.ascontiguousarray(pack_rows(B).T)


def step(v: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Mask of the nodes one row of P (m, D) away from the set v (D,): the
    union of P[i, d] over the nodes i in v[d]."""
    out = np.zeros_like(v)
    for i, row in enumerate(P):
        out |= row * ((v >> i) & 1)
    return out


def square_closure(C: np.ndarray) -> np.ndarray:
    """Transitive closure of a reflexive boolean stack by repeated squaring
    on its packed rows: row i of C^2 is the union of the rows in row i."""
    m = C.shape[1]
    P = node_major(C)
    for _ in range(max(1, int(np.ceil(np.log2(max(m, 2)))))):
        P = np.stack([step(row, P) for row in P])
    return unpack_rows(P.T, m)


def shared_child(A: np.ndarray) -> np.ndarray:
    """S[d, i, j] True iff i and j have a common child in DAG d."""
    P = pack_rows(A)
    return (P[:, :, None] & P[:, None, :]) != 0


def reflexive_closure(A: np.ndarray) -> np.ndarray:
    """R[d, i, j] True iff j is reachable from i (including i itself)."""
    return square_closure(A | np.eye(A.shape[1], dtype=bool))


def moral_separated_batch(A, R, x: int, y: int, Z) -> np.ndarray:
    """Ancestral-moralization d-separation for every DAG in the stack."""
    m = A.shape[1]
    targets = np.zeros(m, dtype=bool)
    targets[[x, y, *Z]] = True
    anc = (R & targets).any(axis=2)                       # (D, m)
    Ap = A & anc[:, :, None] & anc[:, None, :]
    M = Ap | Ap.transpose(0, 2, 1) | shared_child(Ap)
    live = anc.copy()
    live[:, list(Z)] = False
    M = M & live[:, :, None] & live[:, None, :]
    C = square_closure(M | np.eye(m, dtype=bool))
    return ~C[:, x, y]


def reachable_separated_batch(A, R, x: int, y: int, Z) -> np.ndarray:
    """Direction-tagged reachability d-separation for every DAG.

    States are (node, arrived-with-edge?) pairs exactly as in the scalar
    algorithm, held as two node masks per DAG; colliders pass when the
    node can reach Z.
    """
    D, m, _ = A.shape
    z = np.zeros(m, dtype=bool)
    z[list(Z)] = True
    not_z = int(pack_rows(~z))
    anc_z = pack_rows((R & z).any(axis=2))                # includes Z itself
    children, parents = node_major(A), node_major(A.transpose(0, 2, 1))
    up = np.full(D, 1 << x, dtype=np.uint8)
    down = np.zeros(D, dtype=np.uint8)
    while True:
        # one step to the parents from every state that may move up (up
        # and not in Z, or a collider opened by Z), one to the children
        # from every state that may move down (up or down, not in Z)
        new_up = up | step((up & not_z) | (down & anc_z), parents)
        new_down = down | step((up | down) & not_z, children)
        if (new_up == up).all() and (new_down == down).all():
            break
        up, down = new_up, new_down
    return ((up | down) >> y) & 1 == 0


def all_queries(m: int) -> list:
    """Every ({x}, {y}, Z) pattern with x < y and Z over the rest."""
    queries = []
    for x, y in itertools.combinations(range(m), 2):
        rest = [v for v in range(m) if v not in (x, y)]
        for size in range(len(rest) + 1):
            for Z in itertools.combinations(rest, size):
                queries.append((x, y, Z))
    return queries


def descendants_of(g, node) -> set:
    """Every node that ``node`` reaches along one or more edges of the
    ``Dag`` ``g``."""
    out, frontier = set(), {node}
    while frontier:
        frontier = {c for p, c in g.edges if p in frontier} - out
        out |= frontier
    return out
