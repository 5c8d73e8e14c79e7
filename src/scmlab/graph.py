"""DAG algorithms for causal identification.

Everything operates on a :class:`Dag` — node names, directed edges, and an
observed/unobserved flag per node. Graphs come from a structural model
(:func:`Dag.from_structural_model`) or are built directly.

d-separation is implemented twice on purpose: a reachability sweep over
(node, travel-direction) states, and the ancestral-moralization reduction
to undirected connectivity. The two are checked against each other
exhaustively on small graphs in the test suite; ``d_separated`` exposes
both through ``method``.

References
----------
Pearl, "Causality" (2009), ch. 1.2 (d-separation, backdoor criterion).
Koller & Friedman, "Probabilistic Graphical Models" (2009), alg. 3.1
(reachability formulation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

from .errors import (CycleError, GraphFileError, OverlappingSetsError,
                     TooManyCandidatesError, UnknownNodeError)

_CANDIDATE_LIMIT = 20


class Dag:
    """Directed acyclic graph with an observed flag per node.

    Parameters
    ----------
    nodes : iterable of names (order fixes reported path/set ordering ties).
    edges : iterable of (parent, child) pairs.
    observed : iterable of names, optional
        Defaults to all nodes. Unobserved nodes block/open paths as usual
        but are excluded from adjustment-set candidates.

    Attributes
    ----------
    order : the :func:`topological_sort` of the graph, computed once at
        construction as its cycle check (raises CycleError).
    """

    def __init__(self, nodes, edges, observed=None):
        self.nodes = list(nodes)
        declared = set(self.nodes)
        if len(declared) != len(self.nodes):
            raise ValueError("duplicate node names")
        self.edges = set()
        for p, c in edges:
            if p not in declared or c not in declared:
                raise UnknownNodeError(f"edge ({p!r}, {c!r}) references an undeclared node")
            self.edges.add((p, c))
        self.observed = set(self.nodes) if observed is None else set(observed)
        for n in self.observed:
            if n not in declared:
                raise UnknownNodeError(f"observed list names unknown node {n!r}")
        self._parents = {n: set() for n in self.nodes}
        self._children = {n: set() for n in self.nodes}
        for p, c in self.edges:
            self._parents[c].add(p)
            self._children[p].add(c)
        self.order = topological_sort(self)

    @staticmethod
    def from_structural_model(model) -> "Dag":
        edges = [(p, name) for name, a in model.assignments.items()
                 for p in a.parents]
        return Dag(model.nodes, edges)

    def ancestors_of(self, seeds) -> set:
        """All ancestors of the seed set (not including the seeds
        themselves unless reachable)."""
        out = set()
        stack = [p for s in seeds for p in self._parents[s]]
        while stack:
            n = stack.pop()
            if n not in out:
                out.add(n)
                stack.extend(self._parents[n])
        return out

    def descendants_of(self, node) -> set:
        out = set()
        stack = list(self._children[node])
        while stack:
            n = stack.pop()
            if n not in out:
                out.add(n)
                stack.extend(self._children[n])
        return out

    def _check_nodes(self, *names):
        for n in names:
            if n not in self._parents:
                raise UnknownNodeError(f"no node named {n!r}")

    def __repr__(self):
        return f"Dag({len(self.nodes)} nodes, {len(self.edges)} edges)"


def topological_sort(g: Dag) -> list:
    """Node list with every edge pointing from earlier to later.

    Ties broken by declared node order; raises CycleError otherwise.
    """
    indeg = {n: len(g._parents[n]) for n in g.nodes}
    pos = {n: i for i, n in enumerate(g.nodes)}
    ready = [pos[n] for n in g.nodes if indeg[n] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = g.nodes[heapq.heappop(ready)]
        order.append(n)
        for c in g._children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, pos[c])
    if len(order) != len(g.nodes):
        raise CycleError(f"cycle among nodes {[n for n in g.nodes if n not in order]}")
    return order


def _as_sets(g, X, Y, Z):
    X, Y, Z = set(X), set(Y), set(Z)
    g._check_nodes(*X, *Y, *Z)
    if X & Y or X & Z or Y & Z:
        raise OverlappingSetsError("X, Y, Z must be pairwise disjoint")
    return X, Y, Z


def d_separated(g: Dag, X, Y, Z, method: str = "reachable") -> bool:
    """True iff every path between X and Y is blocked given Z.

    Blocking follows the standard rules: a chain or fork node blocks when
    it is in Z; a collider blocks unless it or one of its descendants is
    in Z. ``method`` selects the implementation: ``"reachable"`` (default)
    or ``"moral"`` — they always agree and exist for cross-checking.
    """
    X, Y, Z = _as_sets(g, X, Y, Z)
    if not X or not Y:
        return True
    if method == "reachable":
        return not _reaches(g, X, Y, Z)
    if method == "moral":
        return _moral_separated(g, X, Y, Z)
    raise ValueError(f"unknown method {method!r}")


def _reaches(g: Dag, X: set, Y: set, Z: set) -> bool:
    """True iff some node of Y is reachable from X along an active path
    given Z; stops at the first node of Y it reaches.

    States are (node, direction of arrival), kept as one visited set per
    direction: "down" = entered along an edge out of the previous node,
    "up" = entered against an edge. From a non-collider position travel
    continues per the chain/fork rules; travel through a collider needs
    the collider (or a descendant) in Z, which the precomputed
    ancestors-of-Z set answers in O(1). X, Y and Z are disjoint, so a
    node of Y is never in Z and is reached as soon as it is entered.
    """
    anc_z = Z | g.ancestors_of(Z)
    up_seen, down_seen = set(), set()
    # the start nodes count as entered from a child ("up")
    up, down = list(X), []
    while up or down:
        if up:
            node = up.pop()
            if node in up_seen:
                continue
            up_seen.add(node)
            if node in Y:
                return True
            if node not in Z:
                # continue to parents (against edges) and children (with edges)
                up.extend(g._parents[node])
                down.extend(g._children[node])
        else:
            node = down.pop()
            if node in down_seen:
                continue
            down_seen.add(node)
            if node in Y:
                return True
            if node not in Z:
                # chain: keep descending
                down.extend(g._children[node])
            if node in anc_z:
                # collider with (a descendant in) Z: bounce to parents
                up.extend(g._parents[node])
    return False


def _moral_separated(g: Dag, X: set, Y: set, Z: set) -> bool:
    """Ancestral-moralization route: restrict to ancestors of X|Y|Z,
    marry co-parents, drop directions, delete Z, test connectivity."""
    keep = X | Y | Z
    keep = keep | g.ancestors_of(keep)
    undirected = {n: set() for n in keep}
    # keep is closed under parents, so every parent of a kept node is kept
    for c in keep:
        ps = g._parents[c]
        for p in ps:
            undirected[p].add(c)
            undirected[c].add(p)
        for a, b in combinations(ps, 2):
            undirected[a].add(b)
            undirected[b].add(a)
    live = keep - Z
    stack = list(X)
    seen = set(X)
    while stack:
        n = stack.pop()
        if n in Y:
            return False
        for m in undirected[n]:
            if m in live and m not in seen:
                seen.add(m)
                stack.append(m)
    return True


def backdoor_paths(g: Dag, cause: str, outcome: str) -> list:
    """All simple paths cause..outcome whose first edge points *into* cause.

    Returned as node-name sequences, sorted lexicographically for
    reproducible output. Blocking status is not evaluated here.
    """
    g._check_nodes(cause, outcome)
    if cause == outcome:
        raise OverlappingSetsError("cause and outcome must differ")
    paths = []

    def extend(path, last):
        if last == outcome:
            paths.append(list(path))
            return
        # continue over either edge orientation; simple paths only
        for nxt in sorted(g._parents[last] | g._children[last]):
            if nxt in path:
                continue
            path.append(nxt)
            extend(path, nxt)
            path.pop()

    for first in sorted(g._parents[cause]):   # first edge into cause
        extend([cause, first], first)
    return sorted(paths)


def is_valid_backdoor_set(g: Dag, cause: str, outcome: str, Z) -> bool:
    """Backdoor criterion: no member of Z descends from cause, and Z
    d-separates cause from outcome once cause's outgoing edges are cut.

    When cause has no children (the graph is already cut) both steps
    reduce to the d-separation test, which runs on ``g`` itself.
    """
    Z = set(Z)
    g._check_nodes(cause, outcome, *Z)
    if cause in Z or outcome in Z:
        raise OverlappingSetsError("cause and outcome cannot be in the adjustment set")
    if g._children[cause]:
        if Z & g.descendants_of(cause):
            return False
        g = _cut_outgoing(g, cause)
    return d_separated(g, {cause}, {outcome}, Z)


def _cut_outgoing(g: Dag, cause: str) -> Dag:
    """Copy of ``g`` without the edges out of ``cause``."""
    return Dag(g.nodes, [e for e in g.edges if e[0] != cause],
               observed=g.observed)


@dataclass
class AdjustmentAnalysis:
    """Identification report for one (cause, outcome) query.

    Adjustment sets are sorted name tuples; the set lists are ordered by
    size, then lexicographically.
    """

    query: tuple
    backdoor_paths: list
    valid_sets: list
    minimal_sets: list
    identifiable: bool


def minimal_backdoor_sets(g: Dag, cause: str, outcome: str) -> AdjustmentAnalysis:
    """Enumerate valid and inclusion-minimal backdoor adjustment sets.

    The candidates are the observed nodes minus cause and outcome (capped
    at 20), searched exhaustively over subsets; descendants of cause are
    pruned first since no valid set may contain them. When no backdoor
    path exists the empty set is the unique minimal set.
    """
    g._check_nodes(cause, outcome)
    if cause == outcome:
        raise OverlappingSetsError("cause and outcome must differ")
    candidates = g.observed - {cause, outcome}
    if len(candidates) > _CANDIDATE_LIMIT:
        raise TooManyCandidatesError(
            f"{len(candidates)} candidates exceed the exhaustive-search "
            f"cap of {_CANDIDATE_LIMIT}")
    usable = sorted(candidates - g.descendants_of(cause))
    paths = backdoor_paths(g, cause, outcome)
    # usable already excludes the descendants of cause, so every subset
    # is tested on one cut graph built here
    cut = _cut_outgoing(g, cause)
    # sets are sorted name tuples generated by size, then lexicographically,
    # so output order never depends on hash order, and a valid set is
    # minimal iff no minimal set found before it is contained in it
    valid, minimal = [], []
    for size in range(len(usable) + 1):
        for subset in combinations(usable, size):
            if is_valid_backdoor_set(cut, cause, outcome, subset):
                valid.append(subset)
                if not any(set(subset).issuperset(m) for m in minimal):
                    minimal.append(subset)
    return AdjustmentAnalysis(
        query=(cause, outcome),
        backdoor_paths=paths,
        valid_sets=valid,
        minimal_sets=minimal,
        identifiable=bool(valid),
    )


# --- graph exchange files -----------------------------------------------
#
#   # nodes: x0 x1 y
#   # observed: x0 y
#   x0 x1
#   x1 y
#
# One "parent child" pair per line; header lines carry isolated nodes and
# the observed flags.

def save_graph(g: Dag, path: str) -> None:
    lines = [f"# nodes: {' '.join(g.nodes)}",
             f"# observed: {' '.join(n for n in g.nodes if n in g.observed)}"]
    lines += [f"{p} {c}" for p, c in sorted(g.edges)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path: str) -> Dag:
    """Read a graph written by :func:`save_graph`.

    Raises GraphFileError, naming the path and line, for an edge line that
    is not exactly two names, a ``# nodes:`` line that repeats a name, an
    ``# observed:`` name or an edge end that ``# nodes:`` does not
    declare; and, naming the path, for an edge list with a cycle.
    """
    nodes, observed, observed_line, edges = None, None, 0, []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("# nodes:"):
                nodes = line.split(":", 1)[1].split()
                if len(set(nodes)) != len(nodes):
                    dup = next(n for i, n in enumerate(nodes) if n in nodes[:i])
                    raise GraphFileError(
                        f"{path}:{lineno}: node {dup!r} listed more than once")
            elif line.startswith("# observed:"):
                observed = line.split(":", 1)[1].split()
                observed_line = lineno
            elif line.startswith("#"):
                continue
            else:
                pair = line.split()
                if len(pair) != 2:
                    raise GraphFileError(
                        f"{path}:{lineno}: expected 'parent child', got "
                        f"{len(pair)} names in {line!r}")
                edges.append((tuple(pair), lineno))
    if nodes is None:
        nodes = sorted({n for e, _ in edges for n in e})
    declared = set(nodes)
    for name in observed or ():
        if name not in declared:
            raise GraphFileError(
                f"{path}:{observed_line}: observed list names undeclared "
                f"node {name!r}")
    for (p, c), lineno in edges:
        if p not in declared or c not in declared:
            raise GraphFileError(
                f"{path}:{lineno}: edge ({p!r}, {c!r}) names an undeclared "
                f"node")
    try:
        return Dag(nodes, [e for e, _ in edges], observed)
    except CycleError as exc:
        raise GraphFileError(f"{path}: {exc}") from exc


def to_dot(g: Dag) -> str:
    """Graph in DOT syntax; unobserved nodes drawn dashed."""
    lines = ["digraph {"]
    for n in g.nodes:
        style = "" if n in g.observed else ' [style=dashed]'
        lines.append(f'  "{n}"{style};')
    for p, c in sorted(g.edges):
        lines.append(f'  "{p}" -> "{c}";')
    lines.append("}")
    return "\n".join(lines)
