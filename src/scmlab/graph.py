"""DAG algorithms for causal identification.

Everything operates on a :class:`Dag` — node names, directed edges, and an
observed/unobserved flag per node. Graphs come from a structural model
(:func:`Dag.from_structural_model`) or are built directly.

d-separation is implemented twice on purpose: a reachability walk over
(node, travel-direction) states, and the ancestral-moralization reduction
to undirected connectivity. The two are checked against each other
exhaustively on small graphs in the test suite; ``d_separated`` exposes
both through ``method``.

The reachability walk runs on integer bit masks, bit i standing for
``Dag.nodes[i]``. A ``Dag`` builds them on its first reachability query
and keeps them: per node, the mask of its parents, of its children and of
its ancestors. The walk moves whole frontiers of nodes at once. Every
node of an active trail is in X ∪ Y ∪ Z or one of their ancestors, and
the walk descends only into Y ∪ Z and their ancestors, which keeps it
exact (see ``_reaches``). The backdoor test runs the same walk with the
cause's out-edges forbidden, so it needs no second graph, and the backdoor
search runs it once per subset, on masks OR-ed from its members' bits and
ancestral closures.

References
----------
Pearl, "Causality" (2009), ch. 1.2 (d-separation, backdoor criterion).
Koller & Friedman, "Probabilistic Graphical Models" (2009), alg. 3.1
(reachability formulation).
van der Zander, Liśkiewicz & Textor, "Separators and adjustment sets in
causal graphs: complete criteria and an algorithmic framework" (2019)
(d-separation on the ancestral set).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import (CycleError, DuplicateNodeError, EdgeShapeError,
                     GraphFileError, OverlappingSetsError,
                     TooManyCandidatesError, UnknownNodeError, check_value,
                     names, open_file)

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

    Raises DuplicateNodeError for a name declared twice, EdgeShapeError
    for an edge that is a string or does not hold two names, and
    UnknownNodeError for an edge end or an observed name that is not
    declared.
    """

    def __init__(self, nodes, edges, observed=None):
        self.nodes = names(nodes)
        self._index = {n: i for i, n in enumerate(self.nodes)}  # name -> position
        if len(self._index) != len(self.nodes):
            raise DuplicateNodeError("duplicate node names")
        self.edges = set()
        for edge in edges:
            if isinstance(edge, str):
                raise EdgeShapeError(f"edge {edge!r} is a string, not a "
                                     f"(parent, child) pair")
            try:
                p, c = edge
            except ValueError:
                raise EdgeShapeError(f"edge {edge!r} does not hold two "
                                     f"names") from None
            if p not in self._index or c not in self._index:
                raise UnknownNodeError(f"edge ({p!r}, {c!r}) references an undeclared node")
            self.edges.add((p, c))
        self.observed = set(self.nodes if observed is None else names(observed))
        for n in self.observed:
            if n not in self._index:
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
        themselves unless reachable), by one stack walk."""
        out = set()
        stack = [p for s in names(seeds) for p in self._parents[s]]
        while stack:
            n = stack.pop()
            if n not in out:
                out.add(n)
                stack.extend(self._parents[n])
        return out

    @cached_property
    def _masks(self) -> "_NodeMasks":
        """The node bit masks of the reachability walk, built on the first
        query, so that a graph that is never queried (a structural model's
        evaluation order) does not pay for them."""
        return _NodeMasks.of(self)

    def _first_on_path(self, cause, outcome, names):
        """The first of ``names`` that descends from ``cause`` and is
        ``outcome`` or one of its ancestors (so lies on a path), or None."""
        m = self._masks
        x, above = m.mask([cause]), m.closure(m.mask([outcome]))
        return next((n for n in names if m.mask([n]) & above
                     and m.ancestors[self._index[n]] & x), None)

    def _check_nodes(self, *names):
        for n in names:
            if n not in self._index:
                raise UnknownNodeError(f"no node named {n!r}")

    def _check_query(self, cause, outcome):
        """A (cause, outcome) query's check: both are nodes (else
        UnknownNodeError), and they differ (else OverlappingSetsError)."""
        self._check_nodes(cause, outcome)
        if cause == outcome:
            raise OverlappingSetsError("cause and outcome must differ")

    def __repr__(self):
        return f"Dag({len(self.nodes)} nodes, {len(self.edges)} edges)"


@dataclass(frozen=True)
class _NodeMasks:
    """A graph's nodes as bits, bit ``index[name]`` standing for the node
    (``index`` is the graph's own ``Dag._index``): ``parents[i]``,
    ``children[i]`` and ``ancestors[i]`` are the masks of node i's
    parents, children and (strict) ancestors."""

    index: dict
    parents: list
    children: list
    ancestors: list

    @staticmethod
    def of(g: "Dag") -> "_NodeMasks":
        index = g._index
        parents = [0] * len(index)
        children = [0] * len(index)
        for p, c in g.edges:
            i, j = index[p], index[c]
            parents[j] |= 1 << i
            children[i] |= 1 << j
        # in topological order every parent's ancestors are final first
        ancestors = [0] * len(index)
        for n in g.order:
            j = index[n]
            ancestors[j] = parents[j] | _union(ancestors, parents[j])
        return _NodeMasks(index, parents, children, ancestors)

    def mask(self, names) -> int:
        return sum(1 << self.index[n] for n in names)

    def closure(self, m: int) -> int:
        """The nodes of mask ``m`` and all their ancestors."""
        return m | _union(self.ancestors, m)


def _union(masks, m: int) -> int:
    """OR of ``masks[i]`` over the set bits i of ``m``."""
    out = 0
    while m:
        # from the highest bit down: no negation of a long mask per bit
        i = m.bit_length() - 1
        out |= masks[i]
        m ^= 1 << i
    return out


def topological_sort(g: Dag) -> list:
    """Node list with every edge pointing from earlier to later.

    Ties broken by declared node order; raises CycleError otherwise.
    """
    indeg = {n: len(g._parents[n]) for n in g.nodes}
    pos = g._index
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
    X, Y, Z = set(names(X)), set(names(Y)), set(names(Z))
    g._check_nodes(*X, *Y, *Z)
    if X & Y or X & Z or Y & Z:
        raise OverlappingSetsError("X, Y, Z must be pairwise disjoint")
    return X, Y, Z


def d_separated(g: Dag, X, Y, Z, method: str = "reachable") -> bool:
    """True iff every path between X and Y is blocked given Z.

    Blocking follows the standard rules: a chain or fork node blocks when
    it is in Z; a collider blocks unless it or one of its descendants is
    in Z. X, Y and Z each hold node names, read by ``errors.names``.
    ``method`` selects the implementation: ``"reachable"`` (default)
    or ``"moral"`` — they always agree and exist for cross-checking; any
    other value raises ConfigValidationError.
    """
    method = check_value("method", method, "reachable",
                         "one of reachable, moral")
    X, Y, Z = _as_sets(g, X, Y, Z)
    if not X or not Y:
        return True
    if method == "reachable":
        m = g._masks
        x, y, z = m.mask(X), m.mask(Y), m.mask(Z)
        anc_z = m.closure(z)
        return not _reaches(m, x, y, z, anc_z, anc_z | m.closure(y))
    return _moral_separated(g, X, Y, Z)


def _reaches(m: _NodeMasks, x: int, y: int, z: int, anc_z: int, keep: int,
             cut: int = 0) -> bool:
    """True iff some node of Y is reachable from X along an active path
    given Z, the three sets given as masks ``x``, ``y``, ``z`` of one
    graph's :class:`_NodeMasks` ``m``; stops at the first frontier that
    holds a node of Y. The caller passes the closures the walk reads:
    ``anc_z``, Z and its ancestors (``m.closure(z)``), and ``keep``, that
    mask together with Y and its ancestors. ``cut``, the bit of a node of
    X, runs the walk on the graph without the edges out of that node.

    States are (node, direction of arrival), kept as one visited mask per
    direction: "down" = entered along an edge out of the previous node,
    "up" = entered against an edge. Each step moves the whole frontier of
    each direction at once, by OR-ing the parent and child masks of its
    nodes (:class:`_NodeMasks`). From a non-collider position travel
    continues per the chain/fork rules; travel through a collider needs
    the collider (or a descendant) in Z, which the mask of Z and its
    ancestors answers. X, Y and Z are disjoint, so a node of Y is never in
    Z and is reached as soon as it is entered.

    Down-moves are limited to A = Y ∪ Z ∪ An(Y ∪ Z). An up-move goes to a
    parent, so the walk never leaves X ∪ A and their ancestors, the
    ancestral set where every active trail lies. The limit loses no
    active path: a node outside A is not in Y, and every node below it is
    outside A as well, so from it the walk can only keep descending
    outside A; it never enters Y, and it never bounces up, as a bounce
    needs a node with a descendant in Z.

    Cutting the edges out of node ``cut`` forbids every down-move out of
    it. An up-move into it would come from one of its children along a cut
    edge, but ``cut`` is in X, so its up state is visited from the start.
    A is taken from the uncut masks, and it holds the cut graph's A, so
    the argument above still holds. The bounce mask is exact in the cut
    graph only if no node of Z descends from ``cut`` (then no path to Z
    runs through a cut edge), which the backdoor test checks first.
    """
    up_seen = down_seen = 0
    # the start nodes count as entered from a child ("up")
    up, down = x, 0
    while up or down:
        if (up | down) & y:
            return True
        up_seen |= up
        down_seen |= down
        # up: pass to parents and children unless in Z; down: a chain
        # keeps descending unless in Z, a collider with (a descendant in)
        # Z bounces to its parents
        passing = up & ~z
        descend = (passing | down & ~z) & ~cut
        ascend = passing | down & anc_z
        down = _union(m.children, descend) & keep & ~down_seen
        up = _union(m.parents, ascend) & ~up_seen
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
    g._check_query(cause, outcome)
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

    The second step is the reachability walk on ``g`` itself with the
    edges out of cause forbidden (``_reaches``'s ``cut``).
    """
    Z = set(names(Z))
    g._check_query(cause, outcome)
    g._check_nodes(*Z)
    if cause in Z or outcome in Z:
        raise OverlappingSetsError("cause and outcome cannot be in the adjustment set")
    m = g._masks
    x, y, z = m.mask([cause]), m.mask([outcome]), m.mask(Z)
    anc_z = m.closure(z)
    if anc_z & x:           # a node of Z descends from cause
        return False
    return not _reaches(m, x, y, z, anc_z, anc_z | m.closure(y), cut=x)


@dataclass
class AdjustmentAnalysis:
    """Identification report for one (cause, outcome) query.

    Adjustment sets are sorted name tuples; the set lists are ordered by
    size, then lexicographically.
    """

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
    g._check_query(cause, outcome)
    candidates = g.observed - {cause, outcome}
    if len(candidates) > _CANDIDATE_LIMIT:
        raise TooManyCandidatesError(
            f"{len(candidates)} candidates exceed the exhaustive-search "
            f"cap of {_CANDIDATE_LIMIT}")
    m = g._masks
    x, y = m.mask([cause]), m.mask([outcome])
    # each subset runs is_valid_backdoor_set's walk, with its masks formed
    # from the members' bits and closures; a candidate that descends from
    # cause fails that test's first check in every subset, so it is pruned
    usable = [n for n in sorted(candidates) if not m.ancestors[m.index[n]] & x]
    paths = backdoor_paths(g, cause, outcome)
    anc_y = m.closure(y)
    bits = [1 << m.index[n] for n in usable]
    closures = [m.closure(b) for b in bits]
    # sets are sorted name tuples generated by size, then lexicographically,
    # so output order never depends on hash order, and a valid set is
    # minimal iff no minimal set found before it is contained in it
    valid, minimal, minimal_masks = [], [], []
    for size in range(len(usable) + 1):
        for members in combinations(range(len(usable)), size):
            z = anc_z = 0
            for i in members:
                z |= bits[i]
                anc_z |= closures[i]
            if _reaches(m, x, y, z, anc_z, anc_z | anc_y, cut=x):
                continue
            subset = tuple(usable[i] for i in members)
            valid.append(subset)
            if not any(z & s == s for s in minimal_masks):
                minimal.append(subset)
                minimal_masks.append(z)
    return AdjustmentAnalysis(
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
    with open_file(path, "graph file", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path: str) -> Dag:
    """Read a graph written by :func:`save_graph`.

    Raises GraphFileError, naming the path and line, for an edge line that
    is not exactly two names, a ``# nodes:`` line that repeats a name, an
    ``# observed:`` name or an edge end that ``# nodes:`` does not
    declare; and, naming the path, for an edge list with a cycle.
    """
    nodes, observed, observed_line, edges = None, None, 0, []
    with open_file(path, "graph file") as fh:
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
