import itertools

import numpy as np
import pytest

from scmlab import (Assignment, Dag, NoiseSpec, StructuralModel,
                    backdoor_paths, d_separated, is_valid_backdoor_set,
                    load_graph, minimal_backdoor_sets, save_graph, to_dot,
                    topological_sort, validate_model)
from scmlab.errors import (ConfigValidationError, CycleError,
                           DuplicateNodeError, GraphFileError,
                           OverlappingSetsError, TooManyCandidatesError,
                           UnknownNodeError)

from dsep_helpers import (all_dags, all_queries, descendants_of,
                          moral_separated_batch, node_major, pack_rows,
                          reflexive_closure, shared_child, square_closure,
                          step, unpack_rows)
from sem_helpers import random_linear_model


def chain():
    return Dag(["x", "m", "y"], [("x", "m"), ("m", "y")])


def collider():
    return Dag(["x", "c", "y", "d"], [("x", "c"), ("y", "c"), ("c", "d")])


def confounder_triangle():
    # z -> x -> y with z -> y: one backdoor path x <- z -> y
    return Dag(["z", "x", "y"], [("z", "x"), ("z", "y"), ("x", "y")])


# --- construction and sorting --------------------------------------------

def test_dag_rejects_cycle_at_construction():
    with pytest.raises(CycleError):
        Dag(["a", "b"], [("a", "b"), ("b", "a")])


def test_dag_rejects_unknown_edge_endpoint():
    with pytest.raises(UnknownNodeError):
        Dag(["a"], [("a", "b")])


def test_dag_rejects_unknown_observed_node():
    with pytest.raises(UnknownNodeError, match="unknown node 'b'"):
        Dag(["a"], [], observed=["b"])


def test_dag_rejects_duplicate_node_names():
    with pytest.raises(DuplicateNodeError, match="duplicate node names") as err:
        Dag(["a", "b", "a"], [("a", "b")])
    assert isinstance(err.value, ValueError)


def test_node_masks_are_built_on_the_first_reachability_query():
    # a structural model's Dag serves only its evaluation order, so
    # building one must not pay for the walk's masks
    g = Dag.from_structural_model(random_linear_model(50, 0))
    assert "_masks" not in vars(g)
    d_separated(g, {"v0"}, {"v1"}, set(), method="moral")
    assert "_masks" not in vars(g)
    d_separated(g, {"v0"}, {"v1"}, set())
    assert "_masks" in vars(g)


def test_topological_sort_respects_edges_and_declared_order():
    g = Dag(["c", "a", "b"], [("a", "b"), ("b", "c")])
    assert topological_sort(g) == ["a", "b", "c"]
    # ties broken by declared position
    g2 = Dag(["q", "p"], [])
    assert topological_sort(g2) == ["q", "p"]


def test_dag_keeps_its_topological_order():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g, _ = _random_dag(rng, int(rng.integers(2, 13)))
        assert g.order == topological_sort(g)
    for seed in range(3):
        g = Dag.from_structural_model(random_linear_model(300, seed))
        assert g.order == topological_sort(g)


def test_from_structural_model_carries_edges():
    m = validate_model(StructuralModel({
        "a": Assignment.exogenous(NoiseSpec.gaussian()),
        "b": Assignment.linear(["a"], [1.0], noise=NoiseSpec.gaussian()),
    }))
    g = Dag.from_structural_model(m)
    assert set(g.edges) == {("a", "b")}
    assert g.observed == {"a", "b"}


def test_ancestors_descendants():
    g = chain()
    assert g.ancestors_of({"y"}) == {"x", "m"}
    assert descendants_of(g, "x") == {"m", "y"}


# --- d-separation ---------------------------------------------------------

@pytest.mark.parametrize("method", ["reachable", "moral"])
def test_chain_blocking(method):
    g = chain()
    assert not d_separated(g, {"x"}, {"y"}, set(), method=method)
    assert d_separated(g, {"x"}, {"y"}, {"m"}, method=method)


@pytest.mark.parametrize("method", ["reachable", "moral"])
def test_fork_blocking(method):
    g = Dag(["z", "x", "y"], [("z", "x"), ("z", "y")])
    assert not d_separated(g, {"x"}, {"y"}, set(), method=method)
    assert d_separated(g, {"x"}, {"y"}, {"z"}, method=method)


@pytest.mark.parametrize("method", ["reachable", "moral"])
def test_collider_opens_under_conditioning(method):
    g = collider()
    assert d_separated(g, {"x"}, {"y"}, set(), method=method)
    assert not d_separated(g, {"x"}, {"y"}, {"c"}, method=method)
    # conditioning on a collider's descendant opens the path too
    assert not d_separated(g, {"x"}, {"y"}, {"d"}, method=method)


def test_d_separation_set_queries():
    g = Dag(["a", "b", "c", "d"],
            [("a", "c"), ("b", "c"), ("c", "d")])
    assert d_separated(g, {"a", "b"}, set(), set())   # empty Y: vacuous
    assert not d_separated(g, {"a"}, {"c", "d"}, set())


def test_d_separation_rejects_overlap_and_unknown():
    g = chain()
    with pytest.raises(OverlappingSetsError):
        d_separated(g, {"x"}, {"x"}, set())
    with pytest.raises(OverlappingSetsError):
        d_separated(g, {"x"}, {"y"}, {"x"})
    with pytest.raises(UnknownNodeError):
        d_separated(g, {"x"}, {"nope"}, set())
    with pytest.raises(ConfigValidationError,
                       match="method = 'psychic' must be") as err:
        d_separated(g, {"x"}, {"y"}, set(), method="psychic")
    assert isinstance(err.value, ValueError)


def test_methods_agree_on_random_graphs():
    rng = np.random.default_rng(7)
    names = [f"v{i}" for i in range(6)]
    for _ in range(60):
        order = rng.permutation(6)
        edges = [(names[order[i]], names[order[j]])
                 for i in range(6) for j in range(i + 1, 6)
                 if rng.random() < 0.35]
        g = Dag(names, edges)
        x, y = rng.choice(6, size=2, replace=False)
        rest = [v for v in range(6) if v not in (x, y)]
        Z = {names[v] for v in rest if rng.random() < 0.4}
        a = d_separated(g, {names[x]}, {names[y]}, Z, method="reachable")
        b = d_separated(g, {names[x]}, {names[y]}, Z, method="moral")
        assert a == b


def test_packed_twin_products_match_float32_products():
    # the bit-packed products of the d-separation twins against the
    # float32 batched products they replaced: closure by squaring (of the
    # DAGs and of random symmetric graphs, as moralization gives), one
    # reach step, and the shared-child product
    rng = np.random.default_rng(5)

    def float32_closure(C):
        for _ in range(max(1, int(np.ceil(np.log2(C.shape[1]))))):
            Cf = C.astype(np.float32)
            C = (Cf @ Cf) > 0.5
        return C

    for m in range(2, 6):
        A = all_dags(m)
        D, eye = A.shape[0], np.eye(m, dtype=bool)
        Af = A.astype(np.float32)
        assert np.array_equal(reflexive_closure(A), float32_closure(A | eye))
        M = rng.random((D, m, m)) < 0.3
        M = M | M.transpose(0, 2, 1) | eye
        assert np.array_equal(square_closure(M), float32_closure(M))
        assert np.array_equal(shared_child(A),
                              (Af @ Af.transpose(0, 2, 1)) > 0.5)
        v = rng.random((D, m)) < 0.5
        assert np.array_equal(
            unpack_rows(step(pack_rows(v), node_major(A)), m),
            (v.astype(np.float32)[:, None, :] @ Af)[:, 0] > 0.5)


def test_scalar_methods_match_exhaustive_batch_on_subsample():
    A = all_dags(4)
    R = reflexive_closure(A)
    names = ["a", "b", "c", "d"]
    queries = all_queries(4)
    rng = np.random.default_rng(0)
    for _ in range(120):
        d = int(rng.integers(A.shape[0]))
        x, y, Z = queries[int(rng.integers(len(queries)))]
        edges = [(names[i], names[j]) for i in range(4) for j in range(4)
                 if A[d, i, j]]
        g = Dag(names, edges)
        want = bool(moral_separated_batch(A[d:d + 1], R[d:d + 1], x, y, Z)[0])
        for method in ("reachable", "moral"):
            got = d_separated(g, {names[x]}, {names[y]},
                              {names[v] for v in Z}, method=method)
            assert got == want


def test_methods_agree_on_large_random_graphs():
    # the reachability sweep stops at the first node of Y it reaches; the
    # moral route never stops early, so the two still cross-check
    rng = np.random.default_rng(11)
    answers = []
    for seed in range(3):
        g = Dag.from_structural_model(random_linear_model(300, seed))
        for _ in range(100):
            picks = rng.choice(g.nodes, size=2 + int(rng.integers(0, 5)),
                               replace=False)
            X, Y, Z = {picks[0]}, {picks[1]}, set(picks[2:])
            a = d_separated(g, X, Y, Z, method="reachable")
            assert a == d_separated(g, X, Y, Z, method="moral"), (seed, picks)
            answers.append(a)
    assert 0.2 < np.mean(answers) < 0.8      # both answers are exercised


def test_methods_agree_on_set_valued_queries_on_large_random_graphs():
    # the walk's down-moves are cut to the ancestors of all of X, Y and Z,
    # and it stops at the first frontier that meets Y: sets of up to 3
    # nodes on either side, and up to 4 in Z, exercise both
    rng = np.random.default_rng(13)
    answers = []
    for seed in range(3):
        g = Dag.from_structural_model(random_linear_model(300, seed))
        for _ in range(100):
            nx, ny = (int(k) for k in rng.integers(1, 4, size=2))
            nz = int(rng.integers(0, 5))
            picks = rng.choice(g.nodes, size=nx + ny + nz, replace=False)
            X, Y, Z = (set(picks[:nx]), set(picks[nx:nx + ny]),
                       set(picks[nx + ny:]))
            a = d_separated(g, X, Y, Z, method="reachable")
            assert a == d_separated(g, X, Y, Z, method="moral"), (seed, picks)
            answers.append(a)
    assert 0.2 < np.mean(answers) < 0.8      # both answers are exercised


# --- backdoor machinery ---------------------------------------------------

def test_backdoor_paths_found_and_sorted():
    g = confounder_triangle()
    assert backdoor_paths(g, "x", "y") == [["x", "z", "y"]]
    assert backdoor_paths(g, "z", "y") == []


def test_backdoor_path_through_collider_listed():
    g = Dag(["x", "u", "w", "y"],
            [("u", "x"), ("u", "w"), ("y", "w"), ("x", "y")])
    # x <- u -> w <- y is a backdoor path even though the collider blocks it
    assert ["x", "u", "w", "y"] in backdoor_paths(g, "x", "y")


def test_valid_backdoor_set_rules():
    g = confounder_triangle()
    assert not is_valid_backdoor_set(g, "x", "y", set())
    assert is_valid_backdoor_set(g, "x", "y", {"z"})
    with pytest.raises(OverlappingSetsError):
        is_valid_backdoor_set(g, "x", "y", {"x"})


@pytest.mark.parametrize("method", ["reachable", "moral"])
def test_a_bare_string_is_one_node_name(method):
    # read letter by letter, "ab" would be {a, b} and "x1" {x, 1}
    g = Dag(["ab", "a", "b", "c", "x1", "z1"],
            [("a", "c"), ("z1", "x1"), ("z1", "c"), ("x1", "c")])
    assert d_separated(g, "ab", "c", [], method=method)
    assert not d_separated(g, "x1", "c", "z1", method=method)
    assert d_separated(g, "ab", ["c", "x1"], "z1", method=method)
    assert is_valid_backdoor_set(g, "x1", "c", "z1")
    assert not is_valid_backdoor_set(g, "x1", "c", "ab")


@pytest.mark.parametrize("Z", [{"x"}, {"y", "z"}])
def test_valid_backdoor_set_rejects_cause_or_outcome_in_set(Z):
    with pytest.raises(OverlappingSetsError,
                       match="cannot be in the adjustment set") as err:
        is_valid_backdoor_set(confounder_triangle(), "x", "y", Z)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("query", [
    backdoor_paths, minimal_backdoor_sets,
    lambda g, cause, outcome: is_valid_backdoor_set(g, cause, outcome, {"z"})])
def test_backdoor_queries_reject_cause_equal_to_outcome(query):
    with pytest.raises(OverlappingSetsError,
                       match="cause and outcome must differ") as err:
        query(confounder_triangle(), "x", "x")
    assert isinstance(err.value, ValueError)


def test_descendants_of_cause_invalidate_a_set():
    g = Dag(["x", "m", "y", "z"],
            [("z", "x"), ("z", "y"), ("x", "m"), ("m", "y")])
    assert not is_valid_backdoor_set(g, "x", "y", {"m"})
    assert not is_valid_backdoor_set(g, "x", "y", {"m", "z"})
    assert is_valid_backdoor_set(g, "x", "y", {"z"})
    # every node is observed, so the descendant m is a candidate; the
    # search prunes it
    analysis = minimal_backdoor_sets(g, "x", "y")
    assert analysis.valid_sets == analysis.minimal_sets == [("z",)]


def test_minimal_backdoor_sets_simple():
    analysis = minimal_backdoor_sets(confounder_triangle(), "x", "y")
    assert analysis.identifiable
    assert analysis.minimal_sets == [("z",)]
    assert analysis.valid_sets == [("z",)]
    assert analysis.backdoor_paths == [["x", "z", "y"]]


def test_minimal_backdoor_sets_no_backdoor_means_empty_set():
    g = chain()
    analysis = minimal_backdoor_sets(g, "x", "y")
    assert analysis.identifiable
    assert analysis.minimal_sets == [()]


def test_minimal_backdoor_sets_respects_observed():
    g = Dag(["z", "x", "y"], [("z", "x"), ("z", "y"), ("x", "y")],
            observed={"x", "y"})
    analysis = minimal_backdoor_sets(g, "x", "y")
    assert not analysis.identifiable
    assert analysis.minimal_sets == []


def test_minimal_backdoor_sets_candidate_cap():
    names = ["x", "y"] + [f"c{i}" for i in range(21)]
    edges = [(f"c{i}", "x") for i in range(21)] + \
            [(f"c{i}", "y") for i in range(21)]
    g = Dag(names, edges)
    with pytest.raises(TooManyCandidatesError):
        minimal_backdoor_sets(g, "x", "y")


def _random_dag(rng, n):
    """A DAG on ``n`` shuffled names with about a quarter unobserved."""
    names = [f"v{i}" for i in rng.permutation(n)]
    edges = [(names[i], names[j]) for j in range(n) for i in range(j)
             if rng.random() < 0.3]
    observed = {v for v in names if rng.random() < 0.75}
    return Dag(names, edges, observed=observed), names


def _reference_backdoor_valid(g, cause, outcome, S):
    """The backdoor criterion from its definition: no member of ``S``
    descends from cause, and ``S`` separates cause from outcome, by the
    moral route, in a graph built without cause's outgoing edges."""
    if set(S) & descendants_of(g, cause):
        return False
    cut = Dag(g.nodes, [e for e in g.edges if e[0] != cause])
    return d_separated(cut, {cause}, {outcome}, set(S), method="moral")


def _reference_backdoor_sets(g, cause, outcome, candidates):
    """Every subset of ``candidates``, by size then name, that the
    reference criterion accepts, and the inclusion-minimal ones among
    them."""
    pool = sorted(candidates)
    valid = [S for k in range(len(pool) + 1)
             for S in itertools.combinations(pool, k)
             if _reference_backdoor_valid(g, cause, outcome, S)]
    minimal = [S for S in valid if not any(set(T) < set(S) for T in valid)]
    return valid, minimal


def _backdoor_queries():
    """Twelve random DAGs on 8 to 12 nodes, each with a cause early in the
    topological order and an outcome late, so that cause usually has
    descendants and backdoor paths exist."""
    rng = np.random.default_rng(5)
    for case in range(12):
        g, names = _random_dag(rng, int(rng.integers(8, 13)))
        yield case, g, names[int(rng.integers(0, 3))], names[-1 - case % 3]


def test_valid_backdoor_set_matches_reference_on_every_subset():
    # every subset of every other node, observed or not, descendants of
    # cause included: the in-walk cut against a graph built without the
    # edges out of cause, separated by the moral route
    checked = [0, 0]
    for case, g, cause, outcome in _backdoor_queries():
        others = sorted(set(g.nodes) - {cause, outcome})
        for k in range(len(others) + 1):
            for S in itertools.combinations(others, k):
                got = is_valid_backdoor_set(g, cause, outcome, S)
                assert got == _reference_backdoor_valid(
                    g, cause, outcome, S), (case, S)
                checked[got] += 1
    assert min(checked) > 500                 # both answers are exercised


def test_minimal_backdoor_sets_match_per_subset_criterion():
    with_descendant_candidates = 0
    for case, g, cause, outcome in _backdoor_queries():
        everything = set(g.nodes) - {cause, outcome}
        # the graph as drawn, then the same graph fully observed, whose
        # pool holds every other node
        for h in (g, Dag(g.nodes, g.edges)):
            got = minimal_backdoor_sets(h, cause, outcome)
            pool = h.observed - {cause, outcome}
            valid, minimal = _reference_backdoor_sets(g, cause, outcome, pool)
            assert got.valid_sets == valid, (case, sorted(pool))
            assert got.minimal_sets == minimal, (case, sorted(pool))
            assert got.identifiable == bool(valid)
        if everything & descendants_of(g, cause):
            with_descendant_candidates += 1
    assert with_descendant_candidates >= 6


def _per_subset_search(g, cause, outcome):
    """The backdoor search as one ``is_valid_backdoor_set`` call per subset
    of the usable candidates, by size then name: every valid set, and each
    one that contains no valid set found before it."""
    usable = sorted(g.observed - {cause, outcome} - descendants_of(g, cause))
    valid, minimal = [], []
    for k in range(len(usable) + 1):
        for S in itertools.combinations(usable, k):
            if is_valid_backdoor_set(g, cause, outcome, S):
                valid.append(S)
                if not any(set(S) >= set(T) for T in minimal):
                    minimal.append(S)
    return valid, minimal


def test_minimal_backdoor_sets_equal_a_per_subset_loop():
    # test_graph's random DAGs as drawn and fully observed, then 16-node
    # DAGs with 14 candidates, as many as the benchmark's search
    queries = [(h, cause, outcome)
               for _, g, cause, outcome in _backdoor_queries()
               for h in (g, Dag(g.nodes, g.edges))]
    rng = np.random.default_rng(16)
    for _ in range(3):
        # covariates c00..c13 form a random DAG, each feeds x and y with
        # probability 0.3, and x -> y: all 14 are candidates
        cov = [f"c{i:02d}" for i in range(14)]
        edges = [(cov[j], cov[i]) for i in range(14) for j in range(i)
                 if rng.random() < 0.2]
        edges += [(c, v) for c in cov for v in "xy" if rng.random() < 0.3]
        nodes = list(rng.permutation(cov + ["x", "y"]))
        queries.append((Dag(nodes, edges + [("x", "y")]), "x", "y"))
    searched = 0
    for g, cause, outcome in queries:
        got = minimal_backdoor_sets(g, cause, outcome)
        valid, minimal = _per_subset_search(g, cause, outcome)
        assert got.valid_sets == valid
        assert got.minimal_sets == minimal
        searched += 2 ** len(g.observed - {cause, outcome}
                             - descendants_of(g, cause))
    assert searched > 3 * 2 ** 14


# --- files and export -----------------------------------------------------

def test_graph_save_load_round_trip(tmp_path):
    g = Dag(["z", "x", "y", "iso"],
            [("z", "x"), ("z", "y"), ("x", "y")], observed={"x", "y", "iso"})
    path = tmp_path / "g.edges"
    save_graph(g, str(path))
    g2 = load_graph(str(path))
    assert g2.nodes == g.nodes
    assert set(g2.edges) == set(g.edges)
    assert g2.observed == g.observed


def test_load_graph_without_nodes_line_takes_sorted_edge_ends(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# an edge list\ny x\nx w\n", encoding="utf-8")
    g = load_graph(str(path))
    assert g.nodes == ["w", "x", "y"]
    assert g.edges == {("y", "x"), ("x", "w")}
    assert g.observed == {"w", "x", "y"}


@pytest.mark.parametrize("bad", ["x", "x y z"])
def test_load_graph_rejects_line_that_is_not_a_pair(tmp_path, bad):
    path = tmp_path / "g.edges"
    path.write_text(f"# nodes: x y z\nx y\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(GraphFileError, match=rf"g\.edges:4: .*{bad!r}"):
        load_graph(str(path))


def test_load_graph_rejects_repeated_node_name(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("x y\n# nodes: x y x\n", encoding="utf-8")
    with pytest.raises(GraphFileError, match=r"g\.edges:2: .*'x'"):
        load_graph(str(path))


@pytest.mark.parametrize("text, where, what", [
    # a name on the observed line that the nodes line does not declare
    ("# nodes: x y\n# observed: x q\nx y\n", ":2: ", "'q'"),
    # an edge to an undeclared node
    ("# nodes: x y\nx y\n\nx z\n", ":4: ", r"\('x', 'z'\)"),
    # a cycle belongs to no one line: the path alone
    ("# nodes: x y\nx y\ny x\n", ": ", "cycle"),
])
def test_load_graph_names_path_and_line_of_undeclared_or_cyclic(
        tmp_path, text, where, what):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(GraphFileError,
                       match=rf"g\.edges{where}.*{what}") as err:
        load_graph(str(path))
    assert isinstance(err.value, ValueError)


def test_to_dot_marks_unobserved_dashed():
    g = Dag(["z", "x"], [("z", "x")], observed={"x"})
    dot = to_dot(g)
    assert "digraph" in dot
    assert "dashed" in dot
    assert '"z" -> "x"' in dot

