"""The three benchmark workloads: what each calls, and how its outputs are
checked.

A workload object is built from the seed (that is the set-up), then runs
one closed-loop pass per :meth:`iterate` call: each scmlab call is issued
only after the previous one returns.  Each call the benchmark makes into
scmlab sits in a tracer span named ``<module>.<function>[.<variant>]``.
:meth:`iterate` returns the outputs; :meth:`verify` checks them after the
pass, so check code stays out of the timed region.  :meth:`traced_iterate`
runs the same pass with :func:`instrumented` installed, which adds spans
and counters inside the program's own calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

import scmlab.explain
import scmlab.graph
from scmlab import (Assignment, Dag, Dataset, GbtConfig, MlpConfig, NoiseSpec,
                    StructuralModel, cli, d_separated, gbt_train,
                    minimal_backdoor_sets, mlp_train, ols_fit,
                    population_covariance, population_mean,
                    population_regression, sample, shapley_exact,
                    total_effect_linear, validate_model)
from scmlab.experiments import report as _report
from scmlab.flexfit import GbtModel, predict_on_matrix

import inputs


class Checks:
    """Counts checked operations and failures; keeps the first few
    failure messages for the log.  A family of per-call checks (one per
    query, instance or call) counts as one check, so that every criterion
    weighs the same in ``failed / attempted``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def check_all(self, bad: list, what: str) -> None:
        """One check over a family; ``bad`` lists the members that failed."""
        self.check(not bad, f"{what}: {len(bad)} failed, first {bad[:3]}")


def dir_digest(path) -> str:
    """sha256 over the sorted (file name, bytes) pairs of a report
    directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        h.update((Path(path) / name).read_bytes())
    return h.hexdigest()


def dir_bytes(path) -> int:
    return sum((Path(path) / n).stat().st_size for n in os.listdir(path))


def needed_coalition_frac(model: GbtModel) -> float:
    """Coalitions that a tree-aware exact Shapley needs, as a share of the
    2^d that enumeration evaluates: the sum over distinct tree feature sets
    U of 2^|U|, over 2^d."""
    sets = {frozenset(int(f) for f in t.feature if f >= 0) for t in model.trees}
    return sum(2 ** len(u) for u in sets) / 2 ** len(model.feature_names)


def note(span, **attrs) -> None:
    """Attach attributes known only after the call (no-op when untraced)."""
    if span is not None:
        span.attrs.update(attrs)


# ----------------------------------------------------------- instrumentation

def _spanned(tr, fn, name, after=None):
    """``fn`` in a span; ``after(args, kwargs, result)`` returns attributes
    computed once the span has closed."""
    def wrapper(*args, **kwargs):
        with tr.span(name) as s:
            result = fn(*args, **kwargs)
        if after is not None:
            note(s, **after(args, kwargs, result))
        return result
    return wrapper


def _counted(tr, fn, count):
    """``fn`` adding ``count(args, result)`` to attributes of the
    innermost open span."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        for key, amount in count(args, result).items():
            tr.add(key, amount)
        return result
    return wrapper


def _rows(args, result):
    return {"coalition_rows": int(np.shape(args[0])[0])}


def _attribution_summary(tr, fn):
    """Span ``explain.attribution_summary.{gbt,callable}`` by the model's
    type; a callable model is wrapped so its rows are counted the way
    ``predict_on_matrix`` counts those of a trained model."""
    def wrapper(model, *args, **kwargs):
        if isinstance(model, GbtModel):
            with tr.span("explain.attribution_summary.gbt") as s:
                result = fn(model, *args, **kwargs)
            note(s, needed_frac=needed_coalition_frac(model))
            return result
        counted = _counted(tr, model, _rows) if callable(model) else model
        with tr.span("explain.attribution_summary.callable"):
            return fn(counted, *args, **kwargs)
    return wrapper


def _write_run_bytes(args, kwargs, result):
    return {"bytes": dir_bytes(kwargs.get("out_dir", args[0] if args else None))}


@contextlib.contextmanager
def instrumented(tr):
    """Spans and counters on the names scmlab's own modules look up at
    call time, for one traced pass; the original functions are restored
    afterwards.  Only names a module still has are wrapped, so a program
    change that drops one loses that span, not the run.

    - In every experiment module: ``write_run`` (``experiments.write_run``,
      with the report's size).
    - In ``scmlab.experiments.sweep`` (fig5_sweep): ``sample``,
      ``logistic_fit``, ``gbt_train``, ``_gbt_predict`` and
      ``attribution_summary``.
    - ``scmlab.explain.predict_on_matrix``: the rows explain evaluates a
      trained model on (``coalition_rows``).
    - ``scmlab.graph.is_valid_backdoor_set``: the subsets the backdoor
      search tests, and how many of them are valid.
    """
    sweep = sys.modules.get("scmlab.experiments.sweep")
    patches = [
        (sweep, "sample", lambda f: _spanned(
            tr, f, "scm.sample", lambda a, k, r: {"rows": len(r)})),
        (sweep, "logistic_fit", lambda f: _spanned(tr, f, "estimators.logistic_fit")),
        (sweep, "gbt_train", lambda f: _spanned(
            tr, f, "flexfit.gbt_train", lambda a, k, r: {"trees": len(r.trees)})),
        (sweep, "_gbt_predict", lambda f: _spanned(
            tr, f, "flexfit.gbt_predict", lambda a, k, r: {"rows": len(r)})),
        (sweep, "attribution_summary", lambda f: _attribution_summary(tr, f)),
        (scmlab.explain, "predict_on_matrix", lambda f: _counted(
            tr, f, lambda a, r: {"coalition_rows": int(np.shape(a[1])[0])})),
        (scmlab.graph, "is_valid_backdoor_set", lambda f: _counted(
            tr, f, lambda a, r: {"subsets_tested": 1, "valid": int(bool(r))})),
    ]
    for name, module in list(sys.modules.items()):
        if (name.startswith("scmlab.experiments.") and module is not _report
                and getattr(module, "write_run", None) is _report.write_run):
            patches.append((module, "write_run", lambda f: _spanned(
                tr, f, "experiments.write_run", _write_run_bytes)))
    saved = []
    try:
        for module, attr, wrap in patches:
            original = getattr(module, attr, None)
            if callable(original):
                saved.append((module, attr, original))
                setattr(module, attr, wrap(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ------------------------------------------------------------------ workloads

class Workload:
    name = ""
    pass_budget_s = 1.0    # share of --seconds allotted to one pass

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.report_digests = {}      # experiment -> digest of its reports

    def input_digest(self) -> str:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference values for the checks; run once, untimed."""

    def iterate(self, tr, out: Path) -> dict:
        raise NotImplementedError

    def traced_iterate(self, tr, out: Path) -> dict:
        with instrumented(tr):
            return self.iterate(tr, out)

    def verify(self, outputs: dict, checks: Checks) -> None:
        raise NotImplementedError

    def run_experiment(self, tr, experiment, out: Path, config=None):
        """``scmlab run <experiment>`` through the CLI entry point, in this
        process; returns (exit code, report directory)."""
        report_dir = out / experiment
        argv = ["run", experiment, "--out", str(report_dir)]
        if config is not None:
            argv += ["--config", str(config)]
        with tr.span(f"experiments.run.{experiment}"), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, report_dir

    def check_report(self, checks, experiment, code, report_dir) -> bool:
        """Exit code 0, and the same report bytes on every pass of this
        run, traced passes included; returns whether the report exists."""
        checks.check(code == 0, f"scmlab run {experiment} exited {code}")
        if code != 0:
            return False
        d = dir_digest(report_dir)
        first = self.report_digests.setdefault(experiment, d)
        checks.check(d == first, f"{experiment} report bytes changed between passes")
        return True


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------- sweep_shap

class SweepShap(Workload):
    """``scmlab run fig5_sweep`` at registered defaults except the grid
    (q = 0 and 1) and 24 evaluation rows instead of 100."""

    name = "sweep_shap"
    pass_budget_s = 14.0
    overrides = {"q_grid": "0 1", "eval_rows": "24"}

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.config = self.work_dir / "fig5_sweep.cfg"
        self.config.write_text(
            "".join(f"{k} = {v}\n" for k, v in self.overrides.items()),
            encoding="utf-8")

    def input_digest(self):
        return inputs.digest({"experiment": "fig5_sweep",
                              "overrides": self.overrides})

    def iterate(self, tr, out):
        code, report_dir = self.run_experiment(tr, "fig5_sweep", out,
                                               self.config)
        return {"code": code, "report": report_dir}

    def verify(self, outputs, checks):
        if not self.check_report(checks, "fig5_sweep", outputs["code"],
                                 outputs["report"]):
            return
        # criterion 07
        r = _read_json(outputs["report"] / "report.json")["results"]
        checks.check(r["logit_logloss_spearman"] > 0.8, "logloss spearman")
        checks.check(r["logit_logloss_strictly_increasing"] is True,
                     "logloss not strictly increasing")
        checks.check(r["gbt_to_logit_logloss_ratio_at_qmax"] <= 0.80,
                     "gbt/logit logloss ratio at qmax")
        checks.check(r["logit_irrelevant_mass_spearman"] > 0.8,
                     "irrelevant mass spearman")
        checks.check(r["gbt_to_logit_irrelevant_mass_ratio_at_qmax"] < 0.25,
                     "gbt/logit irrelevant mass ratio at qmax")
        lines = (outputs["report"] / "sweep.csv").read_text().splitlines()
        col = lines[0].split(",").index("logit_logloss")
        losses = [float(line.split(",")[col]) for line in lines[1:]]
        checks.check(all(b > a for a, b in zip(losses, losses[1:])),
                     "sweep.csv logit_logloss not increasing")


# ------------------------------------------------------------ fit_pointwise

class FitPointwise(Workload):
    """``scmlab run fig3_fit`` at registered defaults, then the criterion-08
    models explained one instance per call."""

    name = "fit_pointwise"
    pass_budget_s = 10.0
    mlp_config = MlpConfig(hidden=(8,), learning_rate=0.05, momentum=0.9,
                           epochs=500, seed=0)
    gbt_config = GbtConfig(n_trees=60, depth=3)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.inputs = inputs.pointwise_data(seed)
        X = self.inputs["X"]
        self.features = [f"x{j}" for j in range(X.shape[1])]
        self.data = Dataset({**{f: X[:, j] for j, f in enumerate(self.features)},
                             "y": self.inputs["y"]})

    def input_digest(self):
        return inputs.digest(self.inputs)

    def iterate(self, tr, out):
        code, report_dir = self.run_experiment(tr, "fig3_fit", out)
        with tr.span("flexfit.mlp_train", epochs=self.mlp_config.epochs):
            mlp = mlp_train(self.data, "y", self.features, self.mlp_config)
        with tr.span("flexfit.gbt_train", trees=self.gbt_config.n_trees):
            gbt = gbt_train(self.data, "y", self.features, self.gbt_config)
        X = self.inputs["instances"]
        with tr.span("flexfit.mlp_predict", rows=X.shape[0]):
            mlp_pred = predict_on_matrix(mlp, X)
        with tr.span("flexfit.gbt_predict", rows=X.shape[0]):
            gbt_pred = predict_on_matrix(gbt, X)
        B = self.inputs["background"]
        gbt_frac = needed_coalition_frac(gbt) if tr.enabled else None
        atts = {}
        for label, model in (("mlp", mlp), ("gbt", gbt)):
            name = f"explain.shapley_exact.{label}"
            extra = {"needed_frac": gbt_frac} if label == "gbt" else {}
            rows = []
            for i in range(X.shape[0]):
                with tr.span(name, **extra) as s:
                    att = shapley_exact(model, X[i], B)
                note(s, residual=abs(att.efficiency_residual))
                rows.append((att.efficiency_residual, att.prediction))
            atts[label] = rows
        return {"code": code, "report": report_dir, "attributions": atts,
                "predictions": {"mlp": mlp_pred, "gbt": gbt_pred}}

    def verify(self, outputs, checks):
        if self.check_report(checks, "fig3_fit", outputs["code"],
                             outputs["report"]):
            # criterion 06
            r = _read_json(outputs["report"] / "report.json")["results"]
            noise_var = r["noise_variance"]
            L, f, amp = 4.0, 3.0, 2.0
            sine_power = amp ** 2 / 2.0 * (1.0 - np.sin(2 * f * L) / (2 * f * L))
            checks.check(abs(noise_var - 0.09) <= 1e-6 * 0.09, "noise variance")
            checks.check(r["mlp_test_mse"] <= 1.5 * noise_var, "mlp test mse")
            checks.check(r["linear_test_mse"] >= noise_var + 0.5 * sine_power,
                         "linear test mse")
            checks.check(r["mse_ratio_test"] < 0.25, "mse ratio")
        for label, rows in outputs["attributions"].items():
            preds = outputs["predictions"][label]
            checks.check_all(
                [i for i, (res, _) in enumerate(rows) if not abs(res) < 1e-9],
                f"{label} shapley_exact: efficiency residual >= 1e-9")
            checks.check_all(
                [i for i, (_, pred) in enumerate(rows)
                 if not abs(pred - preds[i]) <= 1e-9 * (1.0 + abs(preds[i]))],
                f"{label} shapley_exact: prediction differs from batch")


# ---------------------------------------------------------------- scm_graph

LIGHT_EXPERIMENTS = ("table2", "table3", "part2_regressions", "backdoor_report",
                     "fig2_panels", "overfit_demo")


class ScmGraph(Workload):
    """Oracles, sampling and OLS on a random 2000-node linear-Gaussian SCM,
    d-separation on its DAG, an exhaustive backdoor search on a 16-node DAG,
    and the six light registered experiments."""

    name = "scm_graph"
    pass_budget_s = 12.0
    sample_rows = 5000

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.spec = inputs.random_linear_scm(seed)
        self.queries = inputs.scm_queries(seed, self.spec["parents"])
        self.backdoor = inputs.backdoor_dag(seed)
        s = self.spec
        names = s["names"]
        assignments = [
            Assignment.linear([names[p] for p in s["parents"][i]],
                              s["weights"][i], float(s["intercepts"][i]),
                              NoiseSpec.gaussian(sd=float(s["noise_sd"][i])))
            for i in range(len(names))]
        self.pairs = [(names[i], assignments[i]) for i in s["order"]]
        self.regressions = [(names[t], [names[p] for p in s["parents"][t]])
                            for t in self.queries["targets"]]
        self.effects = [(names[c], names[o]) for c, o in self.queries["effects"]]
        self.dsep = [({names[x]}, {names[y]}, {names[z] for z in Z})
                     for x, y, Z in self.queries["dsep"]]
        bd = self.backdoor
        self.backdoor_graph = Dag(bd["nodes"], bd["edges"])

    def input_digest(self):
        return inputs.digest({"scm": self.spec, "queries": self.queries,
                              "backdoor": self.backdoor,
                              "sample": [self.sample_rows, self.seed]})

    def prepare(self):
        """Dense reference A = (I - B)^-1 in topological order: covariance
        A diag(sd^2) A', mean A c, total effects A[outcome, cause].  And
        every valid and every minimal backdoor set of the 16-node DAG, by
        testing all 2^14 covariate subsets."""
        s = self.spec
        n = len(s["names"])
        M = np.eye(n)
        for i in range(n):
            for p, w in zip(s["parents"][i], s["weights"][i]):
                M[i, p] -= w
        self.A = solve_triangular(M, np.eye(n), lower=True, overwrite_b=True)
        del M
        self.mu_ref = self.A @ s["intercepts"]
        self.effects_ref = [float(self.A[o, c]) for c, o in self.queries["effects"]]
        self.valid_ref, self.minimal_ref = _backdoor_reference(self.backdoor)

    def iterate(self, tr, out):
        o = {}
        model = StructuralModel(self.pairs)
        with tr.span("scm.validate_model"):
            validate_model(model)
        with tr.span("scm.population_covariance"):
            o["cov"] = population_covariance(model)
        with tr.span("scm.population_mean"):
            o["mean"] = population_mean(model)
        o["regression"] = []
        for target, regs in self.regressions:
            with tr.span("scm.population_regression"):
                o["regression"].append(population_regression(model, target, regs))
        o["effects"] = []
        for cause, outcome in self.effects:
            with tr.span("scm.total_effect_linear"):
                o["effects"].append(total_effect_linear(model, cause, outcome))
        with tr.span("scm.sample", rows=self.sample_rows):
            data = sample(model, self.sample_rows, self.seed)
        o["ols"] = []
        for target, regs in self.regressions:
            with tr.span("estimators.ols_fit"):
                fit = ols_fit(data, target, regs)
            o["ols"].append((fit.coefficients, fit.stderr))
        del data
        with tr.span("graph.dag_build"):
            g = Dag.from_structural_model(model)
        o["dsep"] = []
        for X, Y, Z in self.dsep:
            with tr.span("graph.d_separated.reachable"):
                a = d_separated(g, X, Y, Z, method="reachable")
            with tr.span("graph.d_separated.moral"):
                b = d_separated(g, X, Y, Z, method="moral")
            o["dsep"].append((a, b))
        bd = self.backdoor
        with tr.span("graph.minimal_backdoor_sets"):
            o["backdoor"] = minimal_backdoor_sets(self.backdoor_graph,
                                                  bd["cause"], bd["outcome"])
        o["experiments"] = {e: self.run_experiment(tr, e, out)
                            for e in LIGHT_EXPERIMENTS}
        return o

    def verify(self, o, checks):
        s = self.spec
        pos = np.empty(len(s["order"]), dtype=int)      # topo index -> column
        pos[s["order"]] = np.arange(pos.size)
        var = s["noise_sd"] ** 2
        sd_ref = np.sqrt(np.einsum("ij,j,ij->i", self.A, var, self.A))
        worst = 0.0
        for lo in range(0, pos.size, 250):
            rows = slice(lo, lo + 250)
            ref = (self.A[rows] * var) @ self.A.T
            got = o["cov"][np.ix_(pos[rows], pos)]
            err = np.abs(got - ref) / np.outer(sd_ref[rows], sd_ref)
            worst = max(worst, float(err.max()))
        checks.check(worst <= 1e-9,
                     f"population_covariance off the (I-B)^-1 reference by {worst:g}")
        mean_err = np.abs(o["mean"][pos] - self.mu_ref) / np.maximum(sd_ref, 1.0)
        checks.check(mean_err.max() <= 1e-9, "population_mean off the reference")
        checks.check_all(
            [(c, oc) for got, ref, (c, oc) in zip(o["effects"], self.effects_ref,
                                                  self.effects)
             if not abs(got - ref) <= 1e-9 * max(1.0, abs(ref))],
            "total_effect_linear off the (I-B)^-1 reference")
        off_weights, off_ols = [], []
        for t, beta, (coef, se), (target, _) in zip(
                self.queries["targets"], o["regression"], o["ols"],
                self.regressions):
            truth = np.array([s["intercepts"][t], *s["weights"][t]])
            if not np.allclose(beta, truth, rtol=0.0, atol=1e-9):
                off_weights.append(target)
            if not np.all(np.abs(coef - beta) <= 5.0 * se):
                off_ols.append(target)
        checks.check_all(off_weights,
                         "population_regression differs from the structural weights")
        checks.check_all(off_ols, "ols_fit beyond 5 SE of the population value")
        checks.check_all([i for i, (a, b) in enumerate(o["dsep"]) if a != b],
                         "d-separation methods disagree")
        analysis = o["backdoor"]
        checks.check({tuple(S) for S in analysis.valid_sets} == self.valid_ref,
                     "valid backdoor sets differ from exhaustive reference")
        checks.check({tuple(S) for S in analysis.minimal_sets} == self.minimal_ref,
                     "minimal backdoor sets differ from exhaustive reference")
        for e, (code, report_dir) in o["experiments"].items():
            self.check_report(checks, e, code, report_dir)


def _backdoor_reference(bd):
    """Every valid backdoor set of ``bd`` for (cause, outcome), and the
    inclusion-minimal ones, as sets of sorted name tuples."""
    parents = {n: set() for n in bd["nodes"]}
    for p, c in bd["edges"]:
        parents[c].add(p)
    x, y = bd["cause"], bd["outcome"]
    candidates = sorted(set(bd["nodes"]) - {x, y})
    valid = [S for k in range(len(candidates) + 1)
             for S in combinations(candidates, k)
             if _backdoor_valid(parents, x, y, set(S))]
    # valid runs by size, and a valid set that is not minimal contains a
    # smaller minimal one, so comparing with those found so far suffices
    minimal = []
    for S in valid:
        if not any(set(M) < set(S) for M in minimal):
            minimal.append(S)
    return set(valid), set(minimal)


def _backdoor_valid(parents, x, y, Z) -> bool:
    """Reference backdoor criterion: Z holds no descendant of x, and Z
    separates x from y in the moral graph of the ancestral set of
    {x, y} | Z, taken after deleting x's outgoing edges (Lauritzen)."""
    children = {n: set() for n in parents}
    for c, ps in parents.items():
        for p in ps:
            children[p].add(c)
    desc, stack = set(), list(children[x])
    while stack:
        n = stack.pop()
        if n not in desc:
            desc.add(n)
            stack.extend(children[n])
    if Z & desc:
        return False
    cut = {c: (ps - {x}) for c, ps in parents.items()}
    keep, stack = set(), [x, y, *Z]
    while stack:
        n = stack.pop()
        if n not in keep:
            keep.add(n)
            stack.extend(cut[n])
    adj = {n: set() for n in keep}
    for c in keep:
        ps = sorted(cut[c])
        for p in ps:
            adj[p].add(c)
            adj[c].add(p)
        for a, b in combinations(ps, 2):
            adj[a].add(b)
            adj[b].add(a)
    seen, stack = {x}, [x]
    while stack:
        n = stack.pop()
        if n == y:
            return False
        for m in adj[n] - Z - seen:
            seen.add(m)
            stack.append(m)
    return True


WORKLOADS = {w.name: w for w in (SweepShap, FitPointwise, ScmGraph)}
