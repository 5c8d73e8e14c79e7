#!/usr/bin/env python3
"""scmlab benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload sweep_shap --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the same checkout.  The run

1. imports scmlab and builds the workload's inputs from ``--seed``
   ``SETUP_BUILDS`` times, checking that each build is the same;
   ``setup_s`` is the time from the top of this file to the end of the
   import, plus the median build time;
2. repeats the workload as a closed loop, ``--seconds`` over the
   workload's per-pass budget times (at least once), checking every
   output after each pass;
3. prints one ``{"info": ...}`` line (host, input and report digests, raw
   samples, failed checks) and, as the last line, the result object.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
passes and holds the per-layer metrics, computed from the spans of the
traced passes, which also wrap functions inside scmlab
(``workloads.instrumented``); the spans are written to ``.perfbench_out/trace-<workload>-seed<seed>.jsonl``).
Metric names and units come from ``BENCHMARK.json``.
"""

import time

T0 = time.perf_counter()   # set-up starts here, before NumPy and scmlab load

import os  # noqa: E402
import sys  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
# BLAS reads these once, when NumPy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_BUILDS = 3


def import_program():
    """Import scmlab from this checkout's ``src/`` (never an installed
    copy), then the workloads built on it."""
    init = SRC / "scmlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no scmlab sources at {init}")
    sys.path.insert(0, str(SRC))
    import scmlab
    if Path(scmlab.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported scmlab from {scmlab.__file__}, "
                         f"expected {init}")
    import workloads
    return scmlab, workloads


def host_info(scmlab) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "scmlab": scmlab.__version__, "commit": commit}


def run_passes(wl, checks, work: Path, seconds: float, traced: bool, run_id: str):
    """Closed loop of passes.  The pass count is ``seconds`` over the
    workload's per-pass budget, not read off the clock, so every commit
    does the same work.  In traced mode each step is an untraced pass
    followed by a traced one under a root span."""
    off = Tracer(run_id, enabled=False)
    on = Tracer(run_id, enabled=True)
    plain, cpu, timed, roots = [], [], [], []
    steps = max(1, int(seconds // (wl.pass_budget_s * (2 if traced else 1))))
    try:
        for k in range(steps):
            c0, t0 = time.process_time(), time.perf_counter()
            outputs = wl.iterate(off, work / f"pass{k}")
            plain.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
            wl.verify(outputs, checks)
            del outputs
            if traced:
                with on.span(f"workload.{wl.name}") as root:
                    outputs = wl.traced_iterate(on, work / f"traced{k}")
                timed.append(root.duration)
                roots.append(root)
                wl.verify(outputs, checks)
                del outputs
    except Exception:  # a raising program is a failed operation, not a crash
        traceback.print_exc()
        checks.check(False, "exception: " + traceback.format_exc(limit=1))
    return plain, cpu, timed, roots, on


def layer_metrics(names, spans, roots, plain, timed) -> dict:
    """Per-layer metrics per traced pass.  ``<span>.s`` is the summed self
    time of the spans of that name; the rest are counts, rates,
    percentiles and ratios over span attributes."""
    n = len(roots)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def self_s(*names_):
        return sum(s.self_s for x in names_ for s in by[x])

    def attr(names_, key):
        return [s.attrs[key] for x in names_ for s in by[x] if key in s.attrs]

    def per_s(names_, key):
        busy = self_s(*names_)
        return sum(attr(names_, key)) / busy if busy > 0 else 0.0

    def pct_ms(name, q):
        d = [s.duration for s in by[name]]
        return statistics.quantiles(d, n=100)[q - 1] * 1e3 if len(d) > 1 else 0.0

    gbt_explain = ["explain.attribution_summary.gbt", "explain.shapley_exact.gbt"]
    explain = gbt_explain + ["explain.attribution_summary.callable",
                             "explain.shapley_exact.mlp"]
    needed = attr(gbt_explain, "needed_frac")
    residuals = attr(["explain.shapley_exact.gbt", "explain.shapley_exact.mlp"],
                     "residual")
    subsets = sum(attr(["graph.minimal_backdoor_sets"], "subsets_tested"))
    special = {
        "explain.coalition_rows": sum(attr(explain, "coalition_rows")) / n,
        "explain.gbt.coalition_rows_per_s": per_s(gbt_explain, "coalition_rows"),
        "explain.gbt.needed_coalition_frac":
            statistics.fmean(needed) if needed else 0.0,
        "explain.shapley_exact.gbt.p50_ms": pct_ms("explain.shapley_exact.gbt", 50),
        "explain.shapley_exact.gbt.p99_ms": pct_ms("explain.shapley_exact.gbt", 99),
        "explain.shapley_exact.mlp.p50_ms": pct_ms("explain.shapley_exact.mlp", 50),
        "explain.shapley_exact.mlp.p99_ms": pct_ms("explain.shapley_exact.mlp", 99),
        "explain.shapley_exact.calls": (len(by["explain.shapley_exact.gbt"])
                                        + len(by["explain.shapley_exact.mlp"])) / n,
        "explain.efficiency_residual_max": max(residuals, default=0.0),
        "flexfit.gbt_train.trees_per_s": per_s(["flexfit.gbt_train"], "trees"),
        "flexfit.gbt_predict.rows_per_s": per_s(["flexfit.gbt_predict"], "rows"),
        "flexfit.mlp_train.epochs_per_s": per_s(["flexfit.mlp_train"], "epochs"),
        "scm.population_regression.calls": len(by["scm.population_regression"]) / n,
        "scm.sample.rows_per_s": per_s(["scm.sample"], "rows"),
        "graph.d_separated.calls": (len(by["graph.d_separated.reachable"])
                                    + len(by["graph.d_separated.moral"])) / n,
        "graph.minimal_backdoor_sets.subsets_tested": subsets / n,
        "graph.minimal_backdoor_sets.valid_frac":
            sum(attr(["graph.minimal_backdoor_sets"], "valid")) / subsets
            if subsets else 0.0,
        "experiments.write_run.bytes": sum(attr(["experiments.write_run"], "bytes")) / n,
        "trace.overhead_frac": statistics.median(timed) / statistics.median(plain) - 1.0,
        "trace.attributed_frac": 1.0 - sum(r.self_s for r in roots)
        / sum(r.duration for r in roots),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".s"):
            out[name] = self_s(name[:-2]) / n
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out


def parse_args(spec, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(spec, argv)
    scmlab, workloads = import_program()
    import_s = time.perf_counter() - T0

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work = OUT / run_id
    work.mkdir(parents=True)
    try:
        builds, digests = [], []
        for _ in range(SETUP_BUILDS):
            t = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, work)
            builds.append(time.perf_counter() - t)
            digests.append(wl.input_digest())
        setup = import_s + statistics.median(builds)
        checks = workloads.Checks()
        checks.check(len(set(digests)) == 1,
                     "repeated input builds gave different inputs")
        wl.prepare()
        plain, cpu, timed, roots, tracer = run_passes(
            wl, checks, work, args.seconds, bool(args.trace), run_id)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not plain or (args.trace and not timed):
        raise SystemExit("perfbench: no pass completed: " + "; ".join(checks.messages))

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "run_id": run_id, "host": host_info(scmlab),
            "input_digest": digests[0],
            "report_digests": wl.report_digests, "passes": len(plain),
            "wall_s_samples": plain, "traced_wall_s_samples": timed,
            "import_s": import_s, "build_s_samples": builds,
            "failed_checks": checks.messages}
    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        info["trace_file"] = str(trace_file.relative_to(ROOT))
        section = spec["per_layer"]
        values = layer_metrics([m["name"] for m in section], tracer.spans,
                               roots, plain, timed)
    else:
        section = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": setup,
            "cpu_s": statistics.median(cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (checks.attempted - checks.failed) / checks.attempted,
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
