"""The registered experiments' reports, byte for byte, against the sha256
digests committed in ``report_digests.json``.

Criterion 10 checks that two runs of one commit write the same bytes; this
check notices when a change moves a report's digits across commits. A
change that moves them on purpose rewrites the manifest in the same diff:

    PYTHONPATH=src python tests/test_report_digests.py

runs the eight experiments at their registered defaults and writes the
manifest, with the numpy, scipy and BLAS versions it was made with, the
OpenBLAS kernel numpy's BLAS picked for this CPU and numpy's enabled
dispatch targets. Float results can differ in their last digits on another
build of those, on another kernel or at another dispatch level, so there
the comparison is skipped, with the versions named.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from scmlab.experiments import build_config, list_experiments, run

MANIFEST = Path(__file__).with_name("report_digests.json")


def blas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS picked at run time, read
    from the library with ctypes; "unknown" for another BLAS."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            break
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def build_versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_core": blas_core(),
            "npy_dispatch": [t for t in __cpu_dispatch__
                             if __cpu_features__[t]]}


def file_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def run_registered(name: str, out_dir: Path) -> dict:
    run(build_config(name, out_dir=str(out_dir)))
    return file_digests(out_dir)


@pytest.fixture(scope="module")
def manifest():
    with open(MANIFEST, "r", encoding="utf-8") as fh:
        committed = json.load(fh)
    if committed["made_with"] != build_versions():
        pytest.skip(f"digests were made with {committed['made_with']}, "
                    f"this build is {build_versions()}")
    return committed["reports"]


def test_manifest_covers_every_registered_experiment():
    with open(MANIFEST, "r", encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    assert sorted(reports) == [name for name, _ in list_experiments()]


@pytest.mark.parametrize(
    "name", [name for name, _ in list_experiments()
             if name not in ("fig5_sweep", "fig3_fit")])
def test_registered_report_matches_committed_digests(name, manifest,
                                                     tmp_path):
    assert run_registered(name, tmp_path) == manifest[name]


def test_fig5_report_matches_committed_digests(manifest, fig5_report):
    assert file_digests(fig5_report) == manifest["fig5_sweep"]


def test_fig3_report_matches_committed_digests(manifest, fig3_report):
    assert file_digests(fig3_report[0]) == manifest["fig3_fit"]


# reports that no BLAS or LAPACK call reaches (fig5's one, np.corrcoef on
# ranks, is exact), with the overrides they run at: their bytes must not
# depend on the OpenBLAS kernel, so they are compared on every host (fig5
# at a small config, to keep the test cheap)
KERNEL_FREE = {
    "table2": {}, "table3": {}, "fig2_panels": {}, "overfit_demo": {},
    "backdoor_report": {},
    "fig5_sweep": {"n": 2000, "q_grid": (0.0, 1.0), "gbt_trees": 20,
                   "eval_rows": 8, "background_rows": 16},
}
_RUN_IN_CHILD = """
import sys
from pathlib import Path
from test_report_digests import blas_core, run_kernel_free
run_kernel_free(Path(sys.argv[1]))
print(blas_core())
"""


def run_kernel_free(out_dir: Path) -> None:
    for name, overrides in KERNEL_FREE.items():
        run(build_config(name, out_dir=str(out_dir / name),
                         overrides=overrides))


def test_light_reports_do_not_depend_on_the_openblas_kernel(tmp_path,
                                                            src_env):
    # Nehalem's kernel has no FMA, so any BLAS call moves last bits
    path = os.pathsep.join([str(Path(__file__).parent), src_env["PYTHONPATH"]])
    env = {**src_env, "OPENBLAS_CORETYPE": "Nehalem", "PYTHONPATH": path}
    with subprocess.Popen(
            [sys.executable, "-c", _RUN_IN_CHILD, str(tmp_path / "nehalem")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as child:
        try:         # the child runs while this process runs the default
            run_kernel_free(tmp_path / "default")
            out, err = child.communicate(timeout=120)
        finally:
            child.kill()
    assert child.returncode == 0, err
    assert out.strip() in ("Nehalem", "unknown")
    for name in KERNEL_FREE:
        here, there = tmp_path / "default" / name, tmp_path / "nehalem" / name
        files = sorted(p.name for p in here.iterdir())
        assert sorted(p.name for p in there.iterdir()) == files
        for f in files:
            assert (there / f).read_bytes() == (here / f).read_bytes(), \
                f"{name}/{f} moves under the Nehalem kernel"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports = {name: run_registered(name, Path(tmp) / name)
                   for name, _ in list_experiments()}
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump({"made_with": build_versions(), "reports": reports}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
