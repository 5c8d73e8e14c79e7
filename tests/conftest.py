import os
import time
from pathlib import Path

import pytest

from scmlab.experiments import build_config, run


@pytest.fixture(scope="session")
def fig5_report(tmp_path_factory):
    """The full nonlinearity sweep at its registered defaults (the long
    run); shared by every test that reads it."""
    out = tmp_path_factory.mktemp("fig5_full")
    cfg = build_config("fig5_sweep", out_dir=str(out))
    run(cfg)
    return out


@pytest.fixture(scope="session")
def fig3_report(tmp_path_factory):
    """The MLP-versus-linear fit at its registered defaults, run once per
    session: the report directory and the run's wall seconds."""
    out = tmp_path_factory.mktemp("fig3_full")
    start = time.perf_counter()
    run(build_config("fig3_fit", out_dir=str(out)))
    return out, time.perf_counter() - start


@pytest.fixture
def src_env():
    """The environment for a child Python process, with this repository's
    ``src`` first on its ``PYTHONPATH``: pyproject's ``pythonpath`` setting
    reaches only pytest's own process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return env
