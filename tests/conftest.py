import os
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
