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
