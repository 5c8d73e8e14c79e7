"""Registered, seed-deterministic experiments and their configuration.

Each experiment owns a default seed, sample size, and parameter set; a run
writes ``report.json``, one CSV per table, and ``meta.json`` into its output
directory, and rerunning with the same configuration reproduces the files
byte for byte.  Parameters may be overridden from a plain ``key = value``
config file.  An :class:`ExperimentConfig` checks itself when it is
built: each value takes its default's type and must lie in the range
registered next to the default, and its ``params`` are read-only.
"""

from .registry import (_REGISTRY, ExperimentConfig, build_config,
                       list_experiments, parse_config_file, run)

__all__ = ["ExperimentConfig", "build_config", "list_experiments",
           "parse_config_file", "run"]
