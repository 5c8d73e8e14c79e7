"""Deterministic report emission.

Every run writes the same three kinds of files into its output directory:
``report.json`` (results + config echo), one ``<table>.csv`` per table,
and ``meta.json`` (file inventory + config echo). Bytes depend only on the
experiment inputs: no timestamps, floats rendered by shortest round-trip
repr, and every sequence derived from a set is sorted before writing.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .._version import __version__
from ..errors import IoError, NonFiniteValueError


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json sees pure Python."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _non_finite_key(obj, key):
    """The key path of the first NaN or infinity in a plain ``obj``, or
    None."""
    if isinstance(obj, dict):
        items = [(f"{key}.{k}", v) for k, v in obj.items()]
    elif isinstance(obj, list):
        items = [(f"{key}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return key if isinstance(obj, float) and not np.isfinite(obj) else None
    for k, v in items:
        found = _non_finite_key(v, k)
        if found is not None:
            return found
    return None


def format_cell(x) -> str:
    """CSV cell text: shortest round-trip repr for floats, plain str else."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_run(out_dir: str, *, name: str, seed: int, n: int, params: dict,
              results: dict, tables: dict) -> list:
    """Write report.json, the CSV tables, and meta.json; returns the file
    names written (sorted).

    A NaN or infinity in ``params`` or ``results`` raises
    NonFiniteValueError naming its key before any file is written, so
    report.json is always strict JSON.
    """
    config_echo = {"seed": int(seed), "n": int(n), **_plain(params)}
    results = _plain(results)
    for key, obj in (("config", config_echo), ("results", results)):
        bad = _non_finite_key(obj, key)
        if bad is not None:
            raise NonFiniteValueError(f"{bad} is not finite; report.json "
                                      f"holds finite numbers only")
    try:
        os.makedirs(out_dir, exist_ok=True)
        table_files = []
        for stem in tables:
            columns, rows = tables[stem]
            fname = f"{stem}.csv"
            table_files.append(fname)
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8",
                      newline="\n") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(columns)
                for row in rows:
                    w.writerow([format_cell(c) for c in row])
        report = {
            "experiment": name,
            "version": __version__,
            "seed": int(seed),
            "n": int(n),
            "config": config_echo,
            "results": results,
            "tables": table_files,
        }
        with open(os.path.join(out_dir, "report.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        files = sorted(["report.json", *table_files, "meta.json"])
        meta = {
            "experiment": name,
            "version": __version__,
            "seed": int(seed),
            "n": int(n),
            "config": config_echo,
            "files": files,
        }
        with open(os.path.join(out_dir, "meta.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
        return files
    except OSError as exc:
        raise IoError(f"cannot write run output under {out_dir}: {exc}") from exc
