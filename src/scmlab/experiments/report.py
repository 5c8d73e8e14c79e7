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
import math
import os

import numpy as np

from .._version import __version__
from ..errors import IoError, NonFiniteValueError


def _plain(obj, key):
    """``obj`` with numpy scalars and arrays turned into plain Python, so
    json sees pure Python.  The same walk raises NonFiniteValueError at
    the first NaN or infinity, naming its key path below ``key`` (such as
    ``results.grid[1]``)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v, f"{key}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, f"{key}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist(), key)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if not math.isfinite(obj):
            raise NonFiniteValueError(f"{key} is not finite; report.json "
                                      f"holds finite numbers only")
    return obj


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
    config = _plain({"seed": int(seed), "n": int(n), **params}, "config")
    results = _plain(results, "results")
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
        header = {"experiment": name, "version": __version__,
                  "seed": int(seed), "n": int(n), "config": config}
        report = {**header, "results": results, "tables": table_files}
        with open(os.path.join(out_dir, "report.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        files = sorted(["report.json", *table_files, "meta.json"])
        meta = {**header, "files": files}
        with open(os.path.join(out_dir, "meta.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
        return files
    except OSError as exc:
        raise IoError(f"cannot write run output under {out_dir}: {exc}") from exc
