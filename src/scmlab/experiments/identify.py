"""Adjustment-set identification report for the confounded-chain graph."""

from __future__ import annotations

from ..graph import Dag, minimal_backdoor_sets
from .generators import confounded_chain_model


def run_backdoor_report(cfg):
    """Enumerate backdoor paths and valid/minimal adjustment sets for the
    effect of x0 on y in the confounded-chain model."""
    model = confounded_chain_model()
    graph = Dag.from_structural_model(model)
    analysis = minimal_backdoor_sets(graph, "x0", "y")

    path_rows = [[" -> ".join(p), len(p)] for p in analysis.backdoor_paths]
    set_rows = []
    minimal = {tuple(s) for s in analysis.minimal_sets}
    for s in analysis.valid_sets:
        set_rows.append(["{" + ", ".join(s) + "}", len(s),
                         bool(tuple(s) in minimal)])
    results = {
        "cause": "x0",
        "outcome": "y",
        "identifiable": analysis.identifiable,
        "n_backdoor_paths": len(analysis.backdoor_paths),
        "n_valid_sets": len(analysis.valid_sets),
        "minimal_sets": [list(s) for s in analysis.minimal_sets],
    }
    return results, {
        "paths": (["path", "length"], path_rows),
        "adjustment_sets": (["set", "size", "minimal"], set_rows),
    }
