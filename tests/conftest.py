"""Shared helpers: cached reference optima for problems without closed forms,
and a private dataset cache for every test."""

from __future__ import annotations

import json
import os

import pytest

from restartopt import ProblemInstance, reference_solve

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REFERENCE_PATH = os.path.join(FIXTURES, "reference_optima.json")

# Reference optima come from long proximal-gradient runs driven to 1e-12
# on the gradient-mapping norm. They are computed once, stored on disk,
# and tests never assert tighter than the stored tolerance.
REFERENCE_TOL = 1e-9


@pytest.fixture(autouse=True)
def private_dataset_cache(tmp_path_factory, monkeypatch):
    """Point the dataset cache at a fresh directory: no test reads or writes the user's."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))


def reference_optimum(key: str, instance: ProblemInstance, L0: float = 1.0) -> tuple[float, float]:
    """Return (f_star, tolerance) for a keyed instance, computing on first use."""
    refs: dict = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            refs = json.load(fh)
    if key in refs:
        return refs[key]["f_star"], refs[key]["tol"]
    _, f_star, iterations = reference_solve(
        instance.oracle, instance.x0, L0=L0, max_iters=10**6, grad_map_tol=1e-12
    )
    refs[key] = {
        "f_star": f_star,
        "tol": REFERENCE_TOL,
        "iterations": iterations,
        "grad_map_tol": 1e-12,
        "instance": instance.name,
    }
    os.makedirs(FIXTURES, exist_ok=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return f_star, REFERENCE_TOL
