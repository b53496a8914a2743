"""Every exported name resolves, and retired names stay gone."""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import mixkry
from mixkry.cli import Workload
from mixkry.learn import FitResult
from mixkry.mixgk import _gs_append, qr_append_update, qr_recompute
from mixkry.operators import KernelOperator, LinearOperator, SampleFactor
from mixkry.params import SearchConfig
from mixkry.projected import ProjectedSystem
from mixkry.testproblems import TomoProblem

MODULES = ("operators", "mixgk", "projected", "params", "learn",
           "testproblems", "cli")

RETIRED = ("mixed_apply", "mixed_operator", "solve_map_dense",
           "optimal_objective", "MixGKOptions",
           "grid_distances", "_distance_matrix", "DENSE_KERNEL_CAP",
           "CapacityError", "aslinop", "residual_and_trace",
           "_LOG10_LAMBDA_BOUNDS", "solve_projected", "projected_residual",
           "_factor")

RETIRED_ATTRS = (
    (LinearOperator, "to_dense"),
    (LinearOperator, "T"),
    (LinearOperator, "__matmul__"),
    (ProjectedSystem, "rows"),
    (ProjectedSystem, "penalty"),
    (SearchConfig, "log10_lambda_bounds"),
    (SearchConfig, "refine_evals"),
    (KernelOperator, "apply"),
    (SampleFactor, "apply"),
    (SampleFactor, "operator"),
    (SampleFactor, "dim"),
)

RETIRED_FIELDS = (
    (Workload, "mask"),
    (TomoProblem, "meta"),
    (FitResult, "seed"),
)

RETIRED_PARAMS = (
    (qr_append_update, "rank_tol"),
    (qr_recompute, "rank_tol"),
    (_gs_append, "rank_tol"),
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"mixkry.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_retired_names_not_exported():
    for name in MODULES:
        mod = importlib.import_module(f"mixkry.{name}")
        assert not set(RETIRED) & set(mod.__all__), name
        assert not any(hasattr(mod, n) for n in RETIRED), name
    assert not any(hasattr(mixkry, n) for n in RETIRED)
    assert not hasattr(importlib.import_module("mixkry.errors"),
                       "CapacityError")
    for owner, attr in RETIRED_ATTRS:
        assert not hasattr(owner, attr), (owner.__name__, attr)
    # the tally was an instance attribute
    sample = SampleFactor(np.ones((3, 2)), np.zeros(3))
    assert not hasattr(sample, "matvec_count")
    for owner, name in RETIRED_FIELDS:
        assert name not in {f.name for f in dataclasses.fields(owner)}, name
    for fn, name in RETIRED_PARAMS:
        assert name not in inspect.signature(fn).parameters, fn.__name__


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_operators_apply_only_through_matvec():
    """Every operator kind reaches its action through the base class's
    checked matvec/rmatvec: no subclass overrides them."""
    subs = list(_subclasses(LinearOperator))
    assert {KernelOperator, SampleFactor} <= set(subs)
    for sub in subs:
        assert "matvec" not in vars(sub) and "rmatvec" not in vars(sub), sub
