"""Every exported name resolves, and retired names stay gone."""

import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

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
           "_factor", "_deposit_arc", "_fit_grid", "OpCounter", "_trsm")

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


_SPHERICAL_16 = """\
problem.preset = spherical
problem.size = 16
problem.angles = 4
problem.circles = 5
problem.train_count = 9
stop.max_iter = 4
seed = 5
"""

_GUARDED = ("scipy.optimize", "scipy.io", "scipy.linalg")


def test_import_and_run_leave_out_optimize_io_and_linalg(tmp_path):
    """Importing the package and its CLI loads none of scipy.optimize (no
    command uses it), scipy.io (imported on first use by the Matrix Market
    helpers) and scipy.linalg (selection runs on numpy's eigh), and a tiny
    in-process spherical run loads none of them either; a fresh interpreter
    sees the import graph alone."""
    cfg = tmp_path / "sph16.cfg"
    cfg.write_text(_SPHERICAL_16)
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(mixkry.__file__).parents[1])!r})\n"
            "import mixkry, mixkry.cli\n"
            f"guarded = {_GUARDED!r}\n"
            "print(' '.join(m for m in guarded if m in sys.modules))\n"
            f"rc = mixkry.cli.main(['run', {str(cfg)!r}, '--out', "
            f"{str(tmp_path / 'out')!r}])\n"
            "print(rc, ' '.join(m for m in guarded if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    lines = out.stdout.splitlines()
    # the run's own stdout line sits between the two probes
    assert lines[0] == "" and lines[-1].split() == ["0"]
    # the probe itself can see the modules it names
    probe = code.replace("import mixkry, mixkry.cli",
                         "import mixkry, mixkry.cli, scipy.io, scipy.linalg")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[0].split() == ["scipy.io", "scipy.linalg"]


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
