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
from mixkry.learn import FitResult, hutchinson_objective, learn_matern
from mixkry.mixgk import (MixGKState, _gs_append, mixgk_init,
                          qr_append_update, qr_recompute)
from mixkry.operators import (Grid, KernelOperator, LinearOperator, PriorSpec,
                              SampleFactor)
from mixkry.params import RunRecord, SearchConfig
from mixkry.projected import PenaltyBasis
from mixkry.testproblems import TomoProblem, write_pgm

MODULES = ("operators", "mixgk", "projected", "params", "learn",
           "testproblems", "cli")

RETIRED = ("mixed_apply", "mixed_operator", "solve_map_dense",
           "optimal_objective", "MixGKOptions",
           "grid_distances", "_distance_matrix", "DENSE_KERNEL_CAP",
           "CapacityError", "aslinop", "residual_and_trace",
           "_LOG10_LAMBDA_BOUNDS", "solve_projected", "projected_residual",
           "_factor", "_deposit_arc", "_fit_grid", "OpCounter", "_trsm",
           "ProjectedSystem", "build_projected", "solve_column",
           "TrainingSet", "upre_objective", "gcv_objective",
           "wgcv_objective", "_score_cell", "_objective_factory",
           "DegenerateTraceError", "_table_mismatch", "StopDecision",
           "read_pgm")

RETIRED_ATTRS = (
    (LinearOperator, "to_dense"),
    (LinearOperator, "T"),
    (LinearOperator, "__matmul__"),
    (SearchConfig, "log10_lambda_bounds"),
    (SearchConfig, "refine_evals"),
    (KernelOperator, "apply"),
    (SampleFactor, "apply"),
    (SampleFactor, "operator"),
    (SampleFactor, "dim"),
    (MixGKState, "projection_grams"),
    (MixGKState, "Vk"),
    (Grid, "points"),
    (TomoProblem, "matrix"),
    (PriorSpec, "n"),
)

RETIRED_FIELDS = (
    (Workload, "mask"),
    (Workload, "mean"),
    (Workload, "q1"),
    (Workload, "q2"),
    (Workload, "learned"),
    (TomoProblem, "meta"),
    (FitResult, "seed"),
    (FitResult, "probes"),
    (SearchConfig, "sigma2"),
    (Grid, "spacing"),
    (TomoProblem, "mask"),
    (PenaltyBasis, "G"),
    (RunRecord, "ms"),
)

RETIRED_PARAMS = (
    (qr_append_update, "rank_tol"),
    (qr_recompute, "rank_tol"),
    (_gs_append, "rank_tol"),
    (learn_matern, "probes"),
    (learn_matern, "seed"),
    (mixgk_init, "Rinv"),
    (mixgk_init, "LR"),
    (MixGKState.__init__, "Rinv"),
    (MixGKState.__init__, "LR"),
    (qr_recompute, "Ut"),
    (write_pgm, "lo"),
    (write_pgm, "hi"),
    (hutchinson_objective, "spec"),
    (hutchinson_objective, "grid"),
    (learn_matern, "samples"),
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
    errors = importlib.import_module("mixkry.errors")
    assert not any(hasattr(errors, n) for n in RETIRED)
    for owner, attr in RETIRED_ATTRS:
        assert not hasattr(owner, attr), (owner.__name__, attr)
    # the tally was an instance attribute
    sample = SampleFactor(np.ones((3, 2)), np.zeros(3))
    assert not hasattr(sample, "matvec_count")
    for owner, name in RETIRED_FIELDS:
        assert name not in {f.name for f in dataclasses.fields(owner)}, name
    for fn, name in RETIRED_PARAMS:
        assert name not in inspect.signature(fn).parameters, fn.__name__
    # the estimator's optional keyword ``kernel`` is now its one route
    params = inspect.signature(hutchinson_objective).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("kernel", "sample", "probes")]
    # the caller always knows the raw column's norm
    norm = inspect.signature(qr_append_update).parameters["input_norm"]
    assert norm.default is inspect.Parameter.empty


_SPHERICAL_16 = """\
problem.preset = spherical
problem.size = 16
problem.angles = 4
problem.circles = 5
problem.train_count = 9
stop.max_iter = 4
seed = 5
"""

_GUARDED = ("scipy.optimize", "scipy.io", "scipy.linalg", "scipy.sparse",
            "scipy.special")


def test_import_and_commands_load_no_scipy(tmp_path):
    """Importing the package and its CLI loads no scipy module at all, and
    neither do a tiny spherical run, a compare and a fit whose nu search
    reaches general nu (the Bessel route); only the Matrix Market I/O of
    ``gen`` and the file preset imports scipy.  A fresh interpreter sees the
    import graph alone."""
    cfg = tmp_path / "sph16.cfg"
    cfg.write_text(_SPHERICAL_16)
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(mixkry.__file__).parents[1])!r})\n"
            "import mixkry, mixkry.cli\n"
            "def loaded():\n"
            "    return ' '.join(sorted(m for m in sys.modules\n"
            "                           if m == 'scipy' or m.startswith('scipy.')))\n"
            "print('import', loaded())\n"
            "for command in ('run', 'compare', 'fit'):\n"
            f"    rc = mixkry.cli.main([command, {str(cfg)!r}, '--out', "
            f"{str(tmp_path)!r} + '/' + command])\n"
            "    print(command, rc, loaded())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    probes = [line.split() for line in out.stdout.splitlines()
              if line.split()[0] in ("import", "run", "compare", "fit")]
    assert probes == [["import"], ["run", "0"], ["compare", "0"],
                      ["fit", "0"]]
    # the fit reached a nu with no closed form
    fit = (tmp_path / "fit" / "summary.txt").read_text()
    nu = float(fit.split("prior.q1.nu=")[1].split()[0])
    assert nu not in (0.5, 1.5, 2.5)
    # the probe itself can see the modules it names
    probe = code.replace("import mixkry, mixkry.cli",
                         "import mixkry, mixkry.cli, "
                         + ", ".join(_GUARDED))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    seen = out.stdout.splitlines()[0].split()
    assert seen[0] == "import" and set(_GUARDED) <= set(seen)


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
