"""Config parsing, the batch driver, and its on-disk artifacts."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixkry.params
from helpers import read_pgm
from mixkry import cli
from mixkry.errors import ConfigError, DefinitenessError, SearchError
from mixkry.learn import frobenius_mismatch
from mixkry.operators import (FAMILY_PARAMS, CSRMatrix, KernelSpec,
                              LinearOperator, kernel_table, load_matrix,
                              noise_whitener, save_matrix, save_vector)
from mixkry.params import SearchConfig, StoppingPolicy

SPHERICAL_TINY = """\
# smallest spherical instance the geometry allows
problem.preset = spherical
problem.size = 16
problem.angles = 4
problem.circles = 5
problem.train_count = 9

stop.max_iter = 6
select.grid_gamma = 5
select.grid_lambda = 7
seed = 5
"""


# the acceptance configs' spherical-32 instance (tools/artifact_digests.py)
SPHERICAL_32 = """\
problem.preset = spherical
problem.size = 32
problem.train_count = 49
noise.level = 0.03
seed = 101
"""


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


# -- config parsing -------------------------------------------------------------


def test_read_config_comments_and_blanks(tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg",
                    "# heading\n\nseed = 3\n  stop.window=4  \n")
    pairs = cli.read_config(cfg)
    assert pairs == {"seed": "3", "stop.window": "4"}


def test_read_config_rejects_duplicates_and_garbage(tmp_path):
    dup = write_cfg(tmp_path / "dup.cfg", "seed=1\nseed=2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        cli.read_config(dup)
    bad = write_cfg(tmp_path / "bad.cfg", "just some words\n")
    with pytest.raises(ConfigError, match="key=value"):
        cli.read_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        cli.read_config(tmp_path / "missing.cfg")


def test_resolve_config_unknown_key_names_it():
    with pytest.raises(ConfigError, match="problem.sizes"):
        cli.resolve_config({"problem.sizes": "32"})


def test_resolve_config_checks_choices_and_types():
    with pytest.raises(ConfigError, match="select.method"):
        cli.resolve_config({"select.method": "lcurve"})
    with pytest.raises(ConfigError, match="cannot parse"):
        cli.resolve_config({"problem.size": "thirty"})
    with pytest.raises(ConfigError, match="problem.preset"):
        cli.resolve_config({"problem.preset": "cube"})


def test_resolve_config_fills_preset_defaults():
    cfg = cli.resolve_config({"problem.preset": "spherical"})
    assert cfg["problem.size"] == 32
    assert cfg["noise.level"] == 0.03
    assert cfg["prior.mean"] == "train"
    assert cfg["select.method"] == "wgcv"
    cw = cli.resolve_config({"problem.preset": "crosswell"})
    assert cw["problem.size"] == 64
    assert cw["prior.mean"] == "zero"
    assert cw["prior.q2.source"] == "kernel"


# -- exit codes -------------------------------------------------------------------


def test_exit_code_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", "problem.preset=cube\n")
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "problem.preset" in capsys.readouterr().err


def test_exit_code_missing_out(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    rc = cli.main(["run", cfg])
    assert rc == 2
    assert "out" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo, hi", [("3", "-2"), ("2", "2"), ("nan", "2"),
                                    ("-6", "inf"), ("-6", "300"),
                                    ("-300", "2")])
def test_exit_code_bad_lambda_range(tmp_path, capsys, lo, hi):
    """A reversed, empty, non-finite or out-of-domain lambda range is a
    config error that names the range, not a search over a reversed grid,
    an overflow inside the cell evaluator (log10 lambda = 300) or an
    unregularized solve at lambda = 1e-300."""
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    rc = cli.main(["run", cfg, f"select.log10_lambda_lo={lo}",
                   f"select.log10_lambda_hi={hi}",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "log10_lambda" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["wgcv", "upre", "optimal"])
def test_lambda_range_at_its_domain_ends_runs_clean(tmp_path, method):
    """log10 lambda in [-150, 150] keeps lambda^2 a normal float: a search
    over the whole domain runs without a floating-point warning."""
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    rc = cli.main(["run", cfg, f"select.method={method}",
                   "select.log10_lambda_lo=-150",
                   "select.log10_lambda_hi=150",
                   "--out", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.parametrize("override", ["select.omega=nan", "select.omega=inf",
                                      "select.omega=0"])
def test_exit_code_bad_omega_sigma2(run_case, override):
    """A non-finite or non-positive select.omega is a config error (exit 2)
    that names the key, under the method that reads it: not a search that
    finds no finite objective (exit 4) or one that scores meaningless
    values (exit 0)."""
    rc, named, assembled = run_case("spherical", "run", override,
                                    "select.method=wgcv")
    assert rc == 2 and "select.omega" in named and not assembled


@pytest.mark.parametrize("method", ["gcv", "upre", "optimal"])
def test_omega_not_read_by_other_methods(run_case, method):
    """Only weighted GCV reads select.omega: set under any other method it
    is a key the config does not read (exit 2 naming it), not a silent
    no-op."""
    rc, named, assembled = run_case("spherical", "run", "select.omega=0.5",
                                    f"select.method={method}")
    assert rc == 2 and "select.omega" in named and not assembled


@pytest.mark.parametrize("command, override", [
    ("run", "compare.variants=mix"), ("run", "fit.probes=3"),
    ("compare", "fit.repeats=3"), ("fit", "select.method=gcv"),
    ("fit", "select.omega=0.5"), ("fit", "stop.max_iter=3"),
    ("gen", "select.gamma=0.5"), ("gen", "compare.variants=q1"),
    ("gen", "prior.q1.ell=0.3"), ("gen", "prior.q1.kernel=sinc"),
    ("gen", "file.mean=m.mtx"), ("fit", "prior.q1.ell=0.3"),
    ("fit", "prior.q1.nu=2"), ("fit", "prior.q1.learn=true"),
    ("fit", "prior.mean=zero"), ("fit", "prior.q2.source=kernel"),
    ("fit", "file.mean=m.mtx")])
def test_override_the_command_does_not_read_exits_2(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    override):
    """A key given as an override must be read by the command: one that
    the command never reads exits 2 naming the key and the command, before
    any assembly.  gen builds no prior, and fit reads only Q1's kernel
    family and exponent."""
    monkeypatch.setattr(cli, "assemble_workload", None)
    key = override.split("=")[0]
    cfg = write_cfg(tmp_path / "s.cfg", SPHERICAL_TINY)
    rc = cli.main([command, cfg, override, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"config key {key} is not read by mixkry {command}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["run", "gen"])
def test_config_file_keys_serve_every_command(tmp_path, command):
    """In the config file, a key that only another command reads is
    allowed, so one file serves every command."""
    cfg = write_cfg(tmp_path / "s.cfg", SPHERICAL_TINY
                    + "compare.variants = mix\nfit.probes = 3\n")
    assert cli.main([command, cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command, prior", [
    ("gen", "prior.q1.kernel = squared-exponential\nprior.q1.ell = 1e50\n"),
    ("fit", "prior.q2.source = kernel\n"
     "prior.q2.kernel = squared-exponential\nprior.q2.ell = 1e50\n")],
    ids=["gen", "fit"])
def test_gen_and_fit_build_no_prior_they_do_not_read(tmp_path, command,
                                                      prior):
    """gen builds no prior and fit no Q2, so a prior in the config file
    that no solve could use (a kernel that is 1 at every offset) does not
    stop them; run on the same file exits 2 naming the kernel's key."""
    cfg = write_cfg(tmp_path / "s.cfg", SPHERICAL_TINY + prior)
    assert cli.main([command, cfg, "--out", str(tmp_path / "out")]) == 0
    assert cli.main(["run", cfg, "--out", str(tmp_path / "run")]) == 2


def test_sigma2_is_an_unknown_key(tmp_path, capsys):
    """UPRE scores in whitened units, so no key carries a noise variance
    for it: select.sigma2 is an unknown key (exit 2)."""
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    rc = cli.main(["run", cfg, "select.method=upre", "select.sigma2=1",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown config key 'select.sigma2'" in capsys.readouterr().err


def preset_cfg(tmp_path, preset):
    """A config for a small, quick run of each preset."""
    if preset == "spherical":
        return write_cfg(tmp_path / "s.cfg", SPHERICAL_TINY)
    if preset == "crosswell":
        return write_cfg(tmp_path / "c.cfg", "problem.preset = crosswell\n"
                         "problem.size = 16\nstop.max_iter = 2\n")
    rng = np.random.default_rng(0)
    save_matrix(tmp_path / "A.mtx", rng.standard_normal((6, 4)))
    save_vector(tmp_path / "b.mtx", rng.standard_normal(6))
    return write_cfg(tmp_path / "f.cfg", (
        "problem.preset = file\n"
        f"file.a = {tmp_path / 'A.mtx'}\n"
        f"file.b = {tmp_path / 'b.mtx'}\n"
        "stop.max_iter = 2\n"
    ))


@pytest.fixture
def run_case(tmp_path, capsys, monkeypatch):
    """``run_case(preset, command, *overrides)`` runs one command in process
    on ``preset_cfg(preset)`` with warnings raised as errors, and with
    ``--out`` unless an override sets ``out``.  It returns the exit code
    (or the repr of the exception that escaped ``cli.main``), the set of
    config keys that stderr names, and whether ``assemble_workload`` was
    called."""
    assembled, cfgs = [], {}
    assemble = cli.assemble_workload

    def recording(cfg):
        assembled.append(cfg)
        return assemble(cfg)

    monkeypatch.setattr(cli, "assemble_workload", recording)
    monkeypatch.chdir(tmp_path)  # a relative file.* path resolves here

    def run(preset, command, *overrides):
        if preset not in cfgs:
            cfgs[preset] = preset_cfg(tmp_path, preset)
        assembled.clear()
        out = [] if any(o.startswith("out=") for o in overrides) else [
            "--out", str(tmp_path / "out")]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = cli.main([command, cfgs[preset], *overrides, *out])
        except Exception as exc:  # a traceback, or an escaped warning
            rc = repr(exc)
        err = capsys.readouterr().err
        named = {key for key in cli._KEYS
                 if re.search(rf"(?<![\w.]){re.escape(key)}(?!\w|\.\w)", err)}
        return rc, named, bool(assembled)

    return run


def in_domain(key, text):
    """Whether ``text`` casts to a value in ``key``'s domain as ``_KEYS``
    states it; a path has no domain."""
    caster, _, domain = cli._KEYS[key]
    try:
        value = caster(text)
    except ValueError:
        return False
    if domain is None:
        return True
    if caster in (int, float):
        return domain[0] <= value <= domain[1]
    items = value if isinstance(value, tuple) else (value,)
    return len(set(items)) == len(items) and set(items) <= set(domain)


PRESETS = ("spherical", "crosswell", "file")
HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "", "abc")


@pytest.mark.parametrize("key", list(cli._KEYS))
def test_config_boundary_sweep(run_case, key):
    """Every key, set to each hostile value under each preset: ``run``,
    plus ``compare`` for ``compare.variants`` and ``fit`` (spherical) for
    ``fit.*``.  Each case exits 0, or exits 2 with the key named in the
    error; nothing escapes as a traceback or a warning.  A value outside
    the key's domain exits 2 before any assembly.  A missing ``file.*``
    path has no domain: it is found when it is read.  1,185 cases in all.
    """
    values = HOSTILE + (("mix,mix",) if key == "compare.variants" else ())
    runs = [(preset, "run") for preset in PRESETS]
    if key == "compare.variants":
        runs += [(preset, "compare") for preset in PRESETS]
    if key.startswith("fit."):
        runs.append(("spherical", "fit"))
    breaches = []
    for preset, command in runs:
        for value in values:
            rc, named, assembled = run_case(preset, command, f"{key}={value}")
            if in_domain(key, value):
                kept = rc == 0 or (rc == 2 and key in named)
            else:
                kept = rc == 2 and key in named and not assembled
            if not kept:
                breaches.append((preset, command, value, rc, named,
                                 assembled))
    assert breaches == []


def domain_ends():
    """(key, end, preset, overrides) for each float key at both ends of its
    domain, in each config that reads it: a kernel parameter under every
    family that reads it, Q2's through prior.q2.source=kernel."""
    for key, (caster, _, domain) in cli._KEYS.items():
        if caster is not float:
            continue
        prior, _, name = key.rpartition(".")
        if prior in ("prior.q1", "prior.q2"):
            source = ("prior.q2.source=kernel",) if prior == "prior.q2" else ()
            configs = [("spherical", (f"{prior}.kernel={family}", *source))
                       for family, reads in FAMILY_PARAMS.items()
                       if name in reads]
        elif key == "noise.sigma":
            configs = [("file", ())]
        elif key == "noise.level":
            configs = [("spherical", ()), ("crosswell", ())]
        else:
            configs = [(preset, ()) for preset in PRESETS]
        for end in domain:
            for preset, overrides in configs:
                yield key, end, preset, overrides


@pytest.mark.parametrize("key, end, preset, overrides", list(domain_ends()))
def test_float_key_domain_ends_run_clean(run_case, key, end, preset,
                                         overrides):
    """Each end of a float key's domain runs without a traceback or a
    floating-point warning: exit 0, or exit 2 where the library rejects
    the problem it defines."""
    rc, _, _ = run_case(preset, "run", f"{key}={end!r}", *overrides)
    assert rc in (0, 2)


@pytest.mark.parametrize("override", [
    "noise.sigma=nan", "noise.sigma=inf", "noise.sigma=-1", "noise.sigma=0",
    "noise.level=nan", "noise.level=inf", "noise.level=-0.1",
    "noise.level=0"])
def test_exit_code_bad_noise(run_case, override):
    """A non-finite or non-positive noise.sigma (file preset) or noise.level
    (spherical preset) is a config error (exit 2) that names the key: not
    an unwhitened run that records the bad value (exit 0), and not a
    failure reported against b or sigma2."""
    key = override.split("=")[0]
    preset = "file" if key == "noise.sigma" else "spherical"
    rc, named, assembled = run_case(preset, "run", override)
    assert rc == 2 and key in named and not assembled


@pytest.mark.parametrize("preset, override", [
    ("spherical", "noise.sigma=50"), ("file", "noise.level=0.05"),
    ("crosswell", "problem.angles=8"), ("spherical", "problem.sources=3"),
    ("spherical", "file.a=A.mtx"), ("file", "problem.size=16")])
def test_exit_code_key_the_preset_does_not_read(tmp_path, capsys, preset,
                                                override):
    """A key that the chosen preset never reads is a config error (exit 2)
    that names the key and the preset, not a run that ignores it."""
    key = override.split("=")[0]
    cfg = preset_cfg(tmp_path, preset)
    rc = cli.main(["run", cfg, override, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err
    assert f"problem.preset={preset}" in err


@pytest.mark.parametrize("overrides, key", [
    (("prior.q1.kernel=squared-exponential", "prior.q1.nu=-5"),
     "prior.q1.nu"),
    (("prior.q1.kernel=squared-exponential", "prior.q1.gamma_exp=-3"),
     "prior.q1.gamma_exp"),
    (("prior.q1.gamma_exp=2",), "prior.q1.gamma_exp"),
    (("prior.q1.kernel=sinc", "prior.q1.ell=0.1"), "prior.q1.ell"),
    (("prior.q1.kernel=identity", "prior.q1.nu=2"), "prior.q1.nu"),
    (("prior.q2.source=kernel", "prior.q2.kernel=gamma-exponential",
      "prior.q2.nu=3"), "prior.q2.nu"),
    (("prior.q1.learn=true", "prior.q1.ell=0.3"), "prior.q1.ell"),
    (("prior.q2.kernel=sinc",), "prior.q2.kernel"),
    (("prior.q2.ell=-1",), "prior.q2.ell")])
def test_exit_code_kernel_key_the_family_does_not_read(tmp_path, capsys,
                                                       overrides, key):
    """A kernel key set where it is not read is a config error (exit 2)
    that names the key, whatever its value: a parameter of a family that
    ignores it, any Q2 kernel key while Q2 comes from the samples (the
    spherical default), and the ell or nu of a learned Q1."""
    rc = cli.main(["run", preset_cfg(tmp_path, "spherical"), *overrides,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config key {key} is not read by" in err


@pytest.mark.parametrize("overrides", [
    (), ("prior.q1.kernel=gamma-exponential", "prior.q1.gamma_exp=1.5"),
    ("prior.q1.kernel=sinc", "prior.q1.nu=20"),
    ("prior.q1.kernel=squared-exponential", "prior.q1.ell=0.3"),
    ("prior.q1.nu=25",),
    ("prior.q1.kernel=rational-quadratic", "prior.q1.nu=30"),
    ("prior.q2.source=kernel", "prior.q2.nu=1e6"),
    ("prior.q1.learn=true",)])
def test_kernel_keys_the_family_reads_run(tmp_path, overrides):
    """Defaults never trip the family check, and a key the family reads
    runs: the largest Matern order too, and an order above it under
    rational-quadratic or a learned Q1."""
    rc = cli.main(["run", preset_cfg(tmp_path, "spherical"), *overrides,
                   "--out", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.parametrize("overrides", [
    ("prior.q1.nu=25.5",),
    ("prior.q2.source=kernel", "prior.q2.kernel=matern", "prior.q2.nu=30")])
def test_matern_order_above_its_end_exits_before_assembly(run_case,
                                                          overrides):
    """A Matern nu above MATERN_NU_MAX, inside the domain other families
    accept, is a config error (exit 2) that names the key and the family
    before anything is assembled."""
    key = overrides[-1].split("=")[0]
    rc, named, assembled = run_case("spherical", "run", *overrides)
    assert rc == 2 and key in named and not assembled
    with pytest.raises(ConfigError, match=rf"{re.escape(key)} .*matern"):
        cli.resolve_config(dict(o.split("=") for o in overrides))


@pytest.mark.parametrize("preset, override", [
    ("spherical", "prior.q1.nu=inf"), ("spherical", "prior.q1.ell=inf"),
    ("spherical", "prior.q1.ell=-inf"), ("spherical", "prior.q1.nu=nan"),
    ("spherical", "prior.q1.gamma_exp=inf"), ("crosswell", "prior.q2.nu=inf"),
    ("crosswell", "prior.q2.ell=nan"), ("spherical", "stop.flat_tol=nan"),
    ("spherical", "stop.residual_tol=nan"), ("spherical", "stop.flat_tol=inf"),
    ("crosswell", "stop.residual_tol=inf")])
def test_exit_code_non_finite_key(run_case, preset, override):
    """A non-finite kernel parameter or stopping tolerance is a config error
    (exit 2) that names the key before anything is assembled: no warning
    from the Bessel profile's logarithms, no NaN blamed on the data later,
    and no run with its stopping rule silently switched off."""
    key = override.split("=")[0]
    rc, named, assembled = run_case(preset, "run", override)
    assert rc == 2 and key in named and not assembled


@pytest.mark.parametrize("size", range(4, 16))
def test_exit_code_spherical_size_below_its_preset_end(run_case, size):
    """problem.size accepts 4 for every preset, but the spherical geometry
    needs 16: a spherical size of 4-15 is a config error (exit 2) naming
    the key and the preset before anything is assembled."""
    rc, named, assembled = run_case("spherical", "run",
                                    f"problem.size={size}")
    assert rc == 2
    assert named == {"problem.size", "problem.preset"} and not assembled


@pytest.mark.parametrize("overrides, key", [
    (("prior.q1.ell=1e50",), "prior.q1.ell"),
    (("prior.q1.nu=1e-50",), "prior.q1.nu"),
    (("prior.q1.kernel=sinc", "prior.q1.nu=1e-50"), "prior.q1.nu"),
    (("prior.q2.source=kernel", "prior.q2.ell=1e50"), "prior.q2.ell")],
    ids=lambda value: ",".join(value) if isinstance(value, tuple) else value)
def test_exit_code_all_ones_kernel_names_its_keys(run_case, capsys,
                                                  overrides, key):
    """A kernel that is exactly 1 at every grid offset (the Matern profile
    at ell = 1e50, sinc at nu = 1e-50, rational-quadratic Q2 at ell = 1e50)
    is refused when the prior is built (exit 2) with the keys its family
    reads, not later as a covariance that fails the definiteness probe.
    The Matern profile at nu = 1e-50 is about 0 off the diagonal, not 1: it
    runs, or exits 2 naming the order."""
    rc, named, assembled = run_case("spherical", "run", *overrides)
    if overrides == ("prior.q1.nu=1e-50",):
        assert rc == 0 or (rc == 2 and key in named)
    else:
        assert rc == 2 and key in named and assembled


@pytest.mark.parametrize("command, overrides", [
    ("run", ("prior.q1.kernel=squared-exponential", "prior.q1.ell=1e6")),
    ("run", ("prior.q1.kernel=rational-quadratic", "prior.q1.ell=1e6")),
    ("run", ("prior.q1.kernel=matern", "prior.q1.nu=0.5",
             "prior.q1.ell=1e15")),
    ("run", ("prior.q1.kernel=gamma-exponential", "prior.q1.ell=1e15")),
    ("compare", ("prior.q2.source=kernel",
                 "prior.q2.kernel=squared-exponential", "prior.q2.ell=1e6",
                 "compare.variants=q2")),
    ("compare", ("prior.q2.source=kernel",
                 "prior.q2.kernel=squared-exponential", "prior.q2.ell=1e6"))],
    ids=lambda value: ",".join(value) if isinstance(value, tuple) else value)
def test_exit_code_rounded_kernel_names_its_keys(run_case, tmp_path, command,
                                                 overrides):
    """A kernel that is 1 off the diagonal only to rounding passes the
    all-ones check, and the process finds the covariance indefinite: the
    error (exit 2) names the kernel's family and the keys it reads, also
    where compare's q2 variant puts the Q2 kernel in the Q1 role.  A
    compare is all or nothing: with every variant, mix and q1 solve before
    q2 fails.  Neither command leaves a path under --out: the directory
    appears with the first artifact."""
    prefix, family = next(o for o in overrides
                          if ".kernel=" in o).split(".kernel=")
    rc, named, assembled = run_case("spherical", command, *overrides)
    assert rc == 2 and assembled
    assert {f"{prefix}.{key}" for key in ("kernel",) + FAMILY_PARAMS[family]
            } <= named
    assert not (tmp_path / "out").exists()


def test_failing_fit_leaves_no_out(run_case, tmp_path):
    """A fit that fails after assembly (an identity Q1 has no parameters
    to learn, exit 2) leaves no path under --out."""
    rc, named, assembled = run_case("spherical", "fit",
                                    "prior.q1.kernel=identity")
    assert rc == 2 and assembled and "prior.q1.kernel" in named
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "gen"])
def test_exit_code_negative_seed(tmp_path, capsys, command):
    """A negative seed fails at the boundary (exit 2, naming the key), not
    inside the random generator of the assembly."""
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    rc = cli.main([command, cfg, "seed=-1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_exit_code_breakdown(tmp_path, capsys):
    """Data orthogonal to the range of A: no first basis vector, exit 3."""
    save_matrix(tmp_path / "A.mtx", np.array([[1.0, 0.0], [0.0, 0.0]]))
    save_vector(tmp_path / "b.mtx", np.array([0.0, 1.0]))
    cfg = write_cfg(tmp_path / "f.cfg", (
        "problem.preset = file\n"
        f"file.a = {tmp_path / 'A.mtx'}\n"
        f"file.b = {tmp_path / 'b.mtx'}\n"
    ))
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "broke down" in capsys.readouterr().err


def test_exit_code_breakdown_on_rounding_cancellation(tmp_path, capsys):
    """Data orthogonal to the range of a rank-one A only up to rounding
    (A^T b about 1e-17) breaks down at once as well: exit 3, not a run on
    a rounding direction."""
    rng = np.random.default_rng(0)
    c, w = rng.standard_normal(6), rng.standard_normal(5)
    b = rng.standard_normal(6)
    b -= (b @ c) / (c @ c) * c
    save_matrix(tmp_path / "A.mtx", np.outer(c, w))
    save_vector(tmp_path / "b.mtx", b)
    cfg = write_cfg(tmp_path / "f.cfg", (
        "problem.preset = file\n"
        f"file.a = {tmp_path / 'A.mtx'}\n"
        f"file.b = {tmp_path / 'b.mtx'}\n"
    ))
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "broke down" in capsys.readouterr().err


def test_exit_code_search_failure(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise SearchError("no finite objective anywhere")

    monkeypatch.setattr(cli, "select_params", explode)
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    rc = cli.main(["run", cfg, "stop.max_iter=3", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "no finite objective" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("key", ["a", "b", "s_true", "mean", "samples"])
def test_exit_code_non_finite_input(tmp_path, capsys, key, value):
    """A NaN or an infinity in any file.* input (a stored entry of the
    sparse A, a vector entry, one sample) fails at load as bad input, exit
    2, naming its key and writing nothing: not a misleading search failure,
    an empty rel_error column, or a message that blames another input.
    The same files without it run."""
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((6, 16))
    data = {"a": dense.ravel(), "b": rng.standard_normal(6),
            "s_true": rng.standard_normal(16), "mean": np.zeros(16),
            "samples": rng.standard_normal((16, 3))}

    def write(name):
        if name == "a":
            save_matrix(tmp_path / "a.mtx", CSRMatrix(
                data["a"], np.tile(np.arange(16), 6),
                np.arange(0, 97, 16), (6, 16)))
        elif name == "samples":
            save_matrix(tmp_path / "samples.mtx", data["samples"])
        else:
            save_vector(tmp_path / f"{name}.mtx", data[name])

    for name in data:
        write(name)
    cfg = write_cfg(tmp_path / "f.cfg", "problem.preset = file\n"
                    "stop.max_iter = 2\n" + "".join(
                        f"file.{name} = {tmp_path / name}.mtx\n"
                        for name in data))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "clean")]) == 0
    capsys.readouterr()
    data[key].flat[5] = value
    write(key)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 2
    assert f"config key file.{key}:" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_definiteness(tmp_path, capsys, monkeypatch):
    def indefinite(*args, **kwargs):
        raise DefinitenessError("Q1 is not positive definite")

    monkeypatch.setattr(cli, "run_hybrid", indefinite)
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "positive definite" in capsys.readouterr().err


def test_optimal_without_truth_names_the_key(tmp_path, capsys):
    save_matrix(tmp_path / "A.mtx", np.eye(3))
    save_vector(tmp_path / "b.mtx", np.arange(1.0, 4.0))
    cfg = write_cfg(tmp_path / "f.cfg", (
        "problem.preset = file\n"
        f"file.a = {tmp_path / 'A.mtx'}\n"
        f"file.b = {tmp_path / 'b.mtx'}\n"
        "select.method = optimal\n"
    ))
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "file.s_true" in capsys.readouterr().err


# -- BLAS threads -------------------------------------------------------------------


_BLAS_PROBE = """\
import ctypes, sys
sys.path.insert(0, {src!r})
from mixkry import cli
rc = cli.main(["gen", {cfg!r}, "problem.size=16", "--out", {out!r}])
lib = ctypes.CDLL({lib!r})
get = lib.scipy_openblas_get_num_threads64_
get.restype = ctypes.c_int
print(rc, get())
"""


@pytest.mark.parametrize("env_value, expect", [(None, 1), ("2", 2)])
def test_cli_pins_one_blas_thread_unless_set(tmp_path, env_value, expect):
    """With OPENBLAS_NUM_THREADS unset, a CLI command runs numpy's bundled
    OpenBLAS on one thread; with it set, the count it sets stands."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs")
                  .glob("libscipy_openblas64_*"))
    if not libs:
        pytest.skip("numpy does not bundle scipy-openblas here")
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    if env_value is not None:
        env["OPENBLAS_NUM_THREADS"] = env_value
    cfg = write_cfg(tmp_path / "g.cfg", "problem.preset = spherical\n")
    code = _BLAS_PROBE.format(src=str(Path(cli.__file__).parents[1]), cfg=cfg,
                              out=str(tmp_path / "gen"), lib=str(libs[0]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1].split() == ["0", str(expect)]


# -- run artifacts -----------------------------------------------------------------


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """The tiny spherical run, executed twice into separate directories."""
    base = tmp_path_factory.mktemp("run")
    cfg = write_cfg(base / "run.cfg", SPHERICAL_TINY)
    outs = []
    for name in ("one", "two"):
        out = base / name
        rc = cli.main(["run", cfg, "--out", str(out)])
        assert rc == 0
        outs.append(out)
    return outs


def test_run_writes_expected_files(run_dirs):
    out = run_dirs[0]
    for fname in ("run.csv", "params.csv", "summary.txt", "recon.pgm",
                  "truth.pgm"):
        assert (out / fname).exists(), fname


def test_run_csv_layout(run_dirs):
    lines = (run_dirs[0] / "run.csv").read_text().splitlines()
    assert lines[0] == "k,lambda,gamma,objective,rel_residual,rel_error,ms"
    assert len(lines) >= 3
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 7
        assert fields[6] == "0.0"  # timing never lands in artifacts
        assert float(fields[4]) >= 0.0
        assert 0.0 < float(fields[2]) <= 1.0
    ks = [int(r.split(",")[0]) for r in lines[1:]]
    assert ks == list(range(1, len(ks) + 1))


def test_run_csv_uses_plain_float_reprs(run_dirs):
    text = (run_dirs[0] / "run.csv").read_text()
    assert "np.float64" not in text
    assert "None" not in text


def test_params_csv_layout(run_dirs):
    lines = (run_dirs[0] / "params.csv").read_text().splitlines()
    assert lines[0] == "k,method,gamma,lambda,objective,evaluations,converged"
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[1] == "wgcv"
        assert int(fields[5]) > 0
        assert fields[6] in ("true", "false")


def test_run_summary_contents(run_dirs):
    text = (run_dirs[0] / "summary.txt").read_text()
    for key in ("problem: spherical", "m: 20", "n: 256", "method: wgcv",
                "iterations:", "stop_reason:", "rel_error:", "noise_sigma:"):
        assert key in text


def test_run_images_parse(run_dirs):
    recon = read_pgm(run_dirs[0] / "recon.pgm")
    truth = read_pgm(run_dirs[0] / "truth.pgm")
    assert recon.shape == (16, 16)
    assert truth.shape == (16, 16)


def test_run_byte_deterministic(run_dirs):
    one, two = run_dirs
    for fname in ("run.csv", "params.csv", "summary.txt", "recon.pgm",
                  "truth.pgm"):
        assert (one / fname).read_bytes() == (two / fname).read_bytes(), fname


def test_run_warm_start_halves_the_decomposed_gammas(tmp_path, monkeypatch):
    """The acceptance run sph32-run-upre (44 steps) decomposes 586 gammas.
    A cold search at every step, refining gamma at all eight zoom levels,
    decomposes 1,203 there; the warm-started window and the lambda-only
    late zoom levels must keep the count at most half of that."""
    decomposed = []
    decompose = mixkry.params.trace_term

    def counting(basis, gammas):
        decomposed.extend(gammas)
        return decompose(basis, gammas)

    monkeypatch.setattr(mixkry.params, "trace_term", counting)
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_32)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "select.method=upre", "--out", str(out)]) == 0
    assert "iterations: 44" in (out / "summary.txt").read_text()
    assert len(decomposed) == 586 <= 1203 // 2


def test_upre_history_is_unit_free_property(tmp_path):
    """UPRE scores in whitened units, like GCV and WGCV.  Scaling A's data,
    b and sigma together by 2^j leaves the whitened problem's bits as they
    are, so run_hybrid's history under upre, objective included, is
    bit-identical at every j."""
    cfg = cli.resolve_config(cli.read_config(
        write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)))
    work = cli.assemble_workload(cfg)
    prior, _, _ = cli._prior(cfg, work)
    search = SearchConfig(grid_gamma=cfg["select.grid_gamma"],
                          grid_lambda=cfg["select.grid_lambda"])
    policy = StoppingPolicy(max_iter=cfg["stop.max_iter"])
    csr = work.A.mat

    def history(scale):
        A = LinearOperator.from_matrix(CSRMatrix(
            csr.data * scale, csr.indices, csr.indptr, csr.shape))
        Rinv, LR = noise_whitener((work.sigma * scale) ** 2, work.m)
        return cli.run_hybrid(A, Rinv, LR, prior, work.b * scale,
                              method="upre", search=search, policy=policy,
                              s_true=work.s_true).history

    base = history(1.0)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(j=st.integers(-8, 8))
    def check(j):
        assert history(2.0 ** j) == base

    check()


def test_run_hybrid_gives_optimal_its_own_s_true(tmp_path):
    """run_hybrid passes its s_true to an optimal search whose config holds
    none: the history equals the one with SearchConfig(s_true=...)."""
    cfg = cli.resolve_config(cli.read_config(preset_cfg(tmp_path,
                                                        "crosswell")))
    work = cli.assemble_workload(cfg)
    prior, _, _ = cli._prior(cfg, work)
    Rinv, LR = noise_whitener(work.sigma ** 2, work.m)

    def history(search):
        return cli.run_hybrid(work.A, Rinv, LR, prior, work.b,
                              method="optimal", search=search,
                              s_true=work.s_true).history

    assert history(None) == history(SearchConfig(s_true=work.s_true))


# -- compare -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def compare_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("compare")
    cfg = write_cfg(base / "cmp.cfg", SPHERICAL_TINY)
    out = base / "out"
    rc = cli.main(["compare", cfg, "--out", str(out)])
    assert rc == 0
    return out


def test_compare_csv_all_variants(compare_dir):
    lines = (compare_dir / "compare.csv").read_text().splitlines()
    assert lines[0] == ("variant,k,gamma,lambda,objective,rel_residual,"
                        "rel_error,stop_reason")
    tags = [row.split(",")[0] for row in lines[1:]]
    assert tags == ["mix", "q1", "q2", "identity"]
    by_tag = {row.split(",")[0]: row.split(",") for row in lines[1:]}
    for tag in ("q1", "q2", "identity"):
        assert float(by_tag[tag][2]) == 1.0
    assert 0.0 < float(by_tag["mix"][2]) <= 1.0
    for tag in tags:
        assert float(by_tag[tag][6]) > 0.0


def test_compare_variant_directories(compare_dir):
    for tag in ("mix", "q1", "q2", "identity"):
        assert (compare_dir / tag / "run.csv").exists()
        assert (compare_dir / tag / "summary.txt").exists()


def test_compare_records_shrinkage_note(compare_dir):
    """The sample-based q2 variant blends with the identity and logs the
    weight."""
    text = (compare_dir / "summary.txt").read_text()
    assert "rblw_rho:" in text


def test_compare_select_gamma_pins_mix_only(tmp_path):
    """select.gamma pins gamma for the mix variant; the single-covariance
    variants keep gamma = 1."""
    cfg = write_cfg(tmp_path / "c.cfg", SPHERICAL_TINY)
    out = tmp_path / "out"
    rc = cli.main(["compare", cfg, "select.gamma=0.5",
                   "compare.variants=mix,q1,identity", "--out", str(out)])
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()[1:]
    gammas = {row.split(",")[0]: float(row.split(",")[2]) for row in lines}
    assert gammas == {"mix": 0.5, "q1": 1.0, "identity": 1.0}
    for tag, gamma in gammas.items():
        rows = (out / tag / "params.csv").read_text().splitlines()[1:]
        assert {float(row.split(",")[2]) for row in rows} == {gamma}


def test_compare_rejects_unknown_variant(run_case):
    """An unknown variant exits 2 naming the key, before any run."""
    rc, named, assembled = run_case("spherical", "compare",
                                    "compare.variants=mix,banana")
    assert rc == 2 and "compare.variants" in named and not assembled


def test_compare_rejects_duplicate_variant(tmp_path, run_case):
    """A variant named twice would run twice into one directory and write
    two compare.csv rows: exit 2 naming the key, before any run."""
    cfg = write_cfg(tmp_path / "c.cfg", SPHERICAL_TINY)
    with pytest.raises(ConfigError, match="compare.variants"):
        cli.resolve_config({**cli.read_config(cfg),
                            "compare.variants": "mix,q1,mix"})
    rc, named, assembled = run_case("spherical", "compare",
                                    "compare.variants=mix,mix")
    assert rc == 2 and "compare.variants" in named and not assembled


def test_run_crosswell_paper_scale(tmp_path):
    """crosswell at problem.size=128 (n = 16384, the paper's grid) runs end
    to end, because its kernel priors are FFT-applied, not dense."""
    cfg = write_cfg(tmp_path / "cw.cfg",
                    "problem.preset = crosswell\nproblem.size = 128\n")
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "n: 16384" in (tmp_path / "out" / "summary.txt").read_text()


# -- fit ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fit")
    cfg = write_cfg(base / "fit.cfg",
                    SPHERICAL_TINY + "fit.probes = 6\nfit.repeats = 4\n")
    out = base / "out"
    rc = cli.main(["fit", cfg, "--out", str(out)])
    assert rc == 0
    return out


def test_fit_csv_probe_ladder(fit_dir):
    """fit.csv holds one estimate row: fit.probes probes, fit.repeats
    repeats, a finite mean and a nonnegative standard error."""
    lines = (fit_dir / "fit.csv").read_text().splitlines()
    assert lines[0] == "probes,repeats,mean_objective,se_objective"
    assert len(lines) == 2
    probes, repeats, mean, se = lines[1].split(",")
    assert (int(probes), int(repeats)) == (6, 4)
    assert np.isfinite(float(mean)) and float(se) >= 0.0


def test_fit_summary_paste_ready(fit_dir):
    text = (fit_dir / "summary.txt").read_text()
    assert "prior.q1.nu=" in text
    assert "prior.q1.ell=" in text
    nu_line = [l for l in text.splitlines() if l.startswith("prior.q1.nu=")][0]
    assert 0.1 <= float(nu_line.split("=")[1]) <= 10.0


def summary_fields(outdir):
    return dict(l.split("=", 1) if "=" in l else l.split(": ", 1)
                for l in (outdir / "summary.txt").read_text().splitlines())


def test_fit_summary_flags_clamp_and_pixel_scale(fit_dir):
    """summary.txt names a parameter left on the edge of the fit box and
    states ell in pixels (a 16 x 16 grid spans the unit square)."""
    fields = summary_fields(fit_dir)
    nu, ell = float(fields["prior.q1.nu"]), float(fields["prior.q1.ell"])
    at_clamp = set(fields["at_clamp"].split(","))
    assert ("nu" in at_clamp) == any(
        nu == pytest.approx(v, rel=1e-9) for v in (0.1, 10.0))
    assert ("ell" in at_clamp) == any(
        ell == pytest.approx(v, rel=1e-9) for v in (1e-3, np.sqrt(2.0)))
    assert at_clamp == {"none"} or "none" not in at_clamp
    assert float(fields["ell_pixels"]) == pytest.approx(16.0 * ell, rel=1e-12)


def test_fit_builds_the_ladder_kernel_once(tmp_path, monkeypatch):
    """fit builds one kernel operator, for all fit.repeats estimates, not
    one per estimate, and no prior; and fit.csv is byte-identical to a fit
    that rebuilds the kernel for every estimate."""
    builds = []
    build = cli.build_kernel_operator

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "build_kernel_operator", counted)
    cfg = write_cfg(tmp_path / "fit.cfg", SPHERICAL_TINY)
    assert cli.main(["fit", cfg, "--out", str(tmp_path / "once")]) == 0
    assert len(builds) == 1

    builds.clear()
    estimate = cli.hutchinson_objective
    monkeypatch.setattr(cli, "hutchinson_objective",
                        lambda kernel, sample, probes: estimate(
                            counted(*builds[0]), sample, probes))
    assert cli.main(["fit", cfg, "--out", str(tmp_path / "each")]) == 0
    repeats = cli.resolve_config(cli.read_config(cfg))["fit.repeats"]
    assert len(builds) == 1 + repeats
    assert ((tmp_path / "once" / "fit.csv").read_bytes()
            == (tmp_path / "each" / "fit.csv").read_bytes())


@pytest.mark.parametrize("family", ["squared-exponential", "matern", "sinc"])
def test_fit_at_clamp_names_only_parameters_the_family_reads(tmp_path,
                                                             family):
    """With flat samples the fit stops in the (nu, ell) corner.  at_clamp
    names the clamped parameters that the family reads: ell alone for the
    squared-exponential kernel, which ignores nu, both for Matern."""
    cfg = file_cfg(tmp_path, np.ones((16, 3)))
    assert cli.main(["fit", cfg, f"prior.q1.kernel={family}",
                     "--out", str(tmp_path / "out")]) == 0
    at_clamp = summary_fields(tmp_path / "out")["at_clamp"].split(",")
    assert set(at_clamp) <= set(FAMILY_PARAMS[family]) | {"none"}
    if family != "sinc":
        assert at_clamp == ["nu", "ell"][2 - len(FAMILY_PARAMS[family]):]


@pytest.mark.parametrize("command, line", [("fit", "prior.q1.ell"),
                                           ("run", "learned_ell")])
def test_learning_reads_the_configured_gamma_exp(tmp_path, command, line):
    """fit, and run with prior.q1.learn=true, fit ell at the configured
    exponent of the gamma-exponential kernel: two exponents learn two
    length scales, and fit's summary names the exponent."""
    cfg = write_cfg(tmp_path / "f.cfg", SPHERICAL_TINY
                    + "prior.q1.kernel = gamma-exponential\n")
    learn = ("prior.q1.learn=true",) if command == "run" else ()
    ells = []
    for exponent in ("0.5", "1.5"):
        out = tmp_path / exponent
        assert cli.main([command, cfg, f"prior.q1.gamma_exp={exponent}",
                         *learn, "--out", str(out)]) == 0
        fields = summary_fields(out)
        ells.append(fields[line])
        if command == "fit":
            assert fields["prior.q1.gamma_exp"] == exponent
    assert ells[0] != ells[1]


@pytest.mark.parametrize("family", list(FAMILY_PARAMS))
def test_fit_summary_lines_paste_into_the_config(tmp_path, family):
    """summary.txt's paste-ready lines name exactly the parameters the
    family reads, so the config with them pasted in resolves."""
    cfg = write_cfg(tmp_path / "f.cfg", SPHERICAL_TINY
                    + f"prior.q1.kernel = {family}\n")
    assert cli.main(["fit", cfg, "--out", str(tmp_path / "out")]) == 0
    lines = [l for l in (tmp_path / "out" / "summary.txt").read_text()
             .splitlines() if l.startswith("prior.q1.")]
    pasted = dict(l.split("=") for l in lines)
    assert list(pasted) == [f"prior.q1.{p}" for p in FAMILY_PARAMS[family]]
    cli.resolve_config({**cli.read_config(cfg), **pasted})


def test_fit_ladder_estimates_the_minimized_mismatch(tmp_path):
    """On spherical-16 the fit minimizes the exact mismatch, and fit.csv's
    Hutchinson row estimates that same value at the learned (nu, ell): its
    mean lies within 3 standard errors of it."""
    text = ("problem.preset = spherical\nproblem.size = 16\n"
            "problem.train_count = 49\nseed = 101\n")
    out = tmp_path / "out"
    assert cli.main(["fit", write_cfg(tmp_path / "f.cfg", text),
                     "--out", str(out)]) == 0
    fields = summary_fields(out)
    work = cli.assemble_workload(cli.resolve_config(cli.read_config(
        tmp_path / "f.cfg")))
    spec = KernelSpec(family="matern", nu=float(fields["prior.q1.nu"]),
                      ell=float(fields["prior.q1.ell"]))
    exact = frobenius_mismatch(work.grid, work.sample)(
        kernel_table(spec, work.grid))
    assert float(fields["objective"]) == exact
    rows = [line.split(",")
            for line in (out / "fit.csv").read_text().splitlines()[1:]]
    assert len(rows) == 1
    [(_, _, mean, se)] = rows
    assert abs(float(mean) - exact) <= 3.0 * float(se)


def file_cfg(tmp_path, samples, extra=""):
    """A file-preset config on a 4 x 4 grid with the given sample columns."""
    rng = np.random.default_rng(0)
    save_matrix(tmp_path / "A.mtx", rng.standard_normal((6, 16)))
    save_vector(tmp_path / "b.mtx", rng.standard_normal(6))
    save_matrix(tmp_path / "samples.mtx", samples)
    return write_cfg(tmp_path / "f.cfg", (
        "problem.preset = file\n"
        f"file.a = {tmp_path / 'A.mtx'}\n"
        f"file.b = {tmp_path / 'b.mtx'}\n"
        f"file.samples = {tmp_path / 'samples.mtx'}\n"
        "prior.q1.kernel = matern\n"
        "stop.max_iter = 2\n" + extra
    ))


def test_fit_flat_samples_clamp_both_parameters(tmp_path):
    """Identical samples give Qhat = 0, so the mismatch is the kernel mass
    alone.  It is least, and ties at 0 off the diagonal for every nu, at
    the smallest ell: the fit stops in the (nu, ell) corner and says so."""
    cfg = file_cfg(tmp_path, np.ones((16, 3)))
    rc = cli.main(["fit", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    fields = summary_fields(tmp_path / "out")
    assert fields["at_clamp"] == "nu,ell"
    assert float(fields["prior.q1.nu"]) == pytest.approx(0.1)
    assert float(fields["prior.q1.ell"]) == pytest.approx(1e-3)
    assert float(fields["objective"]) == 16.0


@pytest.mark.parametrize("command", ["run", "fit"])
def test_file_samples_feed_the_sample_prior(tmp_path, command):
    """file.samples holds one sample per column; run uses it as Q2 and fit
    learns the Q1 kernel from it."""
    rng = np.random.default_rng(1)
    cfg = file_cfg(tmp_path, rng.standard_normal((16, 5)),
                   "prior.q2.source = samples\n")
    rc = cli.main([command, cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    if command == "fit":
        assert summary_fields(tmp_path / "out")["samples"] == "5"


@pytest.mark.parametrize("command", ["run", "fit"])
def test_exit_code_one_training_sample(tmp_path, capsys, command):
    """One training image, or a file.samples with one sample, has a zero
    sample covariance: exit 2 naming the key, not a run or fit on it."""
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    rc = cli.main([command, cfg, "problem.train_count=1",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "problem.train_count" in capsys.readouterr().err
    cfg = file_cfg(tmp_path, np.arange(16.0)[:, None])
    rc = cli.main([command, cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "file.samples" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["fit.probes=0", "fit.repeats=1"])
def test_exit_code_bad_fit_ladder(run_case, override):
    """fit.probes below 1 or fit.repeats below 2 fails when the config is
    read (exit 2, naming the key), before any assembly."""
    rc, named, assembled = run_case("spherical", "fit", override)
    assert rc == 2 and override.split("=")[0] in named and not assembled


def test_fit_with_learned_q1_learns_once(tmp_path, monkeypatch, fit_dir):
    """With prior.q1.learn=true in the config file, fit learns once, as
    without it: one learn_matern call, and the same artifacts."""
    learn, calls = cli.learn_matern, []

    def counted(*args, **kwargs):
        calls.append(args)
        return learn(*args, **kwargs)

    monkeypatch.setattr(cli, "learn_matern", counted)
    cfg = write_cfg(tmp_path / "fit.cfg", SPHERICAL_TINY + "fit.probes = 6\n"
                    "fit.repeats = 4\nprior.q1.learn = true\n")
    out = tmp_path / "out"
    rc = cli.main(["fit", cfg, "--out", str(out)])
    assert rc == 0
    assert len(calls) == 1
    for fname in ("fit.csv", "summary.txt"):
        assert (out / fname).read_bytes() == (fit_dir / fname).read_bytes()


def test_fit_requires_samples(tmp_path, capsys):
    save_matrix(tmp_path / "A.mtx", np.eye(4))
    save_vector(tmp_path / "b.mtx", np.ones(4))
    cfg = write_cfg(tmp_path / "f.cfg", (
        "problem.preset = file\n"
        f"file.a = {tmp_path / 'A.mtx'}\n"
        f"file.b = {tmp_path / 'b.mtx'}\n"
    ))
    rc = cli.main(["fit", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "samples" in capsys.readouterr().err


# -- gen and round-trip -------------------------------------------------------------


def test_gen_and_file_round_trip(tmp_path):
    gen_out = tmp_path / "gen"
    gen_cfg = write_cfg(tmp_path / "gen.cfg", "problem.preset = crosswell\n")
    rc = cli.main(["gen", gen_cfg, "problem.size=16", "--out", str(gen_out)])
    assert rc == 0
    for fname in ("A.mtx", "b.mtx", "b_true.mtx", "s_true.mtx", "truth.pgm",
                  "summary.txt"):
        assert (gen_out / fname).exists(), fname

    sigma_line = [l for l in (gen_out / "summary.txt").read_text().splitlines()
                  if l.startswith("noise_sigma:")][0]
    sigma = float(sigma_line.split(":")[1])
    assert sigma > 0

    cfg = write_cfg(tmp_path / "file.cfg", (
        "problem.preset = file\n"
        f"file.a = {gen_out / 'A.mtx'}\n"
        f"file.b = {gen_out / 'b.mtx'}\n"
        f"file.s_true = {gen_out / 's_true.mtx'}\n"
        f"noise.sigma = {sigma}\n"
        "select.method = gcv\n"
        "stop.max_iter = 4\n"
        "select.grid_gamma = 4\n"
        "select.grid_lambda = 6\n"
    ))
    run_out = tmp_path / "run"
    rc = cli.main(["run", str(cfg), "--out", str(run_out)])
    assert rc == 0
    lines = (run_out / "run.csv").read_text().splitlines()
    last = lines[-1].split(",")
    assert float(last[5]) > 0.0  # rel_error tracked against the saved truth
    assert (run_out / "recon.pgm").exists()


def test_gen_exports_configured_geometry(tmp_path):
    """gen reads a config like run, so geometry keys reach the export: A has
    one row per spherical-means arc, angles x circles."""
    cfg = write_cfg(tmp_path / "g.cfg", SPHERICAL_TINY)
    out = tmp_path / "gen"
    rc = cli.main(["gen", cfg, "problem.angles=5", "problem.circles=6",
                   "--out", str(out)])
    assert rc == 0
    assert load_matrix(out / "A.mtx").shape == (5 * 6, 16 * 16)
    assert "m: 30" in (out / "summary.txt").read_text()


def test_cli_override_precedence(tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    out = tmp_path / "out"
    rc = cli.main(["run", cfg, "stop.max_iter=2", "--out", str(out)])
    assert rc == 0
    lines = (out / "run.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two iterations


# -- the assembly memo ---------------------------------------------------------------


BUILDERS = ("spherical_tomo", "crosswell_tomo", "gen_training_images",
            "add_noise")


@pytest.fixture
def builds(monkeypatch):
    """An empty assembly memo, and the names of the problem builders that
    ``cli`` calls from then on, in call order."""
    monkeypatch.setattr(cli, "_LAST", None)
    calls = []
    for name in BUILDERS:
        def counted(*args, _build=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _build(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


def tiny_cfg(*overrides):
    pairs = dict(line.split(" = ") for line in SPHERICAL_TINY.splitlines()
                 if " = " in line and not line.startswith("#"))
    pairs.update(item.split("=") for item in overrides)
    return cli.resolve_config(pairs)


def test_assembly_builds_a_repeated_problem_once(builds):
    """Two assemblies of one problem build it once, also when a key that
    only the solve reads differs; they share A and the training samples
    and hold equal data."""
    first = cli.assemble_workload(tiny_cfg())
    again = cli.assemble_workload(tiny_cfg("select.method=gcv"))
    assert builds == ["spherical_tomo", "gen_training_images", "add_noise"]
    assert again.A is first.A and again.sample is first.sample
    for name in ("b", "b_true", "s_true"):
        assert np.array_equal(getattr(again, name), getattr(first, name))


@pytest.mark.parametrize("override", ["seed=6", "noise.level=0.05",
                                      "problem.size=17"])
def test_assembly_rebuilds_when_a_problem_key_changes(builds, override):
    """A different seed, noise level or problem size is a different
    problem: it is built anew, and its data differ."""
    first = cli.assemble_workload(tiny_cfg())
    other = cli.assemble_workload(tiny_cfg(override))
    assert builds.count("spherical_tomo") == 2
    assert builds.count("add_noise") == 2
    assert (other.b.shape != first.b.shape
            or not np.array_equal(other.b, first.b))


def test_assembly_rereads_the_file_preset(tmp_path, builds):
    """The file preset is never kept: files overwritten between two calls
    give the second call their new contents."""
    cfg = cli.resolve_config({"problem.preset": "file",
                              "file.a": str(tmp_path / "A.mtx"),
                              "file.b": str(tmp_path / "b.mtx")})
    save_matrix(tmp_path / "A.mtx", np.eye(3))
    save_vector(tmp_path / "b.mtx", np.arange(1.0, 4.0))
    first = cli.assemble_workload(cfg)
    save_matrix(tmp_path / "A.mtx", 2.0 * np.eye(3))
    save_vector(tmp_path / "b.mtx", np.arange(4.0, 7.0))
    second = cli.assemble_workload(cfg)
    assert np.array_equal(first.b, np.arange(1.0, 4.0))
    assert np.array_equal(second.b, np.arange(4.0, 7.0))
    assert np.array_equal(second.A.matvec(np.ones(3)), np.full(3, 2.0))


def test_assembly_gives_each_call_its_own_data(builds):
    """Writing into one call's b, b_true or s_true leaves the next call's
    untouched."""
    first = cli.assemble_workload(tiny_cfg())
    kept = {name: getattr(first, name).copy()
            for name in ("b", "b_true", "s_true")}
    for name in kept:
        getattr(first, name)[:] = -1.0
    again = cli.assemble_workload(tiny_cfg())
    for name, value in kept.items():
        assert np.array_equal(getattr(again, name), value), name


@pytest.mark.parametrize("array", ["A.mat.data", "A.mat.indices",
                                   "A.mat.indptr", "sample.factor",
                                   "sample.mean"])
def test_assembly_shares_read_only_arrays(builds, array):
    """The arrays a kept problem shares raise on an in-place write, so a
    stray write cannot reach the next command."""
    work = cli.assemble_workload(tiny_cfg())
    arr = work
    for attr in array.split("."):
        arr = getattr(arr, attr)
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = arr[0]


class ReadRecorder(dict):
    """A config that records every key read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("preset", ["spherical", "crosswell"])
def test_assembly_reads_only_keys_in_the_memo_key(builds, preset):
    """Every key that a synthetic assembly reads is part of the memo's
    key, so no two problems that differ in a read key share a slot."""
    cfg = ReadRecorder(cli.resolve_config({"problem.preset": preset,
                                           "problem.size": "16"}))
    cli.assemble_workload(cfg)
    assert "problem.size" in cfg.read and "noise.level" in cfg.read
    assert cfg.read <= {key for key, _ in cli._problem_key(cfg)}


# -- docs ----------------------------------------------------------------------------


def test_readme_names_every_config_key():
    """README's config table spells out every key verbatim, in backticks,
    and its Domain cell is the key's domain as ``_KEYS`` renders it."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("### Config keys")[1].split("###")[0]
    domains = {}
    for row in table.splitlines():
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        if row.startswith("| `"):
            for key in re.findall(r"`([^`]+)`", cells[0]):
                domains[key] = cells[3]
    assert domains == {key: cli._domain_text(key) for key in cli._KEYS}
