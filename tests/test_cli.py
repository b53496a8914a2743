"""Config parsing, the batch driver, and its on-disk artifacts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixkry.learn
import mixkry.operators
import mixkry.params
from mixkry import cli
from mixkry.errors import ConfigError, DefinitenessError, SearchError
from mixkry.learn import frobenius_mismatch
from mixkry.operators import (FAMILY_PARAMS, KernelSpec, load_matrix,
                              save_matrix, save_vector)
from mixkry.testproblems import read_pgm

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
                                      "select.omega=0", "select.sigma2=nan",
                                      "select.sigma2=inf",
                                      "select.sigma2=-1"])
def test_exit_code_bad_omega_sigma2(tmp_path, capsys, override):
    """A non-finite or non-positive select.omega or select.sigma2 is a
    parameter error (exit 2) that names the key, under the method that
    reads it: not a search that finds no finite objective (exit 4) or one
    that scores meaningless values (exit 0)."""
    key = override.split("=")[0]
    method = "upre" if key == "select.sigma2" else "wgcv"
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    rc = cli.main(["run", cfg, override, f"select.method={method}",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key.split(".")[1] in capsys.readouterr().err


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


@pytest.mark.parametrize("override", [
    "noise.sigma=nan", "noise.sigma=inf", "noise.sigma=-1", "noise.sigma=0",
    "noise.level=nan", "noise.level=inf", "noise.level=-0.1",
    "noise.level=0"])
def test_exit_code_bad_noise(tmp_path, capsys, override):
    """A non-finite or non-positive noise.sigma (file preset) or noise.level
    (spherical preset) is a config error (exit 2) that names the key: not
    an unwhitened run that records the bad value (exit 0), and not a
    failure reported against b or sigma2."""
    key = override.split("=")[0]
    cfg = preset_cfg(tmp_path,
                     "file" if key == "noise.sigma" else "spherical")
    rc = cli.main(["run", cfg, override, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("preset, override", [
    ("spherical", "prior.q1.nu=inf"), ("spherical", "prior.q1.ell=inf"),
    ("spherical", "prior.q1.ell=-inf"), ("spherical", "prior.q1.nu=nan"),
    ("spherical", "prior.q1.gamma_exp=inf"), ("crosswell", "prior.q2.nu=inf"),
    ("crosswell", "prior.q2.ell=nan"), ("spherical", "stop.flat_tol=nan"),
    ("spherical", "stop.residual_tol=nan"), ("spherical", "stop.flat_tol=inf"),
    ("crosswell", "stop.residual_tol=inf")])
def test_exit_code_non_finite_key(tmp_path, capsys, monkeypatch, preset,
                                  override):
    """A non-finite kernel parameter or stopping tolerance is a config error
    (exit 2) that names the key before any kernel is evaluated: no warning
    from the Bessel profile's logarithms, no NaN blamed on the data later,
    and no run with its stopping rule silently switched off."""
    def evaluated(*args):
        raise AssertionError("a kernel was evaluated")

    monkeypatch.setattr(mixkry.operators, "kernel_eval", evaluated)
    key = override.split("=")[0]
    rc = cli.main(["run", preset_cfg(tmp_path, preset), override,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err


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


@pytest.mark.parametrize("bad_file,named", [("b", "right-hand side"),
                                            ("mean", "prior mean")])
def test_exit_code_non_finite_input(tmp_path, capsys, bad_file, named):
    """A NaN in file.b or file.mean is bad input (exit 2), not a search
    failure."""
    vecs = {"b": np.arange(1.0, 4.0), "mean": np.zeros(3)}
    vecs[bad_file][1] = np.nan
    save_matrix(tmp_path / "A.mtx", np.eye(3))
    save_vector(tmp_path / "b.mtx", vecs["b"])
    save_vector(tmp_path / "mean.mtx", vecs["mean"])
    cfg = write_cfg(tmp_path / "f.cfg", (
        "problem.preset = file\n"
        f"file.a = {tmp_path / 'A.mtx'}\n"
        f"file.b = {tmp_path / 'b.mtx'}\n"
        f"file.mean = {tmp_path / 'mean.mtx'}\n"
    ))
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert named in capsys.readouterr().err


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


def test_compare_rejects_unknown_variant(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg",
                    SPHERICAL_TINY + "compare.variants = mix,banana\n")
    rc = cli.main(["compare", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "banana" in capsys.readouterr().err


def test_compare_rejects_duplicate_variant(tmp_path, capsys):
    """A variant named twice would run twice into one directory and write
    two compare.csv rows: exit 2 naming the key, before any run."""
    cfg = write_cfg(tmp_path / "c.cfg", SPHERICAL_TINY)
    with pytest.raises(ConfigError, match="compare.variants"):
        cli._parse_variants(cli.resolve_config(
            {**cli.read_config(cfg), "compare.variants": "mix,q1,mix"}))
    rc = cli.main(["compare", cfg, "compare.variants=mix,mix",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "compare.variants" in capsys.readouterr().err
    assert not (tmp_path / "out" / "mix").exists()


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
    lines = (fit_dir / "fit.csv").read_text().splitlines()
    assert lines[0] == "probes,repeats,mean_objective,se_objective"
    rows = [line.split(",") for line in lines[1:]]
    probes = [int(r[0]) for r in rows]
    assert probes == sorted(probes) and len(probes) == 3
    ses = [float(r[3]) for r in rows]
    assert all(s >= 0.0 for s in ses)
    # quadrupled probes average away Monte-Carlo spread
    assert ses[-1] < ses[0]


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
    """fit builds two kernel operators, assembly's Q1 and one for the whole
    ladder, not one per ladder estimate; and fit.csv is byte-identical to
    a ladder that rebuilds the kernel for every estimate."""
    builds = []
    for module in (cli, mixkry.learn):
        def counted(*args, build=module.build_kernel_operator):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(module, "build_kernel_operator", counted)
    cfg = write_cfg(tmp_path / "fit.cfg", SPHERICAL_TINY)
    assert cli.main(["fit", cfg, "--out", str(tmp_path / "once")]) == 0
    assert len(builds) == 2

    builds.clear()
    estimate = cli.hutchinson_objective
    monkeypatch.setattr(cli, "hutchinson_objective",
                        lambda *args, kernel: estimate(*args))
    assert cli.main(["fit", cfg, "--out", str(tmp_path / "each")]) == 0
    assert len(builds) == 2 + 18
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


def test_fit_ladder_estimates_the_minimized_mismatch(tmp_path):
    """On spherical-16 the fit minimizes the exact mismatch, and fit.csv's
    Hutchinson ladder estimates that same value at the learned (nu, ell):
    each rung's mean lies within 3 standard errors of it."""
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
    exact = frobenius_mismatch(work.grid, work.sample)(spec)
    assert float(fields["objective"]) == exact
    rows = [line.split(",")
            for line in (out / "fit.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3
    for _, _, mean, se in rows:
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
def test_exit_code_bad_fit_ladder(tmp_path, capsys, override):
    """fit.probes below 1 or fit.repeats below 2 fails when the config is
    read (exit 2, naming the key), before any assembly."""
    cfg = write_cfg(tmp_path / "a.cfg", SPHERICAL_TINY)
    with pytest.raises(ConfigError, match=override.split("=")[0]):
        cli.resolve_config({**cli.read_config(cfg),
                            override.split("=")[0]: override.split("=")[1]})
    rc = cli.main(["fit", cfg, override, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert override.split("=")[0] in capsys.readouterr().err


def test_fit_with_learned_q1_learns_once(tmp_path, monkeypatch, fit_dir):
    """With prior.q1.learn=true, fit reuses the kernel that assembly learned:
    one learn_matern call, and the same artifacts as a fit without it."""
    learn, calls = cli.learn_matern, []

    def counted(*args, **kwargs):
        calls.append(args)
        return learn(*args, **kwargs)

    monkeypatch.setattr(cli, "learn_matern", counted)
    cfg = write_cfg(tmp_path / "fit.cfg",
                    SPHERICAL_TINY + "fit.probes = 6\nfit.repeats = 4\n")
    out = tmp_path / "out"
    rc = cli.main(["fit", cfg, "prior.q1.learn=true", "--out", str(out)])
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


# -- docs ----------------------------------------------------------------------------


def test_readme_names_every_config_key():
    """README's config table spells out every key verbatim, in backticks."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    assert [key for key in cli._KEYS if f"`{key}`" not in text] == []
