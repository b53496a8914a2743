"""Batch experiment driver.

Subcommands: ``run`` (one hybrid reconstruction), ``compare`` (prior
variants on one data realization), ``fit`` (kernel hyperparameters from
training samples), ``gen`` (export a problem to files).  Every command
reads a flat key=value config file; unknown keys, and keys that the chosen
preset does not read, are rejected.  Every artifact byte is determined by
the config plus its seed, so wall-clock timing is printed to stdout instead
of being written to files.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ArgumentError,
    BreakdownError,
    ConfigError,
    DefinitenessError,
    MixkryError,
    SearchError,
)
from .learn import (fit_bounds, hutchinson_objective, learn_matern,
                    rademacher_probes, rblw_gamma)
from .mixgk import mixgk_init, mixgk_step
from .operators import (
    FAMILY_PARAMS,
    Grid,
    KernelSpec,
    LinearOperator,
    PriorSpec,
    build_kernel_operator,
    identity_operator,
    load_matrix,
    load_samples,
    load_vector,
    noise_whitener,
    sample_covariance,
    save_matrix,
    save_vector,
    zero_operator,
)
from .params import (
    METHODS,
    RunRecord,
    SearchConfig,
    StoppingPolicy,
    select_params,
    stopping_check,
)
from .projected import recover_iterate
from .testproblems import (
    add_noise,
    crosswell_tomo,
    gen_training_images,
    spherical_tomo,
    write_pgm,
)

__all__ = [
    "HybridResult",
    "run_hybrid",
    "Workload",
    "assemble_workload",
    "read_config",
    "resolve_config",
    "main",
]

_PRESETS = ("spherical", "crosswell", "file")
_VARIANTS = ("mix", "q1", "q2", "identity")


def _bool(text):
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# key -> (caster, default).  A dict default maps each preset that reads the
# key to its default there; a scalar default means every preset reads it.
# A None default leaves the key unset.
_KEYS = {
    "problem.preset": (str, "spherical"),
    "problem.size": (int, {"spherical": 32, "crosswell": 64}),
    "problem.angles": (int, {"spherical": 16}),
    "problem.circles": (int, {"spherical": 24}),
    "problem.sources": (int, {"crosswell": 10}),
    "problem.receivers": (int, {"crosswell": 20}),
    "problem.train_count": (int, {"spherical": 49}),
    "noise.level": (float, {"spherical": 0.03, "crosswell": 0.01}),
    "noise.sigma": (float, {"file": 1.0}),
    "prior.mean": (str, {"spherical": "train", "crosswell": "zero",
                         "file": "zero"}),
    "prior.q1.kernel": (str, {"spherical": "matern", "crosswell": "matern",
                              "file": "identity"}),
    "prior.q1.ell": (float, 0.25),
    "prior.q1.nu": (float, 0.5),
    "prior.q1.gamma_exp": (float, 1.0),
    "prior.q1.learn": (_bool, False),
    "prior.q2.source": (str, {"spherical": "samples", "crosswell": "kernel",
                              "file": "identity"}),
    "prior.q2.kernel": (str, "rational-quadratic"),
    "prior.q2.ell": (float, 0.1),
    "prior.q2.nu": (float, 2.0),
    "prior.q2.gamma_exp": (float, 1.0),
    "file.a": (str, {"file": None}),
    "file.b": (str, {"file": None}),
    "file.s_true": (str, {"file": None}),
    "file.mean": (str, {"file": None}),
    "file.samples": (str, {"file": None}),
    "select.method": (str, "wgcv"),
    "select.gamma": (float, None),
    "select.gamma_min": (float, 0.01),
    "select.omega": (float, None),
    "select.sigma2": (float, None),
    "select.grid_gamma": (int, 15),
    "select.grid_lambda": (int, 15),
    "select.log10_lambda_lo": (float, -6.0),
    "select.log10_lambda_hi": (float, 2.0),
    "stop.max_iter": (int, 100),
    "stop.flat_tol": (float, 1e-4),
    "stop.residual_tol": (float, 1e-6),
    "stop.window": (int, 3),
    "seed": (int, 0),
    "out": (str, None),
    "compare.variants": (str, "mix,q1,q2,identity"),
    "fit.probes": (int, 20),
    "fit.repeats": (int, 6),
}

_CHOICES = {
    "problem.preset": _PRESETS,
    "prior.mean": ("train", "zero"),
    "prior.q2.source": ("samples", "kernel", "identity"),
    "select.method": METHODS,
}


def read_config(path):
    """Parse a flat key=value config file; comments start with '#'."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def resolve_config(pairs):
    """Validate raw key=value pairs and fill the chosen preset's defaults.

    A key that the preset does not read is an error, not a silent no-op.
    """
    cfg = {}
    for key, value in pairs.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        caster = _KEYS[key][0]
        try:
            cfg[key] = caster(value) if isinstance(value, str) else value
        except (ValueError, TypeError):
            raise ConfigError(f"config key {key}: cannot parse {value!r}")
    preset = cfg.get("problem.preset", _KEYS["problem.preset"][1])
    if preset not in _PRESETS:
        raise ConfigError(f"problem.preset must be one of {_PRESETS}")
    for key, (_, default) in _KEYS.items():
        if isinstance(default, dict):
            if preset not in default:
                if key in cfg:
                    raise ConfigError(f"config key {key} is not read by "
                                      f"problem.preset={preset}")
                continue
            default = default[preset]
        if key not in cfg and default is not None:
            cfg[key] = default
    for key, allowed in _CHOICES.items():
        if key in cfg and cfg[key] not in allowed:
            raise ConfigError(f"config key {key} must be one of {allowed}")
    for key, value in cfg.items():
        if _KEYS[key][0] is float and not np.isfinite(value):
            raise ConfigError(f"config key {key} must be finite, got {value}")
    for key in ("noise.level", "noise.sigma"):
        if key in cfg and not cfg[key] > 0:
            raise ConfigError(f"config key {key} must be positive, "
                              f"got {cfg[key]}")
    for key, least in (("seed", 0), ("problem.train_count", 2),
                       ("fit.probes", 1), ("fit.repeats", 2)):
        if key in cfg and cfg[key] < least:
            raise ConfigError(f"config key {key} must be at least {least}, "
                              f"got {cfg[key]}")
    return cfg


# ---------------------------------------------------------------------------
# problem assembly


@dataclass
class Workload:
    """Everything one reconstruction needs, assembled from a config."""

    name: str
    A: LinearOperator
    b: np.ndarray
    b_true: np.ndarray
    s_true: np.ndarray
    sigma: float
    mean: np.ndarray
    grid: Grid
    sample: object
    q1: LinearOperator
    q2: LinearOperator
    learned: object = None

    @property
    def m(self):
        return self.A.rows

    @property
    def n(self):
        return self.A.cols


def _kernel_operator(prefix, cfg, grid, n):
    family = cfg[f"{prefix}.kernel"]
    if family == "identity":
        return identity_operator(n)
    if grid is None:
        raise ConfigError(
            f"{prefix}.kernel={family} needs a square grid; the problem size "
            "is not a perfect square"
        )
    spec = KernelSpec(family=family, ell=cfg[f"{prefix}.ell"],
                      nu=cfg[f"{prefix}.nu"],
                      gamma_exp=cfg[f"{prefix}.gamma_exp"])
    return build_kernel_operator(spec, grid)


def _learn_q1(cfg, work):
    """Fit the Q1 kernel's (nu, ell) to the workload's training samples."""
    if work.sample is None:
        raise ConfigError("learning the Q1 kernel needs training samples "
                          "(spherical preset or file.samples)")
    if work.grid is None:
        raise ConfigError("learning the Q1 kernel needs a square grid")
    family = cfg["prior.q1.kernel"]
    if family == "identity":
        raise ConfigError("learning the Q1 kernel needs a kernel family in "
                          "prior.q1.kernel")
    return learn_matern(work.sample, work.grid, family=family)


def assemble_workload(cfg):
    """Build operators, data, and priors for the configured problem."""
    preset = cfg["problem.preset"]
    seed = cfg["seed"]

    sample = None
    if preset == "spherical":
        size = cfg["problem.size"]
        prob = spherical_tomo(size, cfg["problem.angles"],
                              cfg["problem.circles"], seed=seed)
        train = gen_training_images(cfg["problem.train_count"], size, seed + 1)
        sample = sample_covariance(train.images.reshape(train.count, -1))
        b, sigma = add_noise(prob.b_clean, cfg["noise.level"], seed + 2)
        grid, s_true = prob.grid, prob.s_true
        A, b_true, name = prob.A, prob.b_clean, preset
    elif preset == "crosswell":
        size = cfg["problem.size"]
        prob = crosswell_tomo(size, cfg["problem.sources"],
                              cfg["problem.receivers"], seed=seed)
        b, sigma = add_noise(prob.b_clean, cfg["noise.level"], seed + 2)
        grid, s_true = prob.grid, prob.s_true
        A, b_true, name = prob.A, prob.b_clean, preset
    else:
        if not cfg.get("file.a") or not cfg.get("file.b"):
            raise ConfigError("problem.preset=file requires file.a and file.b")
        A = LinearOperator.from_matrix(load_matrix(cfg["file.a"]))
        b = load_vector(cfg["file.b"])
        if b.size != A.rows:
            raise ConfigError("file.b length does not match file.a rows")
        b_true = b.copy()
        s_true = None
        if cfg.get("file.s_true"):
            s_true = load_vector(cfg["file.s_true"])
        side = int(round(np.sqrt(A.cols)))
        grid = Grid(side, side) if side * side == A.cols else None
        sigma = cfg["noise.sigma"]
        if cfg.get("file.samples"):
            cols = load_samples(cfg["file.samples"])
            if len(cols) < 2:
                raise ConfigError(f"file.samples must hold at least 2 "
                                  f"samples, got {len(cols)}")
            sample = sample_covariance(cols)
            if sample.rows != A.cols:
                raise ConfigError("file.samples dimension does not match file.a")
        name = "file"

    n = A.cols
    mean_mode = cfg["prior.mean"]
    if cfg.get("file.mean"):
        mean = load_vector(cfg["file.mean"])
        if mean.size != n:
            raise ConfigError("file.mean length does not match file.a columns")
    elif mean_mode == "train":
        if sample is None:
            raise ConfigError("prior.mean=train needs training samples")
        mean = sample.mean.copy()
    else:
        mean = np.zeros(n)

    q2_source = cfg["prior.q2.source"]
    if q2_source == "samples":
        if sample is None:
            raise ConfigError("prior.q2.source=samples needs training samples")
        q2 = sample
    elif q2_source == "kernel":
        q2 = _kernel_operator("prior.q2", cfg, grid, n)
    else:
        q2 = identity_operator(n)

    work = Workload(name=name, A=A, b=np.asarray(b, dtype=float),
                    b_true=np.asarray(b_true, dtype=float), s_true=s_true,
                    sigma=float(sigma), mean=mean, grid=grid,
                    sample=sample, q1=None, q2=q2)
    if cfg["prior.q1.learn"]:
        work.learned = _learn_q1(cfg, work)
        cfg = {**cfg, "prior.q1.ell": work.learned.ell,
               "prior.q1.nu": work.learned.nu}
    work.q1 = _kernel_operator("prior.q1", cfg, grid, n)
    return work


def _search_config(cfg, work, method, gamma_fixed):
    sigma2 = cfg.get("select.sigma2")
    if sigma2 is None:
        sigma2 = work.sigma**2
    s_true = None
    if method == "optimal":
        if work.s_true is None:
            raise ConfigError("select.method=optimal requires file.s_true")
        s_true = work.s_true
    return SearchConfig(
        gamma_min=cfg["select.gamma_min"],
        gamma_fixed=gamma_fixed,
        grid_gamma=cfg["select.grid_gamma"],
        grid_lambda=cfg["select.grid_lambda"],
        log10_lambda=(cfg["select.log10_lambda_lo"],
                      cfg["select.log10_lambda_hi"]),
        sigma2=sigma2,
        omega=cfg.get("select.omega"),
        s_true=s_true,
    )


def _stopping_policy(cfg):
    return StoppingPolicy(max_iter=cfg["stop.max_iter"],
                          flat_tol=cfg["stop.flat_tol"],
                          residual_tol=cfg["stop.residual_tol"],
                          window=cfg["stop.window"])


# ---------------------------------------------------------------------------
# driver


@dataclass
class HybridResult:
    """Outcome of one hybrid reconstruction run."""

    history: list
    selections: list
    solution: np.ndarray
    stop_reason: str
    state: object = None

    @property
    def final(self):
        return self.history[-1]


def run_hybrid(A, Rinv, LR, prior, b, method="wgcv", search=None, policy=None,
               s_true=None):
    """Iterate expansion and selection until stopping.

    Each outer iteration advances the subspace once, picks (gamma, lambda)
    for the current projection, warm-started from the previous pick, and
    records the iterate recovered from the selected cell's projected
    weights.  Raises :class:`BreakdownError` if the very first basis vector
    cannot be built.
    """
    if search is None:
        search = SearchConfig()
    if policy is None:
        policy = StoppingPolicy()
    # shift out the prior mean: expand on b - A mu, add mu back on recovery
    b_shift = np.asarray(b, dtype=float) - A.matvec(prior.mean)
    state = mixgk_init(A, Rinv, LR, prior.q1, prior.q2, b_shift)
    if state.terminal:
        raise BreakdownError(
            "bidiagonalization broke down before the first iterate "
            f"({state.breakdown_reason})"
        )
    if s_true is not None:
        s_true = np.asarray(s_true, dtype=float)
        norm_true = np.linalg.norm(s_true)
    history, selections = [], []
    solution = None
    stop_reason = None
    while True:
        mixgk_step(state)
        sel = select_params(method, state, prior, search,
                            start=selections[-1] if selections else None)
        rel_res = float(np.sqrt(sel.r2)) / state.beta1
        solution = recover_iterate(state, prior, sel.gamma, sel.weights)
        rel_err = None
        if s_true is not None and norm_true > 0:
            rel_err = float(np.linalg.norm(solution - s_true) / norm_true)
        history.append(RunRecord(k=state.k, lam=sel.lam, gamma=sel.gamma,
                                 objective=sel.objective,
                                 rel_residual=rel_res, rel_error=rel_err))
        selections.append(sel)
        decision = stopping_check(history, policy)
        if decision.stop:
            stop_reason = decision.reason
            break
        if state.terminal:
            stop_reason = f"breakdown:{state.breakdown_reason}"
            break
    return HybridResult(history=history, selections=selections,
                        solution=solution, stop_reason=stop_reason,
                        state=state)


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # plain-float repr; numpy scalars would stringify as np.float64(x)
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_run_csv(path, history):
    _write_csv(path, ("k", "lambda", "gamma", "objective", "rel_residual",
                      "rel_error", "ms"),
               [(r.k, r.lam, r.gamma, r.objective, r.rel_residual,
                 r.rel_error, r.ms) for r in history])


def _write_params_csv(path, history, selections):
    _write_csv(path, ("k", "method", "gamma", "lambda", "objective",
                      "evaluations", "converged"),
               [(rec.k, sel.method, sel.gamma, sel.lam, sel.objective,
                 sel.evaluations, sel.converged)
                for rec, sel in zip(history, selections)])


def _write_images(outdir, work, result, summary):
    if work.grid is None:
        return
    shape = (work.grid.ny, work.grid.nx)
    lo, hi = write_pgm(outdir / "recon.pgm", result.solution.reshape(shape))
    summary.append(f"recon_scale: {_fmt(lo)} {_fmt(hi)}")
    if work.s_true is not None:
        lo, hi = write_pgm(outdir / "truth.pgm", work.s_true.reshape(shape))
        summary.append(f"truth_scale: {_fmt(lo)} {_fmt(hi)}")


def _summarize_run(work, method, result, summary):
    final = result.final
    summary.append(f"problem: {work.name}")
    summary.append(f"m: {work.m}")
    summary.append(f"n: {work.n}")
    summary.append(f"method: {method}")
    summary.append(f"iterations: {final.k}")
    summary.append(f"stop_reason: {result.stop_reason}")
    summary.append(f"gamma: {_fmt(final.gamma)}")
    summary.append(f"lambda: {_fmt(final.lam)}")
    summary.append(f"objective: {_fmt(final.objective)}")
    summary.append(f"rel_residual: {_fmt(final.rel_residual)}")
    summary.append(f"rel_error: {_fmt(final.rel_error)}")
    summary.append(f"noise_sigma: {_fmt(work.sigma)}")
    if work.s_true is not None:
        norm_true = np.linalg.norm(work.s_true)
        if norm_true > 0:
            start = float(np.linalg.norm(work.mean - work.s_true)) / norm_true
            summary.append(f"rel_error_start: {_fmt(start)}")
    if work.learned is not None:
        summary.append(f"learned_nu: {_fmt(work.learned.nu)}")
        summary.append(f"learned_ell: {_fmt(work.learned.ell)}")


def _outdir(cfg):
    if not cfg.get("out"):
        raise ConfigError("config key 'out' (output directory) is required")
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


# ---------------------------------------------------------------------------
# subcommands


def _solve_and_write(cfg, work, prior, gamma, outdir):
    """Run the hybrid solver on one prior and write its artifacts to
    ``outdir``: run.csv, params.csv, summary.txt and the images.

    ``gamma`` pins the mixing weight (None searches it).  Returns the
    :class:`HybridResult` and the solve time in milliseconds.
    """
    method = cfg["select.method"]
    search = _search_config(cfg, work, method, gamma)
    policy = _stopping_policy(cfg)
    Rinv, LR = noise_whitener(work.sigma**2, work.m)

    start = time.perf_counter()
    result = run_hybrid(work.A, Rinv, LR, prior, work.b, method=method,
                        search=search, policy=policy, s_true=work.s_true)
    elapsed = (time.perf_counter() - start) * 1e3

    outdir.mkdir(parents=True, exist_ok=True)
    _write_run_csv(outdir / "run.csv", result.history)
    _write_params_csv(outdir / "params.csv", result.history, result.selections)
    summary = []
    _summarize_run(work, method, result, summary)
    _write_images(outdir, work, result, summary)
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    return result, elapsed


def _cmd_run(cfg):
    outdir = _outdir(cfg)
    work = assemble_workload(cfg)
    prior = PriorSpec(mean=work.mean, q1=work.q1, q2=work.q2)
    result, elapsed = _solve_and_write(cfg, work, prior,
                                       cfg.get("select.gamma"), outdir)
    final = result.final
    print(f"run: k={final.k} gamma={final.gamma:.4g} lambda={final.lam:.4g} "
          f"stop={result.stop_reason} ({elapsed:.1f} ms)")
    return 0


def _blend_with_identity(sample, rho):
    n = sample.rows

    def apply(x):
        return rho * x + (1.0 - rho) * sample.matvec(x)

    return LinearOperator(n, n, apply, apply)


def _variant_runs(cfg, work):
    """Prior and pinned gamma (None to search) per compare variant.

    mix searches gamma over the full mixture unless ``select.gamma`` pins
    it; q1, q2 and identity fix gamma = 1 on a single covariance.  q2 uses
    the second component alone, blended with the identity by the shrinkage
    weight when it is sample-based (a bare sample covariance is
    rank-deficient and cannot anchor the bidiagonalization).
    """
    n = work.n
    zero = zero_operator(n)
    for tag in _parse_variants(cfg):
        note = ""
        gamma = 1.0
        if tag == "mix":
            prior = PriorSpec(mean=work.mean, q1=work.q1, q2=work.q2)
            gamma = cfg.get("select.gamma")
        elif tag == "q1":
            prior = PriorSpec(mean=work.mean, q1=work.q1, q2=zero)
        elif tag == "q2":
            if work.q2 is work.sample:
                rho = rblw_gamma(work.sample)
                op = _blend_with_identity(work.sample, rho)
                note = f"rblw_rho: {_fmt(rho)}"
            else:
                op = work.q2
            prior = PriorSpec(mean=work.mean, q1=op, q2=zero)
        else:
            prior = PriorSpec(mean=work.mean, q1=identity_operator(n), q2=zero)
        yield tag, prior, gamma, note


def _parse_variants(cfg):
    tags = [t.strip() for t in cfg["compare.variants"].split(",") if t.strip()]
    if not tags:
        raise ConfigError("compare.variants is empty")
    for i, tag in enumerate(tags):
        if tag not in _VARIANTS:
            raise ConfigError(
                f"unknown compare variant {tag!r}; allowed: {_VARIANTS}")
        if tag in tags[:i]:
            raise ConfigError(f"compare.variants names {tag!r} twice")
    return tags


def _cmd_compare(cfg):
    outdir = _outdir(cfg)
    work = assemble_workload(cfg)

    rows = []
    summary = [f"problem: {work.name}", f"m: {work.m}", f"n: {work.n}",
               f"method: {cfg['select.method']}"]
    for tag, prior, gamma, note in _variant_runs(cfg, work):
        result, elapsed = _solve_and_write(cfg, work, prior, gamma,
                                           outdir / tag)
        final = result.final
        rows.append((tag, final.k, final.gamma, final.lam, final.objective,
                     final.rel_residual, final.rel_error, result.stop_reason))
        summary.append(f"{tag}: k={final.k} rel_error={_fmt(final.rel_error)} "
                       f"stop={result.stop_reason}")
        if note:
            summary.append(note)
        print(f"compare[{tag}]: k={final.k} "
              f"rel_error={_fmt(final.rel_error)} ({elapsed:.1f} ms)")
    _write_csv(outdir / "compare.csv",
               ("variant", "k", "gamma", "lambda", "objective",
                "rel_residual", "rel_error", "stop_reason"), rows)
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    return 0


def _cmd_fit(cfg):
    outdir = _outdir(cfg)
    probes = cfg["fit.probes"]
    repeats = cfg["fit.repeats"]
    seed = cfg["seed"]
    family = cfg["prior.q1.kernel"]

    # with prior.q1.learn=true assembly has fitted the kernel already, so
    # the printed time covers assembly and fit
    start = time.perf_counter()
    work = assemble_workload(cfg)
    fit = work.learned or _learn_q1(cfg, work)
    elapsed = (time.perf_counter() - start) * 1e3

    # probe-count sweep at the learned parameters: standard error of the
    # mismatch estimate shrinks as the probe count grows
    spec = KernelSpec(family=family, ell=fit.ell, nu=fit.nu)
    kernel = build_kernel_operator(spec, work.grid)
    ladder = sorted({max(2, probes // 4), probes, 4 * probes})
    sweep = []
    for mi, count in enumerate(ladder):
        vals = []
        for rep in range(repeats):
            xi = rademacher_probes(work.grid.n, count,
                                   seed + 1000 * (mi + 1) + rep)
            vals.append(hutchinson_objective(spec, work.grid, work.sample, xi,
                                             kernel=kernel))
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(repeats))
        sweep.append((count, repeats, mean, se))
    _write_csv(outdir / "fit.csv",
               ("probes", "repeats", "mean_objective", "se_objective"), sweep)
    # a fit on the edge of its box, or with ell below one pixel, says so;
    # a parameter the family does not read is never reported
    clamped = [name for name, value, box in zip(("nu", "ell"),
                                                (fit.nu, fit.ell),
                                                fit_bounds(work.grid))
               if name in FAMILY_PARAMS[family]
               and np.isclose(np.log(value), np.log(box), rtol=0.0,
                              atol=1e-9).any()]
    pixel = min(work.grid.spacing) * work.grid.scale
    summary = [
        f"problem: {work.name}",
        f"family: {family}",
        f"samples: {work.sample.count}",
        f"prior.q1.nu={_fmt(fit.nu)}",
        f"prior.q1.ell={_fmt(fit.ell)}",
        f"objective: {_fmt(fit.objective)}",
        f"at_clamp: {','.join(clamped) or 'none'}",
        f"ell_pixels: {_fmt(fit.ell / pixel)}",
    ]
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    print(f"fit: nu={fit.nu:.4g} ell={fit.ell:.4g} ({elapsed:.1f} ms)")
    return 0


def _cmd_gen(cfg):
    outdir = _outdir(cfg)
    work = assemble_workload(cfg)
    save_matrix(outdir / "A.mtx", work.A.mat)
    save_vector(outdir / "b.mtx", work.b)
    save_vector(outdir / "b_true.mtx", work.b_true)
    summary = [f"problem: {work.name}", f"m: {work.m}", f"n: {work.n}",
               f"noise_sigma: {_fmt(work.sigma)}"]
    if work.s_true is not None:
        save_vector(outdir / "s_true.mtx", work.s_true)
        if work.grid is not None:
            shape = (work.grid.ny, work.grid.nx)
            lo, hi = write_pgm(outdir / "truth.pgm", work.s_true.reshape(shape))
            summary.append(f"truth_scale: {_fmt(lo)} {_fmt(hi)}")
    if work.sample is not None:
        cols = work.sample.mean[:, None] + work.sample.factor * np.sqrt(
            work.sample.count)
        save_matrix(outdir / "samples.mtx", cols)
        summary.append(f"samples: {work.sample.count}")
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    print(f"gen: wrote {work.name} problem to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _load_cfg(args):
    pairs = read_config(args.config)
    for item in args.overrides:
        key, eq, value = item.partition("=")
        if not eq or not key:
            raise ConfigError(f"override {item!r} is not key=value")
        pairs[key.strip()] = value.strip()
    if args.out:
        pairs["out"] = args.out
    return resolve_config(pairs)


# package whose bundled OpenBLAS build the CLI pins -> its thread setter
_BLAS_SETTERS = (("numpy", "scipy_openblas_set_num_threads64_"),
                 ("scipy", "scipy_openblas_set_num_threads"))


def _pin_blas_threads():
    """Run the OpenBLAS builds bundled with numpy and scipy on one thread,
    unless ``OPENBLAS_NUM_THREADS`` is set.

    Selection makes thousands of small LAPACK and BLAS calls, and more than
    one thread makes each of them pay thread start-up.  Only a library this
    process has already loaded is touched; where neither is found this does
    nothing.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    for package, symbol in _BLAS_SETTERS:
        module = sys.modules.get(package)
        if module is None:
            continue
        libs = Path(module.__file__).parents[1] / f"{package}.libs"
        for path in sorted(libs.glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path),
                                  mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:  # not loaded in this process
                continue
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)


def main(argv=None):
    _pin_blas_threads()
    parser = argparse.ArgumentParser(
        prog="mixkry",
        description="Hybrid projection solver for mixed Gaussian priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", _cmd_run), ("compare", _cmd_compare),
                          ("fit", _cmd_fit), ("gen", _cmd_gen)):
        p = sub.add_parser(name)
        p.add_argument("config", help="flat key=value config file")
        p.add_argument("overrides", nargs="*",
                       help="key=value overrides applied after the file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(_load_cfg(args))
    except (ConfigError, ArgumentError, DefinitenessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BreakdownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MixkryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
