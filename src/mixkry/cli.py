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
from dataclasses import dataclass, replace
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
from .mixgk import check_noise_pair, mixgk_init, mixgk_step
from .operators import (
    FAMILY_PARAMS,
    MATERN_NU_MAX,
    Grid,
    KernelSpec,
    LinearOperator,
    PriorSpec,
    build_kernel_operator,
    identity_operator,
    kernel_table,
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
    SPHERICAL_MIN_SIZE,
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
# kernel family -> the parameters it reads; the identity reads none
_FAMILIES = {**FAMILY_PARAMS, "identity": ()}


def _bool(text):
    if text.lower() in ("true", "yes", "1", "false", "no", "0"):
        return text.lower() in ("true", "yes", "1")
    raise ValueError(f"expected a boolean, got {text!r}")


def _items(text):
    return tuple(item.strip() for item in text.split(","))


# A positive scale s (a length, a noise level, a weight, a tolerance) lies
# in [1e-50, 1e50], so s^2 and 1/s^2 stay within 1e+-100: l^2, sigma^2,
# 1/sigma^2, nu l^2 and omega tr, also times data or a trace, neither
# overflow nor underflow.
_SCALE = (1e-50, 1e50)
# A kernel order nu stops at 1e6: rational-quadratic's (1 + z) ** -nu
# rounds 1 + z, a relative error of about nu eps / 2, 1e-10 at 1e6.  A
# Matern nu stops lower, at MATERN_NU_MAX (resolve_config).
_ORDER = (_SCALE[0], 1e6)
# SearchConfig's own bound: lambda^2 stays a normal float
_LOG10_LAMBDA = (-150.0, 150.0)

# key -> (caster, default, domain).  A dict default maps each preset that
# reads the key to its default there, a scalar one applies to every preset,
# and None leaves the key unset.  A domain is the allowed values (or items
# of a list), (lo, hi) for a number in [lo, hi], or None for a path.
_KEYS = {
    "problem.preset": (str, "spherical", _PRESETS),
    "problem.size": (int, {"spherical": 32, "crosswell": 64}, (4, np.inf)),
    "problem.angles": (int, {"spherical": 16}, (1, np.inf)),
    "problem.circles": (int, {"spherical": 24}, (1, np.inf)),
    "problem.sources": (int, {"crosswell": 10}, (1, np.inf)),
    "problem.receivers": (int, {"crosswell": 20}, (1, np.inf)),
    "problem.train_count": (int, {"spherical": 49}, (2, np.inf)),
    "noise.level": (float, {"spherical": 0.03, "crosswell": 0.01}, _SCALE),
    "noise.sigma": (float, {"file": 1.0}, _SCALE),
    "prior.mean": (str, {"spherical": "train", "crosswell": "zero",
                         "file": "zero"}, ("train", "zero")),
    "prior.q1.kernel": (str, {"spherical": "matern", "crosswell": "matern",
                              "file": "identity"}, tuple(_FAMILIES)),
    "prior.q1.ell": (float, 0.25, _SCALE),
    "prior.q1.nu": (float, 0.5, _ORDER),
    "prior.q1.gamma_exp": (float, 1.0, (_SCALE[0], 2.0)),
    "prior.q1.learn": (_bool, False, (False, True)),
    "prior.q2.source": (str, {"spherical": "samples", "crosswell": "kernel",
                              "file": "identity"},
                        ("samples", "kernel", "identity")),
    "prior.q2.kernel": (str, "rational-quadratic", tuple(_FAMILIES)),
    "prior.q2.ell": (float, 0.1, _SCALE),
    "prior.q2.nu": (float, 2.0, _ORDER),
    "prior.q2.gamma_exp": (float, 1.0, (_SCALE[0], 2.0)),
    "file.a": (str, {"file": None}, None),
    "file.b": (str, {"file": None}, None),
    "file.s_true": (str, {"file": None}, None),
    "file.mean": (str, {"file": None}, None),
    "file.samples": (str, {"file": None}, None),
    "select.method": (str, "wgcv", METHODS),
    "select.gamma": (float, None, (_SCALE[0], 1.0)),
    "select.gamma_min": (float, 0.01, (_SCALE[0], 1.0)),
    "select.omega": (float, None, _SCALE),
    "select.grid_gamma": (int, 15, (1, np.inf)),
    "select.grid_lambda": (int, 15, (2, np.inf)),
    "select.log10_lambda_lo": (float, -6.0, _LOG10_LAMBDA),
    "select.log10_lambda_hi": (float, 2.0, _LOG10_LAMBDA),
    "stop.max_iter": (int, 100, (1, np.inf)),
    "stop.flat_tol": (float, 1e-4, _SCALE),
    "stop.residual_tol": (float, 1e-6, (0.0, _SCALE[1])),
    "stop.window": (int, 3, (2, np.inf)),
    "seed": (int, 0, (0, np.inf)),
    "out": (str, None, None),
    "compare.variants": (_items, _VARIANTS, _VARIANTS),
    "fit.probes": (int, 20, (1, np.inf)),
    "fit.repeats": (int, 6, (2, np.inf)),
}


def _domain_text(key):
    """What ``key`` accepts, as the errors and README's config table say."""
    caster, _, domain = _KEYS[key]
    if domain is None:
        return "a path"
    if caster is int:
        return f"an integer >= {domain[0]}"
    if caster is float:
        text = "in [{:g}, {:g}]".format(*domain)
        if key.endswith(".nu"):
            text += f"; at most {MATERN_NU_MAX:g} under matern"
        return text
    kind = "distinct items of" if caster is _items else "one of"
    return f"{kind} {', '.join(map(_fmt, domain))}"


def _check(key, value):
    """Raise a ConfigError naming ``key`` unless ``value`` is in its domain."""
    caster, _, domain = _KEYS[key]
    if caster in (int, float):
        ok = domain[0] <= value <= domain[1]
    elif caster is _items:
        ok = len(set(value)) == len(value) and set(value) <= set(domain)
    else:
        ok = domain is None or value in domain
    if not ok:
        raise ConfigError(f"config key {key} must be {_domain_text(key)}, "
                          f"got {value!r}")


def _unread(key, cfg):
    """The setting under which a config does not read ``key``, or None."""
    preset = cfg["problem.preset"]
    if isinstance(_KEYS[key][1], dict) and preset not in _KEYS[key][1]:
        return f"problem.preset={preset}"
    prior, _, name = key.rpartition(".")
    source = cfg["prior.q2.source"]
    if prior == "prior.q2" and name != "source" and source != "kernel":
        return f"prior.q2.source={source}"
    if key in ("prior.q1.ell", "prior.q1.nu") and cfg["prior.q1.learn"]:
        return "prior.q1.learn=true"
    method = cfg["select.method"]
    # an unknown method fails the domain test instead
    if key == "select.omega" and method in METHODS and method != "wgcv":
        return f"select.method={method}"
    if name in ("ell", "nu", "gamma_exp"):
        family = cfg[f"{prior}.kernel"]
        # an unknown family fails the domain test instead
        if name not in _FAMILIES.get(family, (name,)):
            return f"{prior}.kernel={family}"
    return None


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

    A set key that the config does not read (see :func:`_unread`) is an
    error, not a silent no-op, and so is a value outside the key's domain.
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
    preset = cfg.setdefault("problem.preset", _KEYS["problem.preset"][1])
    _check("problem.preset", preset)
    for key, (_, default, _) in _KEYS.items():
        if isinstance(default, dict):
            default = default.get(preset)
        if key not in cfg and default is not None:
            cfg[key] = default
    for key in pairs:
        reason = _unread(key, cfg)
        if reason:
            raise ConfigError(f"config key {key} is not read by {reason}")
    for key, value in cfg.items():
        _check(key, value)
    if preset == "spherical" and cfg["problem.size"] < SPHERICAL_MIN_SIZE:
        raise ConfigError(f"config key problem.size must be an integer >= "
                          f"{SPHERICAL_MIN_SIZE} under problem.preset="
                          f"spherical, got {cfg['problem.size']}")
    for prior in ("prior.q1", "prior.q2"):
        key = f"{prior}.nu"
        if (cfg[f"{prior}.kernel"] == "matern" and _unread(key, cfg) is None
                and cfg[key] > MATERN_NU_MAX):
            raise ConfigError(f"config key {key} must be "
                              f"{_domain_text(key)}, got {cfg[key]!r}")
    return cfg


# ---------------------------------------------------------------------------
# problem assembly


@dataclass
class Workload:
    """The problem every command reads: operator, data, training samples.

    A synthetic problem's ``A`` and ``sample`` are shared by every workload
    :func:`assemble_workload` returns for it, and their arrays are
    read-only; ``b``, ``b_true`` and ``s_true`` are each workload's own.
    """

    name: str
    A: LinearOperator
    b: np.ndarray
    b_true: np.ndarray
    s_true: np.ndarray
    sigma: float
    grid: Grid
    sample: object

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
        raise ConfigError(f"{prefix}.kernel={family} needs a square grid; "
                          "the problem size is not a perfect square")
    spec = KernelSpec(family=family, ell=cfg[f"{prefix}.ell"],
                      nu=cfg[f"{prefix}.nu"],
                      gamma_exp=cfg[f"{prefix}.gamma_exp"])
    # a kernel that is 1 at every offset makes every pixel equal: rank one
    table = kernel_table(spec, grid)
    if np.all(table == 1.0):
        raise ConfigError(f"the kernel {_kernel_keys(prefix, cfg)} is 1 at "
                          "every grid offset: a rank-one covariance")
    return build_kernel_operator(spec, grid, table)


def _kernel_keys(prefix, cfg):
    """``prefix``'s kernel family and the parameters it reads, as config
    keys with their values."""
    keys = ("kernel",) + _FAMILIES[cfg[f"{prefix}.kernel"]]
    return ", ".join(f"{prefix}.{k}={_fmt(cfg[f'{prefix}.{k}'])}"
                     for k in keys)


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
    return learn_matern(work.sample, work.grid, family=family,
                        gamma_exp=cfg["prior.q1.gamma_exp"])


def _load(cfg, key, loader):
    """``loader`` applied to the path in ``cfg[key]``; a file that cannot
    be read or parsed, or that holds a NaN or an infinity, is a config
    error that names the key."""
    try:
        value = loader(cfg[key])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config key {key}: cannot load {cfg[key]!r}: {exc}")
    # a sparse matrix is checked on its stored entries, samples one by one
    for arr in value if isinstance(value, list) else [value]:
        entries = arr.data if hasattr(arr, "toarray") else arr
        if not np.isfinite(entries).all():
            raise ConfigError(f"config key {key}: {cfg[key]!r} holds a NaN "
                              f"or an infinity")
    return value


# the last synthetic problem this process assembled, as (key, Workload)
_LAST = None


def _problem_key(cfg):
    """The resolved values a synthetic problem is built from: the seed and
    every problem.* and noise.* key."""
    return tuple(sorted((key, value) for key, value in cfg.items()
                        if key == "seed"
                        or key.startswith(("problem.", "noise."))))


def _synthetic_workload(cfg):
    """The spherical or crosswell problem, with ``A`` and the training
    samples made read-only so that the memo can share them."""
    preset, seed, size = cfg["problem.preset"], cfg["seed"], cfg["problem.size"]
    sample = None
    if preset == "spherical":
        prob = spherical_tomo(size, cfg["problem.angles"],
                              cfg["problem.circles"], seed=seed)
        sample = sample_covariance(gen_training_images(
            cfg["problem.train_count"], size, seed + 1))
    else:
        prob = crosswell_tomo(size, cfg["problem.sources"],
                              cfg["problem.receivers"], seed=seed)
    b, sigma = add_noise(prob.b_clean, cfg["noise.level"], seed + 2)
    mat = prob.A.mat
    shared = [mat.data, mat.indices, mat.indptr]
    if sample is not None:
        shared += [sample.factor, sample.mean]
    for arr in shared:
        arr.flags.writeable = False
    return Workload(name=preset, A=prob.A, b=b, b_true=prob.b_clean,
                    s_true=prob.s_true, sigma=sigma, grid=prob.grid,
                    sample=sample)


def _file_workload(cfg):
    if not cfg.get("file.a") or not cfg.get("file.b"):
        raise ConfigError("problem.preset=file requires file.a and file.b")
    A = LinearOperator.from_matrix(_load(cfg, "file.a", load_matrix))
    b = _load(cfg, "file.b", load_vector)
    if b.size != A.rows:
        raise ConfigError("file.b length does not match file.a rows")
    s_true = None
    if cfg.get("file.s_true"):
        s_true = _load(cfg, "file.s_true", load_vector)
    side = int(round(np.sqrt(A.cols)))
    grid = Grid(side, side) if side * side == A.cols else None
    sample = None
    if cfg.get("file.samples"):
        cols = _load(cfg, "file.samples", load_samples)
        if len(cols) < 2:
            raise ConfigError(f"file.samples must hold at least 2 "
                              f"samples, got {len(cols)}")
        sample = sample_covariance(cols)
        if sample.rows != A.cols:
            raise ConfigError("file.samples dimension does not match file.a")
    return Workload(name="file", A=A, b=b, b_true=b.copy(), s_true=s_true,
                    sigma=float(cfg["noise.sigma"]), grid=grid, sample=sample)


def assemble_workload(cfg):
    """Build the forward operator, data and training samples for the
    configured problem.

    A synthetic problem (spherical or crosswell) is built once per process
    for as long as its seed and its problem.* and noise.* values repeat:
    the last one is kept, and dropped before a different one is built.
    Each call returns its own copies of ``b``, ``b_true`` and ``s_true``,
    and shares ``A`` and ``sample``, whose arrays are read-only.  The file
    preset reads its files at every call.
    """
    global _LAST
    if cfg["problem.preset"] == "file":
        return _file_workload(cfg)
    key = _problem_key(cfg)
    if _LAST is None or _LAST[0] != key:
        _LAST = None  # never hold two problems at once
        _LAST = key, _synthetic_workload(cfg)
    work = _LAST[1]
    return replace(work, b=work.b.copy(), b_true=work.b_true.copy(),
                   s_true=work.s_true.copy())


def _prior(cfg, work):
    """The configured mixed prior on ``work``, the learned Q1 fit (None
    unless ``prior.q1.learn``), and ``(operator, keys)`` for each
    kernel-built covariance, so that a solve can name the keys of one that
    fails its definiteness checks."""
    n, sample = work.n, work.sample
    if cfg.get("file.mean"):
        mean = _load(cfg, "file.mean", load_vector)
        if mean.size != n:
            raise ConfigError("file.mean length does not match file.a columns")
    elif cfg["prior.mean"] == "train":
        if sample is None:
            raise ConfigError("prior.mean=train needs training samples")
        mean = sample.mean.copy()
    else:
        mean = np.zeros(n)

    kernels = []
    if cfg["prior.q2.source"] == "samples":
        if sample is None:
            raise ConfigError("prior.q2.source=samples needs training samples")
        q2 = sample
    elif cfg["prior.q2.source"] == "kernel":
        q2 = _kernel_operator("prior.q2", cfg, work.grid, n)
        kernels.append((q2, _kernel_keys("prior.q2", cfg)))
    else:
        q2 = identity_operator(n)

    learned = None
    if cfg["prior.q1.learn"]:
        learned = _learn_q1(cfg, work)
        cfg = {**cfg, "prior.q1.ell": learned.ell, "prior.q1.nu": learned.nu}
    q1 = _kernel_operator("prior.q1", cfg, work.grid, n)
    kernels.append((q1, _kernel_keys("prior.q1", cfg)))
    return PriorSpec(mean=mean, q1=q1, q2=q2), learned, kernels


def _search_config(cfg, work, method, gamma_fixed):
    # run_hybrid hands its s_true to the optimal search
    if method == "optimal" and work.s_true is None:
        raise ConfigError("select.method=optimal requires file.s_true")
    return SearchConfig(
        gamma_min=cfg["select.gamma_min"],
        gamma_fixed=gamma_fixed,
        grid_gamma=cfg["select.grid_gamma"],
        grid_lambda=cfg["select.grid_lambda"],
        log10_lambda=(cfg["select.log10_lambda_lo"],
                      cfg["select.log10_lambda_hi"]),
        omega=cfg.get("select.omega"),
    )


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

    ``Rinv`` and ``LR`` give the noise as R^{-1} = L_R^T L_R, checked once;
    ``LR`` needs a transpose action.  The process runs on L_R A and L_R (b -
    A mu).  Each outer iteration advances the subspace once, picks (gamma,
    lambda) for the current projection, warm-started from the previous
    pick, and records the iterate recovered from the selected cell's
    projected weights.  ``s_true`` fills in ``rel_error``, and also the
    ``optimal`` search's truth when ``search`` holds none.  Raises
    :class:`BreakdownError` if the very first basis vector cannot be built.
    """
    search = search or SearchConfig()
    if search.s_true is None and s_true is not None:
        search = replace(search, s_true=s_true)
    policy = policy or StoppingPolicy()
    check_noise_pair(Rinv, LR, A.rows)
    white = LinearOperator(A.rows, A.cols, lambda x: LR.matvec(A.matvec(x)),
                           lambda y: A.rmatvec(LR.rmatvec(y)))
    # shift out the prior mean: expand on b - A mu, add mu back on recovery
    b_shift = LR.matvec(np.asarray(b, dtype=float) - A.matvec(prior.mean))
    state = mixgk_init(white, prior.q1, prior.q2, b_shift)
    if state.terminal:
        raise BreakdownError(
            "bidiagonalization broke down before the first iterate "
            f"({state.breakdown_reason})"
        )
    if s_true is not None:
        s_true = np.asarray(s_true, dtype=float)
        norm_true = np.linalg.norm(s_true)
    history, selections = [], []
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
        stop_reason = stopping_check(history, policy)
        if stop_reason:
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
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_images(outdir, work, result, summary):
    if work.grid is None:
        return
    shape = (work.grid.ny, work.grid.nx)
    lo, hi = write_pgm(outdir / "recon.pgm", result.solution.reshape(shape))
    summary.append(f"recon_scale: {_fmt(lo)} {_fmt(hi)}")
    if work.s_true is not None:
        lo, hi = write_pgm(outdir / "truth.pgm", work.s_true.reshape(shape))
        summary.append(f"truth_scale: {_fmt(lo)} {_fmt(hi)}")


def _summarize_run(work, prior, learned, method, result, summary):
    final = result.final
    summary += [
        f"problem: {work.name}", f"m: {work.m}", f"n: {work.n}",
        f"method: {method}", f"iterations: {final.k}",
        f"stop_reason: {result.stop_reason}", f"gamma: {_fmt(final.gamma)}",
        f"lambda: {_fmt(final.lam)}", f"objective: {_fmt(final.objective)}",
        f"rel_residual: {_fmt(final.rel_residual)}",
        f"rel_error: {_fmt(final.rel_error)}",
        f"noise_sigma: {_fmt(work.sigma)}"]
    if work.s_true is not None:
        norm_true = np.linalg.norm(work.s_true)
        if norm_true > 0:
            start = float(np.linalg.norm(prior.mean - work.s_true)) / norm_true
            summary.append(f"rel_error_start: {_fmt(start)}")
    if learned is not None:
        summary.append(f"learned_nu: {_fmt(learned.nu)}")
        summary.append(f"learned_ell: {_fmt(learned.ell)}")


def _outdir(cfg):
    if not cfg.get("out"):
        raise ConfigError("config key 'out' (output directory) is required")
    return Path(cfg["out"])


# ---------------------------------------------------------------------------
# subcommands


def _solve(cfg, work, prior, kernels, gamma):
    """Run the hybrid solver on one prior.

    ``kernels`` holds the ``(operator, keys)`` pairs of :func:`_prior`, and
    ``gamma`` pins the mixing weight (None searches it).  A covariance that
    fails the process's definiteness checks raises
    :class:`DefinitenessError` naming the keys of the kernel that built it.
    Returns the :class:`HybridResult` and the solve time in milliseconds.
    """
    method = cfg["select.method"]
    search = _search_config(cfg, work, method, gamma)
    policy = StoppingPolicy(max_iter=cfg["stop.max_iter"],
                            flat_tol=cfg["stop.flat_tol"],
                            residual_tol=cfg["stop.residual_tol"],
                            window=cfg["stop.window"])
    Rinv, LR = noise_whitener(work.sigma**2, work.m)

    start = time.perf_counter()
    try:
        result = run_hybrid(work.A, Rinv, LR, prior, work.b, method=method,
                            search=search, policy=policy, s_true=work.s_true)
    except DefinitenessError as exc:
        # the process names the failing covariance by its role, Q1 or Q2
        role = {"Q1": prior.q1, "Q2": prior.q2}.get(str(exc).split(" ")[0])
        for op, keys in kernels:
            if op is role:
                raise DefinitenessError(f"the kernel {keys} is not a usable "
                                        f"covariance on this grid: {exc}"
                                        ) from exc
        raise
    elapsed = (time.perf_counter() - start) * 1e3
    return result, elapsed


def _write_run(outdir, work, prior, learned, method, result):
    """Write one solve's run.csv, params.csv, summary.txt and images to
    ``outdir``; ``learned`` is the Q1 fit the summary reports (or None)."""
    outdir.mkdir(parents=True, exist_ok=True)
    history = result.history
    # bench/workloads.RUN_CSV requires the ms header until ROADMAP item 6
    # replaces the column; no step is timed, so it holds 0.0
    _write_csv(outdir / "run.csv", ("k", "lambda", "gamma", "objective",
                                    "rel_residual", "rel_error", "ms"),
               [(r.k, r.lam, r.gamma, r.objective, r.rel_residual,
                 r.rel_error, 0.0) for r in history])
    _write_csv(outdir / "params.csv", ("k", "method", "gamma", "lambda",
                                       "objective", "evaluations",
                                       "converged"),
               [(rec.k, sel.method, sel.gamma, sel.lam, sel.objective,
                 sel.evaluations, sel.converged)
                for rec, sel in zip(history, result.selections)])
    summary = []
    _summarize_run(work, prior, learned, method, result, summary)
    _write_images(outdir, work, result, summary)
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")


def _cmd_run(cfg):
    outdir = _outdir(cfg)
    work = assemble_workload(cfg)
    prior, learned, kernels = _prior(cfg, work)
    result, elapsed = _solve(cfg, work, prior, kernels,
                             cfg.get("select.gamma"))
    _write_run(outdir, work, prior, learned, cfg["select.method"], result)
    final = result.final
    print(f"run: k={final.k} gamma={final.gamma:.4g} lambda={final.lam:.4g} "
          f"stop={result.stop_reason} ({elapsed:.1f} ms)")
    return 0


def _blend_with_identity(sample, rho):
    n = sample.rows

    def apply(x):
        return rho * x + (1.0 - rho) * sample.matvec(x)

    return LinearOperator(n, n, apply, apply)


def _variant_runs(cfg, work, prior):
    """Prior and pinned gamma (None to search) per compare variant, from
    the configured ``prior``.

    mix searches gamma over the full mixture unless ``select.gamma`` pins
    it; q1, q2 and identity fix gamma = 1 on a single covariance.  q2 uses
    the second component alone, blended with the identity by the shrinkage
    weight when it is sample-based (a bare sample covariance is
    rank-deficient and cannot anchor the bidiagonalization).
    """
    zero = zero_operator(work.n)
    for tag in cfg["compare.variants"]:
        note, gamma = "", 1.0
        if tag == "mix":
            variant = prior
            gamma = cfg.get("select.gamma")
        elif tag == "q1":
            variant = replace(prior, q2=zero)
        elif tag == "q2":
            if prior.q2 is work.sample:
                rho = rblw_gamma(work.sample)
                op = _blend_with_identity(work.sample, rho)
                note = f"rblw_rho: {_fmt(rho)}"
            else:
                op = prior.q2
            variant = replace(prior, q1=op, q2=zero)
        else:
            variant = replace(prior, q1=identity_operator(work.n), q2=zero)
        yield tag, variant, gamma, note


def _cmd_compare(cfg):
    outdir = _outdir(cfg)
    work = assemble_workload(cfg)
    prior, learned, kernels = _prior(cfg, work)

    method = cfg["select.method"]
    solved = []
    for tag, variant, gamma, note in _variant_runs(cfg, work, prior):
        result, elapsed = _solve(cfg, work, variant, kernels, gamma)
        # no artifact reads the process state, so only one is ever held
        result.state = None
        solved.append((tag, variant, note, result))
        print(f"compare[{tag}]: k={result.final.k} "
              f"rel_error={_fmt(result.final.rel_error)} ({elapsed:.1f} ms)")

    # nothing is written until every variant has solved: all or nothing
    rows = []
    summary = [f"problem: {work.name}", f"m: {work.m}", f"n: {work.n}",
               f"method: {method}"]
    for tag, variant, note, result in solved:
        _write_run(outdir / tag, work, variant, learned, method, result)
        final = result.final
        rows.append((tag, final.k, final.gamma, final.lam, final.objective,
                     final.rel_residual, final.rel_error, result.stop_reason))
        summary.append(f"{tag}: k={final.k} rel_error={_fmt(final.rel_error)} "
                       f"stop={result.stop_reason}")
        if note:
            summary.append(note)
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

    start = time.perf_counter()
    work = assemble_workload(cfg)
    fit = _learn_q1(cfg, work)
    elapsed = (time.perf_counter() - start) * 1e3

    # a Hutchinson estimate of the mismatch at the learned parameters, with
    # its standard error over fit.repeats seeded probe blocks
    spec = KernelSpec(family=family, ell=fit.ell, nu=fit.nu,
                      gamma_exp=cfg["prior.q1.gamma_exp"])
    kernel = build_kernel_operator(spec, work.grid)
    vals = [hutchinson_objective(kernel, work.sample,
                                 rademacher_probes(work.grid.n, probes,
                                                   seed + 2000 + rep))
            for rep in range(repeats)]
    se = float(np.std(vals, ddof=1) / np.sqrt(repeats))
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "fit.csv",
               ("probes", "repeats", "mean_objective", "se_objective"),
               [(probes, repeats, float(np.mean(vals)), se)])
    # a fit on the edge of its box, or with ell below one pixel, says so;
    # a parameter the family does not read is never reported
    clamped = [name for name, value, box in zip(("nu", "ell"),
                                                (fit.nu, fit.ell),
                                                fit_bounds(work.grid))
               if name in FAMILY_PARAMS[family]
               and np.isclose(np.log(value), np.log(box), rtol=0.0,
                              atol=1e-9).any()]
    # paste-ready lines for the parameters the family reads
    fitted = {"nu": fit.nu, "ell": fit.ell, "gamma_exp": spec.gamma_exp}
    summary = [
        f"problem: {work.name}",
        f"family: {family}",
        f"samples: {work.sample.count}",
        *(f"prior.q1.{name}={_fmt(fitted[name])}"
          for name in FAMILY_PARAMS[family]),
        f"objective: {_fmt(fit.objective)}",
        f"at_clamp: {','.join(clamped) or 'none'}",
        f"ell_pixels: {_fmt(fit.ell / work.grid.scale)}",
    ]
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    print(f"fit: nu={fit.nu:.4g} ell={fit.ell:.4g} ({elapsed:.1f} ms)")
    return 0


def _cmd_gen(cfg):
    outdir = _outdir(cfg)
    work = assemble_workload(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
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


# command -> prefixes of the config keys it never reads; only an override
# is held to this, so that one config file serves every command.  gen builds
# no prior, and fit reads only Q1's family and exponent.
_SOLVE = ("select.", "stop.", "compare.")
_SKIPS = {"run": ("compare.", "fit."), "compare": ("fit.",),
          "fit": _SOLVE + ("prior.mean", "prior.q2.", "prior.q1.ell",
                           "prior.q1.nu", "prior.q1.learn", "file.mean"),
          "gen": _SOLVE + ("fit.", "prior.", "file.mean")}


def _load_cfg(args):
    pairs = read_config(args.config)
    for item in args.overrides:
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq or not key:
            raise ConfigError(f"override {item!r} is not key=value")
        if key in _KEYS and key.startswith(_SKIPS[args.command]):
            raise ConfigError(f"config key {key} is not read by "
                              f"mixkry {args.command}")
        pairs[key] = value
    if args.out:
        pairs["out"] = args.out
    return resolve_config(pairs)


def _pin_blas_threads():
    """Run the OpenBLAS build bundled with numpy on one thread, unless
    ``OPENBLAS_NUM_THREADS`` is set.

    Selection makes thousands of small LAPACK and BLAS calls, and more than
    one thread makes each of them pay thread start-up.  Only a library this
    process has already loaded is touched; where none is found this does
    nothing.  scipy's build is not pinned: only the Matrix Market I/O
    imports scipy, and it makes no BLAS calls.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:  # not loaded in this process
            continue
        setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


# error classes -> exit code, first match wins
_EXIT_CODES = (((ConfigError, ArgumentError, DefinitenessError), 2),
               (BreakdownError, 3), (SearchError, 4), (MixkryError, 1))


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
    except MixkryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES
                    if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
