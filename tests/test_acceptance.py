"""End-to-end acceptance checks.

Eight criteria, one test each, every test printing a single PASS line with
the measured numbers once its assertions hold.  Run with ``-s`` to see the
lines as they happen.
"""

import time

import numpy as np
import pytest

from helpers import (OpCounter, dense_kernel, max_principal_angle,
                     random_problem, recurrence_residual, run_steps,
                     solve_map_dense, wrap_problem)
from mixkry import cli
from mixkry.learn import hutchinson_objective, rademacher_probes
from mixkry.mixgk import (mixgk_init, mixgk_step, qr_append_update,
                          qr_recompute)
from mixkry.operators import (Grid, KernelSpec, PriorSpec, SampleFactor,
                              sample_covariance)
from mixkry.params import upre_objective, wgcv_objective
from mixkry.projected import build_projected, recover_iterate, solve_column

SPHERICAL_CFG = """\
problem.preset = spherical
problem.size = 32
problem.train_count = 49
noise.level = 0.03
seed = 101
"""

CROSSWELL_CFG = """\
problem.preset = crosswell
problem.size = 64
noise.level = 0.01
seed = 202
select.method = optimal
compare.variants = mix,q1,q2
"""


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[1:]]


def final_error(outdir):
    rows = read_rows(outdir / "run.csv")
    return float(rows[-1]["rel_error"]), int(rows[-1]["k"])


def stop_reason(outdir):
    text = (outdir / "summary.txt").read_text()
    line = [l for l in text.splitlines() if l.startswith("stop_reason:")][0]
    return line.split(":", 1)[1].strip()


# -- criterion 1: finite termination ------------------------------------------


def test_criterion_1_finite_termination():
    """At k = n (or breakdown) the recovered iterate is the MAP estimate."""
    t0 = time.perf_counter()
    A, Q1, Q2, b, sigma = random_problem(20, 25, 20, q2_rank=5)
    Aop, q1op, q2op, Rinv, LR = wrap_problem(A, Q1, Q2, sigma)
    prior = PriorSpec(mean=np.zeros(20), q1=q1op, q2=q2op)
    state = mixgk_init(Aop, Rinv, LR, q1op, q2op, b)
    run_steps(state, 20, mixgk_step)
    assert state.terminal or state.k == 20

    worst = 0.0
    for gamma, lam in ((1.0, 0.7), (0.5, 0.3), (0.2, 1.1)):
        y = solve_column(build_projected(state, gamma), [lam])[0][0]
        s = recover_iterate(state, prior, gamma, y)
        Q = gamma * Q1 + (1 - gamma) * Q2
        s_ref = solve_map_dense(A, np.eye(25) / sigma**2, Q, b,
                                np.zeros(20), lam)
        worst = max(worst, np.linalg.norm(s - s_ref) / np.linalg.norm(s_ref))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 1.0
    print(f"criterion 1: PASS (max rel error {worst:.2e} at k={state.k}, "
          f"{elapsed:.2f}s)")


# -- criterion 2: recurrence suite ---------------------------------------------


def test_criterion_2_recurrence_suite():
    """All process relations hold to 1e-9 on 20 seeds out to k = 15."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        A, Q1, Q2, b, sigma = random_problem(seed, 25, 20)
        Aop, q1op, q2op, Rinv, LR = wrap_problem(A, Q1, Q2, sigma)
        state = mixgk_init(Aop, Rinv, LR, q1op, q2op, b)
        prior = PriorSpec(mean=np.zeros(20), q1=q1op, q2=q2op)
        for _ in range(15):
            if state.terminal:
                break
            mixgk_step(state)
            worst = max(worst, recurrence_residual(state, prior, A, Q1, Q2,
                                                   b, sigma))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(f"criterion 2: PASS (worst relation residual {worst:.2e}, "
          f"{elapsed:.2f}s)")


# -- criterion 3: QR update vs recompute ----------------------------------------


def test_criterion_3_qr_update_equivalence():
    """Rank-one update tracks the dense recompute over 50 steps and costs
    O(mk) per step against the recompute's O(mk^2)."""
    rng = np.random.default_rng(21)
    m, steps = 400, 50
    Ut = np.linalg.qr(rng.standard_normal((m, 1)))[0]
    Y = np.zeros((m, 0))
    Rup = np.zeros((0, 0))
    Z = np.zeros((m, 0))
    worst_angle = 0.0
    up_costs, re_costs = [], []
    for _ in range(steps):
        z = rng.standard_normal(m)
        Z = np.column_stack([Z, z])
        u_new = rng.standard_normal(m)
        u_new -= Ut @ (Ut.T @ u_new)
        u_new /= np.linalg.norm(u_new)
        Ut = np.column_stack([Ut, u_new])
        vhat = z - Ut @ (Ut.T @ z)
        c_up = OpCounter()
        Y, Rup = qr_append_update(Y, Rup, u_new, vhat,
                                  input_norm=np.linalg.norm(z), counter=c_up)
        c_re = OpCounter()
        Yref, _ = qr_recompute(Ut, Z, counter=c_re)
        worst_angle = max(worst_angle, max_principal_angle(Y, Yref))
        up_costs.append(c_up.flops)
        re_costs.append(c_re.flops)
    assert worst_angle <= 1e-8
    # growth from step 10 to step 50: ~5x for O(mk), ~25x for O(mk^2)
    up_ratio = up_costs[-1] / up_costs[9]
    re_ratio = re_costs[-1] / re_costs[9]
    assert up_ratio < 10
    assert re_ratio > 15
    assert re_costs[-1] > 5 * up_costs[-1]
    print(f"criterion 3: PASS (max angle {worst_angle:.2e}, cost growth "
          f"update {up_ratio:.1f}x vs recompute {re_ratio:.1f}x)")


# -- criterion 4: parameter-rule convergence -------------------------------------


def test_criterion_4_parameter_rules_at_full_dimension():
    """Projected UPRE and weighted GCV share their grid argmin with the
    full-space rules on a 40 x 40 (gamma, lambda) grid at k = n."""
    rng = np.random.default_rng(40)
    m, n = 20, 15
    A = rng.standard_normal((m, n))
    B1 = rng.standard_normal((n, n))
    Q1 = B1 @ B1.T + 0.5 * np.eye(n)
    B2 = rng.standard_normal((n, 6))
    Q2 = B2 @ B2.T + 0.2 * np.eye(n)
    sigma = 0.08
    b = A @ rng.standard_normal(n) + sigma * rng.standard_normal(m)

    Aop, q1op, q2op, Rinv, LR = wrap_problem(A, Q1, Q2, sigma)
    state = mixgk_init(Aop, Rinv, LR, q1op, q2op, b)
    run_steps(state, n, mixgk_step)
    assert state.k == n

    gammas = np.linspace(0.05, 1.0, 40)
    lams = np.logspace(-3, 2, 40)
    omega = (2.0 * n + 1.0) / m

    P_upre = np.zeros((40, 40))
    P_wgcv = np.zeros((40, 40))
    F_upre = np.zeros((40, 40))
    F_gcv = np.zeros((40, 40))
    for gi, gamma in enumerate(gammas):
        sys = build_projected(state, float(gamma))
        Q = gamma * Q1 + (1 - gamma) * Q2
        K = (A @ Q @ A.T) / sigma**2
        theta, V = np.linalg.eigh(K)
        theta = np.maximum(theta, 0.0)
        c = V.T @ (b / sigma)
        for li, lam in enumerate(lams):
            P_upre[gi, li] = upre_objective(sys, float(lam), sigma**2)
            P_wgcv[gi, li] = wgcv_objective(sys, float(lam), omega)
            h = theta / (theta + lam * lam)
            r2 = float(np.sum(((1.0 - h) * c) ** 2))
            tr = float(np.sum(h))
            F_upre[gi, li] = sigma**2 * (r2 + 2.0 * tr) / m - sigma**2
            F_gcv[gi, li] = r2 / (m - tr) ** 2

    def argmin2(M):
        gi, li = np.unravel_index(np.argmin(M), M.shape)
        return int(gi), int(li)

    iu_p = argmin2(P_upre)
    iu_f = argmin2(F_upre)
    iw_p = argmin2(P_wgcv)
    ig_f = argmin2(F_gcv)
    assert iu_p == iu_f
    assert iw_p == ig_f
    print(f"criterion 4: PASS (UPRE argmin {iu_p} == full, WGCV argmin "
          f"{iw_p} == full GCV; gamma={gammas[iu_p[0]]:.3f} "
          f"lambda={lams[iu_p[1]]:.3g})")


# -- criterion 5: Hutchinson estimator --------------------------------------------


def test_criterion_5_hutchinson_estimator():
    """Mean of 200 single-probe draws within 3 standard errors of the dense
    Frobenius value on n = 8; exact equality when the mismatch is the
    identity."""
    rng = np.random.default_rng(4)
    grid = Grid(4, 2)
    spec = KernelSpec(family="matern", nu=2.5, ell=0.4)
    K = dense_kernel(spec, grid)
    sample = sample_covariance(list(rng.standard_normal((30, 8))))
    Qhat = sample.factor @ sample.factor.T
    exact = float(np.sum((K - Qhat) ** 2))
    draws = np.array([
        hutchinson_objective(spec, grid, sample,
                             rademacher_probes(8, 1, seed=s))
        for s in range(200)
    ])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    gap = abs(draws.mean() - exact)
    assert gap <= 3.0 * se

    # mismatch exactly the identity: K = I (underflowed off-diagonals),
    # Qhat = 0, so each probe contributes exactly n
    grid2 = Grid(2, 1)
    spec2 = KernelSpec(family="matern", nu=0.5, ell=1e-3)
    zero = SampleFactor(np.zeros((2, 1)), np.zeros(2))
    val = hutchinson_objective(spec2, grid2, zero,
                               rademacher_probes(2, 64, seed=1))
    assert val == 2.0
    print(f"criterion 5: PASS (gap {gap:.3g} <= 3 SE {3 * se:.3g}; "
          f"identity case exact)")


# -- criteria 6-8: pipelines --------------------------------------------------------


@pytest.fixture(scope="module")
def spherical_runs(tmp_path_factory):
    """Criterion-6 runs: subject (wgcv), reference (optimal), and the
    identity-prior baseline under the same selector, twice for byte
    comparison."""
    base = tmp_path_factory.mktemp("sph")
    cfg = base / "sph.cfg"
    cfg.write_text(SPHERICAL_CFG)
    dirs = {}
    t0 = time.perf_counter()
    for tag, args in (
        ("wgcv", ["select.method=wgcv", "compare.variants=mix,identity"]),
        ("optimal", ["select.method=optimal", "compare.variants=mix"]),
    ):
        out = base / tag
        rc = cli.main(["compare", str(cfg), *args, "--out", str(out)])
        assert rc == 0
        dirs[tag] = out
    elapsed = time.perf_counter() - t0
    rerun = base / "wgcv_again"
    rc = cli.main(["compare", str(cfg), "select.method=wgcv",
                   "compare.variants=mix,identity", "--out", str(rerun)])
    assert rc == 0
    dirs["wgcv_again"] = rerun
    dirs["elapsed"] = elapsed
    return dirs


@pytest.fixture(scope="module")
def crosswell_runs(tmp_path_factory):
    """Criterion-7 three-way comparison, twice for byte comparison."""
    base = tmp_path_factory.mktemp("cw")
    cfg = base / "cw.cfg"
    cfg.write_text(CROSSWELL_CFG)
    t0 = time.perf_counter()
    out = base / "one"
    rc = cli.main(["compare", str(cfg), "--out", str(out)])
    assert rc == 0
    elapsed = time.perf_counter() - t0
    again = base / "two"
    rc = cli.main(["compare", str(cfg), "--out", str(again)])
    assert rc == 0
    return {"one": out, "two": again, "elapsed": elapsed}


def test_criterion_6_spherical_pipeline(spherical_runs):
    """WGCV terminates by the stopping rule within 100 steps, lands within
    10% of the optimal-parameter run, and both beat the identity prior."""
    err_wgcv, k_wgcv = final_error(spherical_runs["wgcv"] / "mix")
    err_opt, _ = final_error(spherical_runs["optimal"] / "mix")
    err_id, _ = final_error(spherical_runs["wgcv"] / "identity")
    reason = stop_reason(spherical_runs["wgcv"] / "mix")

    assert k_wgcv <= 100
    assert reason in ("flat", "increase", "residual")
    assert err_wgcv <= 1.1 * err_opt
    assert err_wgcv < err_id
    assert err_opt < err_id
    assert spherical_runs["elapsed"] < 60.0
    print(f"criterion 6: PASS (wgcv {err_wgcv:.4f} @k={k_wgcv} [{reason}], "
          f"optimal {err_opt:.4f}, identity {err_id:.4f}, "
          f"{spherical_runs['elapsed']:.1f}s)")


def test_criterion_7_crosswell_pipeline(crosswell_runs):
    """The mixture matches or beats the better single-kernel prior to
    within two percentage points."""
    rows = read_rows(crosswell_runs["one"] / "compare.csv")
    errs = {r["variant"]: float(r["rel_error"]) for r in rows}
    assert set(errs) == {"mix", "q1", "q2"}
    bound = min(errs["q1"], errs["q2"]) + 0.02
    assert errs["mix"] <= bound
    assert crosswell_runs["elapsed"] < 120.0
    print(f"criterion 7: PASS (mix {errs['mix']:.4f} <= min(q1 "
          f"{errs['q1']:.4f}, q2 {errs['q2']:.4f}) + 2pp, "
          f"{crosswell_runs['elapsed']:.1f}s)")


def test_criterion_8_byte_determinism(spherical_runs, crosswell_runs):
    """Criteria 6 and 7 rerun with the same seeds produce byte-identical
    CSV artifacts."""
    checked = 0
    for one, two in (
        (spherical_runs["wgcv"], spherical_runs["wgcv_again"]),
        (crosswell_runs["one"], crosswell_runs["two"]),
    ):
        for path in sorted(one.rglob("*.csv")):
            twin = two / path.relative_to(one)
            assert path.read_bytes() == twin.read_bytes(), path.name
            checked += 1
    assert checked >= 6
    print(f"criterion 8: PASS ({checked} CSV files byte-identical across "
          f"reruns)")
