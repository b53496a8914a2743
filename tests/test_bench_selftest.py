"""The pinned benchmark's self-test runs against the current package.

``bench/`` reaches into the package by name, so a rename or a removed
member there breaks the benchmark.  These are all the names it reads:

- module globals that ``bench/spans.py`` wraps, looked up at call time in
  ``mixkry.cli``, ``mixkry.params`` and ``mixkry.learn`` (``spans.TRACED``
  and the hooks): ``assemble_workload``, ``spherical_tomo``,
  ``crosswell_tomo``, ``gen_training_images``, ``add_noise``,
  ``write_pgm``, ``build_kernel_operator``, ``mixgk_init``, ``mixgk_step``,
  ``select_params``, ``trace_term``, ``recover_iterate``, ``learn_matern``,
  ``hutchinson_objective``, ``run_hybrid`` and ``zero_operator``.  A name
  in ``TRACED`` that no module defines (``grid_distances``,
  ``build_projected``, ``solve_projected``) is skipped;
- ``run_hybrid``'s ``A``, ``Rinv``, ``LR`` and ``prior`` parameters, bound
  by name, and ``prior.q1``/``prior.q2``, which give the operator roles;
- ``mixkry.operators.LinearOperator.matvec``/``rmatvec``, patched at class
  level in the traced mode, and ``mixkry.cli.main``;
- on results: ``result.state.qr_fallbacks`` and ``.rank_drops`` and
  ``result.final.k`` when ``run_hybrid`` returns, ``sel.evaluations`` and
  ``sel.converged`` of each ``select_params`` result, and
  ``work.sample.factor`` of each ``assemble_workload`` result (``sample``
  may be None);
- on operators, for the bytes each application reads: ``mat`` (its
  ``data``, ``indices`` and ``shape``), ``diag`` and
  ``_matvec.__self__.factor``;
- on artifacts: the headers of ``run.csv``, ``params.csv``,
  ``compare.csv`` and ``fit.csv``, compare's one directory per
  ``variant``, the 16-bit ``recon.pgm`` and ``truth.pgm`` of each run
  directory, and the summary keys ``stop_reason`` (run) and
  ``prior.q1.nu``, ``prior.q1.ell`` and ``objective`` (fit).

This test shows such a break with the other tests, not only when the
benchmark itself is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    out = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "selftest: 4 passed" in out.stdout
