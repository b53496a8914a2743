"""The pinned benchmark's self-test runs against the current package.

``bench/`` reaches into the package by name (``trace_term`` in
``mixkry.params``; ``mixgk_init``, ``mixgk_step``, ``select_params``,
``recover_iterate`` and ``zero_operator`` in ``mixkry.cli``), binds
``run_hybrid``'s ``A``, ``Rinv``, ``LR`` and ``prior`` arguments by
parameter name to count operator applications per role, and reads
``run.csv``'s ``ms`` header, so a rename there breaks the benchmark.  This
test shows such a break with the other tests, not only when the benchmark
itself is next run.
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
