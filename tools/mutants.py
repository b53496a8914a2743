"""Run tier-1 against a fixed list of small source mutants.

Usage: ``python3 tools/mutants.py [NAME ...]``

Each mutant below is a string replacement in one file of this checkout,
and its text must occur there exactly once.  For each mutant (or for the
named ones) the script copies the checkout to a temporary directory,
applies the replacement, runs the tier-1 suite there with ``pytest -x``
against the copy's ``src/``, and prints one line: ``killed`` (the suite
failed), or ``survived`` (it passed), with the seconds it took.  A last
line counts the survivors.  A mutant whose text does not occur exactly
once stops the script with exit status 2 before anything runs; tier-1
checks the same in ``tests/test_mutants.py``, a test that each mutant
fails by construction, so the script deselects it.

It takes minutes (one tier-1 run per surviving mutant), so it is not
part of tier-1.  A survivor is a line that no test pins: it wants a test
that kills it, or the line can go.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (file, text, replacement)
MUTANTS = {
    "breakdown-tol": ("src/mixkry/mixgk.py", "_BREAKDOWN_TOL = 1e-12",
                      "_BREAKDOWN_TOL = 1e-10"),
    "definite-tol": ("src/mixkry/mixgk.py", "_DEFINITE_TOL = 1e-8",
                     "_DEFINITE_TOL = 1e-6"),
    # the second Gram-Schmidt pass of the Q2 column against U
    "q2-second-pass": ("src/mixkry/mixgk.py",
                       "vhat -= self.U @ (self.U.T @ vhat)", "pass"),
    # the new right vector reorthogonalized against all V columns but v_k
    "v-reorth-newest": ("src/mixkry/mixgk.py",
                        "coef_v = self.Q1V.T @ vhat",
                        "coef_v = self.Q1V.T @ vhat; coef_v[-1] = 0.0"),
    "learn-zooms": ("src/mixkry/learn.py", "_ZOOMS = 8", "_ZOOMS = 6"),
    "rescan": ("src/mixkry/params.py", "_RESCAN = 5", "_RESCAN = 6"),
    "window": ("src/mixkry/params.py", "_WINDOW = 2", "_WINDOW = 1"),
    "tie-rtol": ("src/mixkry/params.py", "_TIE_RTOL = 1e-12",
                 "_TIE_RTOL = 0.0"),
    "gamma-zooms": ("src/mixkry/params.py", "_GAMMA_ZOOMS = 4",
                    "_GAMMA_ZOOMS = 3"),
    "mu-clamp": ("src/mixkry/projected.py",
                 "return np.maximum(mu, 0.0), c, T", "return mu, c, T"),
    # the kernel product's inverse transform keeping the rows the crop drops
    "kernel-crop": ("src/mixkry/operators.py",
                    "np.fft.ifft(f, n=2 * ny, axis=0)[:ny]",
                    "np.fft.ifft(f, n=2 * ny, axis=0)[ny:]"),
    "matern-clamp": ("src/mixkry/operators.py",
                     "np.minimum(vals, 1.0, out=vals)", "pass"),
    # the assembly memo keyed without the noise keys
    "memo-key-noise": ("src/mixkry/cli.py",
                       'key.startswith(("problem.", "noise."))',
                       'key.startswith(("problem.",))'),
    # the assembly memo handing out its own b
    "memo-shared-b": ("src/mixkry/cli.py", "b=work.b.copy()", "b=work.b"),
    # compare's q2 variant with the shrinkage blend weights swapped
    "q2-blend": ("src/mixkry/cli.py",
                 "return rho * x + (1.0 - rho) * sample.matvec(x)",
                 "return (1.0 - rho) * x + rho * sample.matvec(x)"),
    # the load-time check that file.* inputs hold no NaN or infinity
    "file-finite": ("src/mixkry/cli.py",
                    "for arr in value if isinstance(value, list) else [value]:"
                    "\n        entries = arr.data if hasattr(arr, \"toarray\") "
                    "else arr\n        if not np.isfinite(entries).all():\n"
                    "            raise ConfigError(f\"config key {key}: "
                    "{cfg[key]!r} holds a NaN \"\n"
                    "                              f\"or an infinity\")",
                    "pass"),
    # the exact mismatch with offset -i not folded onto row offset i
    "mismatch-fold": ("src/mixkry/learn.py", "rows[1:] += corr[:ny:-1]",
                      "pass"),
    # the optimal rule's reference computed without the prior mean
    "optimal-mean": ("src/mixkry/cli.py", "mean_error = prior.mean - s_true",
                     "mean_error = -s_true"),
    # fit.csv's estimate averaged over one repeat fewer
    "fit-repeats": ("src/mixkry/cli.py", "_FIT_REPEATS = 6",
                    "_FIT_REPEATS = 5"),
}
# the tier-1 test of the texts above, which every mutant fails
TEXT_CHECK = "tests/test_mutants.py::test_mutant_texts_occur_once"

TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect", TEXT_CHECK]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", ".benchmarks", ".bench_out")


def run(name):
    """Whether tier-1 kills mutant ``name``, and the seconds it took."""
    path, text, replacement = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mixkry-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        target = copy / path
        target.write_text(target.read_text().replace(text, replacement))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        start = time.perf_counter()
        rc = subprocess.run(TIER1, cwd=copy, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
        return rc != 0, time.perf_counter() - start


def main(argv):
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        path, text, _ = MUTANTS[name]
        count = (ROOT / path).read_text().count(text)
        if count != 1:
            print(f"mutant {name}: {text!r} occurs {count} times in {path}",
                  file=sys.stderr)
            return 2
    survivors = 0
    for name in names:
        killed, seconds = run(name)
        survivors += not killed
        verdict = "killed" if killed else "survived"
        print(f"{name}: {verdict} ({seconds:.0f} s)", flush=True)
    print(f"{survivors} of {len(names)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
