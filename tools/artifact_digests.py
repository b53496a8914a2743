"""Print the SHA-256 of every artifact the acceptance configs write.

Usage: ``python3 tools/artifact_digests.py [--keep DIR] [--summary]``
or ``python3 tools/artifact_digests.py --drift DIR_A DIR_B``.

Runs each config below in this process through ``mixkry.cli.main``, using
the package in this checkout's ``src/``, and prints one
``sha256  relative/path`` line per artifact (``*.csv``, ``summary.txt``,
``*.pgm``), sorted by path.  A refactor that leaves the numerics unchanged
is checked by running the script at two commits and diffing the outputs.
The CLI's own stdout is suppressed; a command that exits nonzero aborts
the script with exit status 1.

With ``--keep DIR`` the artifacts are written under ``DIR`` (created if
missing) in place of a temporary directory and left there, so that two
commits' outputs can be compared value by value when their digests differ.

With ``--summary`` the script prints, in place of the digests, one line per
run directory (each directory holding a ``params.csv``), sorted by path:
the final k, ``stop_reason`` and ``rel_error`` from ``summary.txt``, and the
``evaluations`` summed over the steps of ``params.csv`` with the number of
steps whose search did not converge.  Diffing these lines at two commits
gives a before/after quality table for a change that moves the numerics.

With ``--drift DIR_A DIR_B`` nothing is run: two ``--keep`` trees are
compared.  The script prints ``only in DIR: path`` for each artifact found
on one side only, ``changed: path`` for each non-CSV artifact whose bytes
differ, ``rows differ: path`` for a CSV whose header or row count differs,
and then one ``file column drift`` line per CSV file name and column: the
largest relative difference |a - b| / max(|a|, |b|) of that column over all
run directories.  Equal cells count 0; text cells that differ, or a number
against an empty cell, count inf.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mixkry import cli  # noqa: E402

SPHERICAL = """\
problem.preset = spherical
problem.size = 32
problem.train_count = 49
noise.level = 0.03
seed = 101
"""

CROSSWELL = """\
problem.preset = crosswell
problem.size = 64
noise.level = 0.01
seed = 202
select.method = optimal
compare.variants = mix,q1,q2
"""

# (output tag, subcommand, config, overrides)
RUNS = (
    [(f"sph32-run-{m}", "run", SPHERICAL, [f"select.method={m}"])
     for m in ("wgcv", "gcv", "upre", "optimal")]
    + [
        ("sph32-compare-wgcv", "compare", SPHERICAL,
         ["select.method=wgcv", "compare.variants=mix,identity"]),
        ("sph32-compare-optimal", "compare", SPHERICAL,
         ["select.method=optimal", "compare.variants=mix"]),
        ("cw64-compare", "compare", CROSSWELL, []),
        ("sph32-run-gamma", "run", SPHERICAL, ["select.gamma=0.5"]),
        ("sph32-compare-gamma", "compare", SPHERICAL,
         ["select.gamma=0.5", "compare.variants=mix,q1,identity"]),
        ("sph16-fit", "fit", SPHERICAL, ["problem.size=16"]),
    ]
)

PATTERNS = ("*.csv", "summary.txt", "*.pgm")


def run_all(workdir):
    """Run every config under ``workdir``; return the artifact paths."""
    for tag, command, config, overrides in RUNS:
        cfg = workdir / f"{tag}.cfg"
        cfg.write_text(config)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([command, str(cfg), *overrides,
                           "--out", str(workdir / tag)])
        if rc != 0:
            raise SystemExit(f"{tag}: mixkry {command} exited with {rc}")
    return sorted({p for pat in PATTERNS for p in workdir.rglob(pat)})


def print_digests(workdir):
    for path in run_all(workdir):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(workdir).as_posix()}")


def print_summary(workdir):
    run_all(workdir)
    for params in sorted(workdir.rglob("params.csv")):
        rundir = params.parent
        summary = {}
        for line in (rundir / "summary.txt").read_text().splitlines():
            key, _, value = line.partition(":")
            summary[key] = value.strip()
        with params.open(newline="") as f:
            steps = list(csv.DictReader(f))
        evaluations = sum(int(step["evaluations"]) for step in steps)
        unconverged = sum(step["converged"] != "true" for step in steps)
        print(f"{rundir.relative_to(workdir).as_posix()}"
              f"  k={summary['iterations']} stop={summary['stop_reason']}"
              f" rel_error={summary['rel_error']} evaluations={evaluations}"
              f" unconverged={unconverged}")


def _artifacts(root):
    return {p.relative_to(root).as_posix()
            for pat in PATTERNS for p in root.rglob(pat)}


def _read_csv(path):
    with path.open(newline="") as f:
        return list(csv.reader(f))


def _cell_drift(a, b):
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def print_drift(dir_a, dir_b):
    files_a, files_b = _artifacts(dir_a), _artifacts(dir_b)
    for root, only in ((dir_a, files_a - files_b), (dir_b, files_b - files_a)):
        for rel in sorted(only):
            print(f"only in {root}: {rel}")
    drift = {}
    for rel in sorted(files_a & files_b):
        path_a, path_b = dir_a / rel, dir_b / rel
        if not rel.endswith(".csv"):
            if path_a.read_bytes() != path_b.read_bytes():
                print(f"changed: {rel}")
            continue
        rows_a, rows_b = _read_csv(path_a), _read_csv(path_b)
        if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
            print(f"rows differ: {rel}")
            continue
        name = path_a.name
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            for col, a, b in zip(rows_a[0], row_a, row_b):
                key = (name, col)
                drift[key] = max(drift.get(key, 0.0), _cell_drift(a, b))
    for (name, col), value in sorted(drift.items()):
        print(f"{name} {col} {value:.3g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="write the artifacts to DIR and keep them")
    parser.add_argument("--summary", action="store_true",
                        help="print one quality line per run directory in "
                             "place of the digests")
    parser.add_argument("--drift", nargs=2, metavar=("DIR_A", "DIR_B"),
                        type=Path,
                        help="compare two --keep trees column by column "
                             "in place of running the configs")
    args = parser.parse_args(argv)
    if args.drift is not None:
        print_drift(*args.drift)
        return 0
    report = print_summary if args.summary else print_digests
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        report(args.keep)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        report(Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
