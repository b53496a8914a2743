"""The benchmark's workloads and the check of their outputs.

Each workload is a config generated from a seed plus the CLI commands that
one child process runs on it.  The checks read the artifacts back with the
standard library only: every command must leave its files, they must
parse, and the final values must be finite.
"""

import math
from dataclasses import dataclass
from pathlib import Path

SPHERICAL = """\
problem.preset = spherical
problem.size = {size}
problem.train_count = 49
noise.level = 0.03
seed = {seed}
"""

CROSSWELL = """\
problem.preset = crosswell
problem.size = 64
noise.level = 0.01
seed = {seed}
select.method = optimal
compare.variants = mix,q1,q2
"""

RUN_CSV = ["k", "lambda", "gamma", "objective", "rel_residual", "rel_error", "ms"]
PARAMS_CSV = ["k", "method", "gamma", "lambda", "objective", "evaluations",
              "converged"]
COMPARE_CSV = ["variant", "k", "gamma", "lambda", "objective", "rel_residual",
               "rel_error", "stop_reason"]
FIT_CSV = ["probes", "repeats", "mean_objective", "se_objective"]

# learn_matern's clamps; ell's upper clamp is the unit-square diagonal
NU_RANGE = (0.1, 10.0)
ELL_RANGE = (1e-3, math.sqrt(2.0))


@dataclass(frozen=True)
class Workload:
    name: str
    base_seed: int
    config: str
    size: int
    # (subcommand, overrides, output tag) per command
    commands: tuple

    def config_text(self, seed):
        return self.config.format(seed=seed, size=self.size)

    def argvs(self, cfg_path, outdir):
        return [[sub, str(cfg_path), *over, "--out", str(Path(outdir) / tag)]
                for sub, over, tag in self.commands]


WORKLOADS = {
    w.name: w for w in (
        Workload("sph32-select", 101, SPHERICAL, 32, tuple(
            ("run", (f"select.method={m}",), m) for m in ("wgcv", "gcv", "upre"))),
        Workload("cw64-compare", 202, CROSSWELL, 64,
                 (("compare", (), "compare"),)),
        Workload("sph16-fit", 101, SPHERICAL, 16, (("fit", (), "fit"),)),
    )
}


class CheckError(Exception):
    pass


def _rows(path, header):
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != header:
        raise CheckError(f"{path.name}: unexpected header")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if not rows or any(len(r) != len(header) for r in rows):
        raise CheckError(f"{path.name}: no rows or ragged rows")
    return rows


def _finite(row, keys, where):
    out = []
    for key in keys:
        try:
            val = float(row[key])
        except ValueError:
            raise CheckError(f"{where}: {key}={row[key]!r} is not a number")
        if not math.isfinite(val):
            raise CheckError(f"{where}: {key}={row[key]} is not finite")
        out.append(val)
    return out


def _pgm(path, size):
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    data = path.read_bytes()
    head = f"P5\n{size} {size}\n65535\n".encode()
    if not data.startswith(head) or len(data) != len(head) + 2 * size * size:
        raise CheckError(f"{path.name}: not a {size}x{size} 16-bit PGM")


def _summary(path):
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    out = {}
    for line in path.read_text().splitlines():
        key, sep, val = line.partition(":" if ":" in line else "=")
        if sep:
            out[key.strip()] = val.strip()
    return out


def _check_run(outdir, size):
    """Final (rel_error, k) of one run directory."""
    rows = _rows(outdir / "run.csv", RUN_CSV)
    params = _rows(outdir / "params.csv", PARAMS_CSV)
    if len(params) != len(rows):
        raise CheckError("params.csv and run.csv disagree on the step count")
    k, _, _, _, _, rel_error = _finite(
        rows[-1], RUN_CSV[:6], f"{outdir.name}/run.csv")
    if "stop_reason" not in _summary(outdir / "summary.txt"):
        raise CheckError("summary.txt has no stop_reason")
    _pgm(outdir / "recon.pgm", size)
    _pgm(outdir / "truth.pgm", size)
    return rel_error, int(k)


def check_command(sub, outdir, size):
    """Check one command's artifacts; returns its result values.

    ``rel_errors`` and ``steps`` (final k, summed) for run and compare,
    ``fit_objective`` for fit.  Raises :class:`CheckError`.
    """
    outdir = Path(outdir)
    if sub == "run":
        rel_error, k = _check_run(outdir, size)
        return {"rel_errors": [rel_error], "steps": k}
    if sub == "compare":
        rows = _rows(outdir / "compare.csv", COMPARE_CSV)
        errors, steps = [], 0
        for row in rows:
            k, _, _, _, _, rel_error = _finite(row, COMPARE_CSV[1:7],
                                               "compare.csv")
            if _check_run(outdir / row["variant"], size) != (rel_error, int(k)):
                raise CheckError(f"{row['variant']}: compare.csv disagrees "
                                 "with the variant's run.csv")
            errors.append(rel_error)
            steps += int(k)
        return {"rel_errors": errors, "steps": steps}
    for row in _rows(outdir / "fit.csv", FIT_CSV):
        _finite(row, FIT_CSV, "fit.csv")
    summary = _summary(outdir / "summary.txt")
    try:
        nu = float(summary["prior.q1.nu"])
        ell = float(summary["prior.q1.ell"])
        objective = float(summary["objective"])
    except (KeyError, ValueError):
        raise CheckError("summary.txt lacks nu, ell or objective")
    for name, val, (lo, hi) in (("nu", nu, NU_RANGE), ("ell", ell, ELL_RANGE)):
        # the clamps are applied in log space, so allow one rounding
        if not lo * (1 - 1e-12) <= val <= hi * (1 + 1e-12):
            raise CheckError(f"learned {name}={val} outside [{lo}, {hi}]")
    if not (math.isfinite(objective) and objective > 0):
        raise CheckError(f"fit objective {objective} is not positive")
    return {"fit_objective": objective}


def differing_csvs(dir_a, dir_b):
    """Relative paths of CSVs that differ (or exist once) between two
    output directories of the same command on the same seed."""
    a = {p.relative_to(dir_a): p for p in Path(dir_a).rglob("*.csv")}
    b = {p.relative_to(dir_b): p for p in Path(dir_b).rglob("*.csv")}
    return sorted(str(rel) for rel in a.keys() | b.keys()
                  if rel not in a or rel not in b
                  or a[rel].read_bytes() != b[rel].read_bytes())
