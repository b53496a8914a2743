"""Benchmark of the mixkry CLI: end-to-end timings, or a per-layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload sph32-select --seed 0 --seconds 40 --trace 0

Each sample is one child process that imports the package from ``src/`` and
runs the workload's commands in-process: a closed loop with one client.
Children start one after another until ``--seconds`` is used up.  With
``--trace 0`` the children time only the package import and
``cli.assemble_workload``, and the run prints the end-to-end metrics.  With
``--trace 1`` they record a span per call of every layer, and the run prints
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import compileall
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, CheckError, check_command, differing_csvs

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned in every child.  Whether the host can back numpy's large arrays
# with huge pages moved assembly time between 0.6 s and 1.15 s from one
# child to the next; without them it stays near 1.05 s.
CHILD_ENV = {**{var: "1" for var in THREAD_VARS}, "NUMPY_MADVISE_HUGEPAGE": "0"}
# every run, its children included, ends within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
                    "peak_rss_mb": "MiB", "rel_error": "ratio"}


def tail(values):
    """(percentile, value): the highest of p99/p95/p90/p75 with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, sorted(values)[math.ceil(p / 100 * n) - 1]
    return None


def git_sha(root):
    """HEAD's commit from ``.git`` without running git; None outside a
    repository."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def child_env(root):
    env = dict(os.environ)
    env.pop("MIXKRY_THREADS", None)
    env.update(CHILD_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(job, workdir, env, timeout):
    """Run one child to its exit; returns (exit code, wall seconds from
    spawn to exit, peak RSS in MiB)."""
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    with open(workdir / "child.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            stdout=log, stderr=subprocess.STDOUT, env=env)
    fd = os.pidfd_open(proc.pid)
    ready = []
    try:
        ready = select.select([fd], [], [], timeout)[0]
    finally:
        if not ready:  # timed out, or interrupted
            proc.send_signal(signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        os.close(fd)
        proc.returncode = -1  # reaped by wait4; Popen must not wait again
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def schedule(trace):
    """(instance, traced) per child; instance 0 is the pinned acceptance
    config and instance 1 the config drawn from ``--seed``.

    Untraced: the seed's instance once, for the output check only, then the
    pinned instance until the time is used up (its first two children are
    the determinism pair).  Traced: the pinned instance throughout, one
    untraced and two traced children, then untraced and traced in turn.
    """
    if not trace:
        yield 1, False
        while True:
            yield 0, False
    yield from ((0, False), (0, True), (0, True))
    while True:
        yield from ((0, False), (0, True))


def run_children(wl, args, root, outdir):
    env = child_env(root)
    cfg_dir = outdir / "cfg"
    cfg_dir.mkdir(parents=True)
    children = []
    start = time.perf_counter()
    for idx, (inst, traced) in enumerate(schedule(args.trace)):
        elapsed = time.perf_counter() - start
        if idx >= 3:
            mean_wall = statistics.fmean(c["wall_s"] for c in children)
            if elapsed + mean_wall > args.seconds:
                break
        if elapsed > RUN_LIMIT_S - 10:
            break
        seed = wl.base_seed + (1000 * (args.seed + 1) if inst else 0)
        cfg = cfg_dir / f"{seed}.cfg"
        if not cfg.exists():
            cfg.write_text(wl.config_text(seed))
        workdir = outdir / f"c{idx}"
        workdir.mkdir()
        job = {"commands": wl.argvs(cfg, workdir), "trace": traced,
               "result": str(workdir / "result.json"),
               "spans": str(workdir / "spans.json")}
        code, wall, rss = spawn(job, workdir, env,
                                max(1.0, RUN_LIMIT_S - elapsed))
        child = {"index": idx, "instance": inst, "config_seed": seed,
                 "traced": traced, "exit": code, "wall_s": wall,
                 "peak_rss_mb": rss, "dir": workdir, "values": []}
        result = workdir / "result.json"
        if code == 0 and result.is_file():
            child.update(json.loads(result.read_text()))
        children.append(child)
    return children


def check_children(wl, children):
    """Check every command's outputs; returns (attempted, problems), where
    problems maps (child index, command index) to a message.

    A command fails when it returns nonzero, when its artifacts are missing,
    malformed or not finite, or when its CSVs differ from an earlier run of
    the same instance.  A traced child fails when its counts differ from the
    first traced child's.
    """
    problems = {}
    attempted = 0
    first_of = {}
    first_traced = None
    for child in children:
        cmds = child.get("commands")
        for ci, (sub, _, tag) in enumerate(wl.commands):
            attempted += 1
            key = (child["index"], ci)
            if cmds is None:
                problems[key] = f"child exited with {child['exit']}"
                continue
            if cmds[ci]["rc"] != 0:
                problems[key] = f"{sub} returned {cmds[ci]['rc']}"
                if cmds[ci]["error"]:
                    problems[key] += ": " + cmds[ci]["error"]
                continue
            try:
                child["values"].append(
                    check_command(sub, child["dir"] / tag, wl.size))
            except CheckError as exc:
                problems[key] = f"{sub} output: {exc}"
                continue
            twin = first_of.setdefault((child["instance"], ci), child)
            if twin is not child:
                diff = differing_csvs(twin["dir"] / tag, child["dir"] / tag)
                if diff:
                    problems[key] = f"CSVs differ across reruns: {diff}"
        if "layers" in child:
            first_traced = first_traced or child
            diff = [k for k, v in child["layers"].items()
                    if k not in spans.TIMED and first_traced["layers"][k] != v]
            if diff:
                problems[(child["index"], 0)] = f"trace counts differ: {diff}"
    return attempted, problems


def quality(child):
    """The child's mean final relative error over its solves; for fit, the
    learned kernel's relative mismatch sqrt(objective) / ||Qhat||_F.
    Also the fit's raw objective (None for run and compare)."""
    errors = [e for v in child["values"] for e in v.get("rel_errors", ())]
    fits = [v["fit_objective"] for v in child["values"] if "fit_objective" in v]
    if fits:
        return math.sqrt(fits[0]) / child["qhat_norms"][0], fits[0]
    return (statistics.fmean(errors) if errors else None), None


def end_to_end(children, ok):
    """Samples per end-to-end metric, from the pinned instance's children."""
    timed = [c for c in children if c["instance"] == 0 and c["index"] in ok]
    if not timed:
        return {}
    return {
        "wall_s": [c["wall_s"] for c in timed],
        "setup_s": [c["import_s"] + c["assemble_s"] for c in timed],
        "solve_s": [sum(x["seconds"] for x in c["commands"]) - c["assemble_s"]
                    for c in timed],
        "peak_rss_mb": [c["peak_rss_mb"] for c in timed],
        "rel_error": [quality(timed[0])[0]],
    }


def per_layer(children, ok):
    """Per-layer metrics: medians of the traced children's times, and the
    counts (which must repeat) of the first."""
    traced = [c for c in children if "layers" in c and c["index"] in ok]
    plain = [c["wall_s"] for c in children
             if not c["traced"] and c["index"] in ok]
    if not traced or not plain:
        return {}
    out = {}
    for key, val in traced[0]["layers"].items():
        if key in spans.TIMED:
            val = statistics.median(c["layers"][key] for c in traced)
        out[key] = val
    out["trace.overhead_s"] = (statistics.median(c["wall_s"] for c in traced)
                               - statistics.median(plain))
    return out


def environment(root, args, children, load_before, load_after):
    versions = next((c["versions"] for c in children if "versions" in c), {})
    return {
        "git_sha": git_sha(root),
        **versions,
        "child_env": {**CHILD_ENV, "MIXKRY_THREADS": "unset"},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "config_seeds": sorted({c["config_seed"] for c in children}),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "mixkry" / "__init__.py").is_file():
        print(f"error: no mixkry package under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    outdir = root / ".bench_out" / wl.name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    # compile once here so that no child pays for writing bytecode
    compileall.compile_dir(str(root / "src" / "mixkry"), quiet=1)

    load_before = os.getloadavg()
    children = run_children(wl, args, root, outdir)
    load_after = os.getloadavg()

    attempted, problems = check_children(wl, children)
    ok = {c["index"] for c in children} - {i for i, _ in problems}
    for (ci, cmd), msg in sorted(problems.items()):
        print(f"FAILED child {ci} command {cmd}: {msg}")
    env = environment(root, args, children, load_before, load_after)
    print("env " + json.dumps(env))
    print(f"{wl.name}: {len(children)} children, "
          f"{'traced' if args.trace else 'untraced'}, one client, closed loop")

    metrics = {}
    if args.trace:
        for key, val in per_layer(children, ok).items():
            metrics[key] = {"value": val, "unit": spans.unit(key)}
            print(f"{key:34s} {val:.6g} {spans.unit(key)}")
    else:
        for key, vals in end_to_end(children, ok).items():
            unit = END_TO_END_UNITS[key]
            metrics[key] = {"value": statistics.median(vals), "unit": unit}
            t = tail(vals)
            extra = f", p{t[0]} {t[1]:.6g}" if t else ""
            print(f"{key:12s} {statistics.median(vals):.6g} {unit} "
                  f"(median of {len(vals)}{extra})")
        for inst, where in ((1, "seed instance"), (0, "pinned instance")):
            c = next((c for c in children
                      if c["instance"] == inst and c["index"] in ok), None)
            if c is not None:
                rel_error, objective = quality(c)
                print(f"{where} (config seed {c['config_seed']}): rel_error "
                      f"{rel_error:.6g}" + (f", fit_objective {objective:.6g}"
                                             if objective is not None else ""))
    failed = len(problems)
    print(f"ops_failed_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} commands)")

    records = root / ".bench_out" / "records"
    records.mkdir(exist_ok=True)
    (records / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"workload": wl.name, "trace": args.trace, "env": env,
                    "metrics": metrics, "attempted": attempted,
                    "failed": failed, "problems": sorted(problems.values()),
                    "children": [{k: v for k, v in c.items() if k != "dir"}
                                 for c in children]}, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
