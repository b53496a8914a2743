"""Self-tests of the benchmark's own machinery.

Usage (from the repository root): ``python3 bench/selftest.py``

- self-time arithmetic on hand-built nested spans;
- span parents recorded by nested wrapped calls;
- two traced child runs of one small config give identical counts;
- the output check rejects a non-finite value.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import spans
from workloads import SPHERICAL, CheckError, Workload, check_command


def test_self_time_arithmetic():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]), b [5, 9], and c
    # [8, 11], which overlaps b and runs past the root's end
    recs = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["g", 2.0, 3.0, 1],
            ["b", 5.0, 9.0, 0], ["c", 8.0, 11.0, 0]]
    assert spans.self_times(recs) == [10 - 3 - 5, 3 - 1, 1, 4, 3]
    agg = spans.by_name(recs + [["g", 3.5, 3.75, 1]])
    assert agg["g"] == (2, 1.25, 1.25)
    assert agg["a"] == (1, 3.0, 1.75)


def test_nested_wrap_parents():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap(lambda x: x + 1, "inner")
    outer = rec.wrap(lambda x: inner(x) * inner(x), "outer")
    assert outer(1) == 4
    assert [(n, p) for n, _, _, p in rec.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert spans.self_times(rec.spans) == [5 - 0 - 1 - 1, 1, 1]


def test_traced_counts_repeat(tmp):
    wl = Workload("selftest", 7, SPHERICAL, 16, (
        ("run", ("select.method=wgcv",), "run"),
        ("compare", ("compare.variants=mix,q1",), "compare"),
    ))
    cfg = tmp / "sph16.cfg"
    cfg.write_text(wl.config_text(7))
    env = run.child_env(Path.cwd())
    layers = []
    for i in range(2):
        work = tmp / f"c{i}"
        work.mkdir()
        job = {"commands": wl.argvs(cfg, work), "trace": True,
               "result": str(work / "result.json"),
               "spans": str(work / "spans.json")}
        code, _, _ = run.spawn(job, work, env, timeout=120)
        assert code == 0, (work / "child.log").read_text()
        result = json.loads((work / "result.json").read_text())
        assert all(c["rc"] == 0 for c in result["commands"])
        layers.append(result["layers"])
        check_command("run", work / "run", 16)
    counts = [{k: v for k, v in lay.items() if k not in spans.TIMED}
              for lay in layers]
    assert counts[0] == counts[1], (counts[0], counts[1])
    c = counts[0]
    assert c["cli.solves"] == 3 and c["mixgk.steps"] == c["cli.iterations"]
    # the q1 variant pays for a Q2 branch on a zero operator every step
    assert 0 < c["operators.applies.Q2_zero"] < c["operators.applies.Q2"]
    assert c["projected.factorizations"] > 0 and c["params.evaluations"] > 0
    assert layers[0]["trace.coverage"] > 0.9


def test_check_rejects_nonfinite(tmp):
    src = tmp / "c0" / "run"
    bad = tmp / "bad"
    shutil.copytree(src, bad)
    lines = (bad / "run.csv").read_text().splitlines()
    cells = lines[-1].split(",")
    cells[5] = "nan"
    lines[-1] = ",".join(cells)
    (bad / "run.csv").write_text("\n".join(lines) + "\n")
    try:
        check_command("run", bad, 16)
    except CheckError as exc:
        assert "not finite" in str(exc)
    else:
        raise AssertionError("a NaN rel_error passed the output check")


def main():
    base = Path.cwd() / ".bench_out"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    try:
        test_self_time_arithmetic()
        test_nested_wrap_parents()
        test_traced_counts_repeat(tmp)
        test_check_rejects_nonfinite(tmp)
    finally:
        shutil.rmtree(tmp)
    print("selftest: 4 passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
