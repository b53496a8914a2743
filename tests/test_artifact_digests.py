"""tools/artifact_digests.py: the golden digests, and the per-run-directory
quality summary."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
GOLDEN = Path(__file__).with_name("artifact_digests.txt")

TINY = """\
problem.preset = spherical
problem.size = 16
problem.angles = 4
problem.circles = 5
problem.train_count = 9
stop.max_iter = 4
select.grid_gamma = 4
select.grid_lambda = 5
seed = 5
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_artifacts_match_golden_digests(capsys, tmp_path):
    """Every artifact of the acceptance configs hashes to its digest in
    tests/artifact_digests.txt.  Another numpy or BLAS may round
    differently, so a file computed under other versions fails the test,
    naming both; regenerate it as the tool's docstring says."""
    tool = load_tool()
    want = GOLDEN.read_text().splitlines()
    here = tool.platform_line()
    assert want[0] == here, (f"{GOLDEN.name} was computed under "
                             f"{want[0][2:]}; this is {here[2:]}")
    tool.print_digests(tmp_path)
    got = capsys.readouterr().out.splitlines()
    assert len(want) == 1 + 92
    assert got == want


def test_summary_one_line_per_run_directory(monkeypatch, capsys, tmp_path):
    """--summary prints, per directory holding a params.csv and sorted by
    path, the final k, stop reason and rel_error of summary.txt, the
    evaluations summed over params.csv and the unconverged step count."""
    tool = load_tool()
    monkeypatch.setattr(tool, "RUNS", (
        ("tiny-run", "run", TINY, []),
        ("tiny-compare", "compare", TINY, ["compare.variants=q1,mix"]),
    ))
    assert tool.main(["--summary", "--keep", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "tiny-compare/mix", "tiny-compare/q1", "tiny-run"]
    fields = dict(f.split("=", 1) for f in lines[2].split()[1:])
    summary = (tmp_path / "tiny-run" / "summary.txt").read_text()
    steps = (tmp_path / "tiny-run" / "params.csv").read_text().splitlines()
    rows = [row.split(",") for row in steps[1:]]
    assert fields == {
        "k": rows[-1][0],
        "stop": summary.split("stop_reason: ")[1].split("\n")[0],
        "rel_error": summary.split("rel_error: ")[1].split("\n")[0],
        "evaluations": str(sum(int(row[5]) for row in rows)),
        "unconverged": str(sum(row[6] == "false" for row in rows)),
    }


def test_summary_one_line_per_fit_directory(monkeypatch, capsys, tmp_path):
    """--summary also prints, per directory holding a fit.csv, the learned
    nu and ell, the objective and at_clamp of the fit's summary.txt, in
    path order with the run directories."""
    tool = load_tool()
    monkeypatch.setattr(tool, "RUNS", (
        ("tiny-run", "run", TINY, []),
        ("tiny-fit", "fit", TINY, ["fit.probes=4", "fit.repeats=2"]),
    ))
    assert tool.main(["--summary", "--keep", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["tiny-fit", "tiny-run"]
    fields = dict(f.split("=", 1) for f in lines[0].split()[1:])
    summary = (tmp_path / "tiny-fit" / "summary.txt").read_text().splitlines()
    assert fields == {
        "nu": summary[3].split("prior.q1.nu=")[1],
        "ell": summary[4].split("prior.q1.ell=")[1],
        "objective": summary[5].split("objective: ")[1],
        "at_clamp": summary[6].split("at_clamp: ")[1],
    }
    assert lines[1].split()[1].startswith("k=")


def test_drift_per_csv_column_and_one_sided_files(capsys, tmp_path):
    """--drift compares two trees without running anything: one line per
    file only on one side, per non-CSV artifact whose bytes differ, per CSV
    whose shape differs, and per CSV file name and column the largest
    relative difference over all directories."""
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    files = {
        "run1/run.csv": ("k,lambda,rel_error,stop\n1,0.5,,flat\n2,0.25,0.4,flat\n",
                         "k,lambda,rel_error,stop\n1,0.5,,flat\n2,0.25,0.3,flat\n"),
        "run2/run.csv": ("k,lambda,rel_error,stop\n1,2.0,0.1,flat\n",
                         "k,lambda,rel_error,stop\n1,2.5,0.1,max_iter\n"),
        "run2/params.csv": ("k,gamma\n1,0.5\n", "k,gamma\n1,0.5\n2,0.5\n"),
        "run2/x.pgm": ("P5 same", "P5 same"),
        "run2/y.pgm": ("P5 one", "P5 two"),
    }
    for rel, (text_a, text_b) in files.items():
        for root, text in ((a, text_a), (b, text_b)):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
    (a / "run1" / "summary.txt").write_text("k: 2\n")
    (b / "run3").mkdir()
    (b / "run3" / "run.csv").write_text("k\n1\n")
    assert tool.main(["--drift", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"only in {a}: run1/summary.txt",
        f"only in {b}: run3/run.csv",
        "rows differ: run2/params.csv",
        "changed: run2/y.pgm",
        "run.csv k 0",
        "run.csv lambda 0.2",
        "run.csv rel_error 0.25",
        "run.csv stop inf",
    ]
