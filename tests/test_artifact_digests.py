"""tools/artifact_digests.py: the per-run-directory quality summary."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"

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
