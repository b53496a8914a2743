"""One workload run in a fresh interpreter.

Usage: ``python3 bench/child.py JOB.json``.  The job names the CLI commands,
whether to trace, and where to write the result.  The commands run one
after another through ``mixkry.cli.main`` in this process, with no extra
threads.  Timing starts before the package import.
"""

import json
import sys
import time
import traceback
from pathlib import Path

import spans


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    trace = bool(job["trace"])

    start = time.perf_counter()
    import mixkry.cli
    import mixkry.learn
    import mixkry.operators
    import mixkry.params
    import_s = time.perf_counter() - start

    import numpy

    # Frobenius norm of each sample covariance, the scale of fit's mismatch
    qhat_norms = []

    def on_workload(work):
        if work.sample is not None:
            S = work.sample.factor
            qhat_norms.append(float(numpy.linalg.norm(S.T @ S)))

    recorder = spans.Recorder()
    ledger = spans.Ledger() if trace else None
    hooks = spans.ledger_hooks(ledger) if trace else {}
    hooks["assemble_workload"] = (None, on_workload)
    modules = [sys.modules[name] for name in spans.MODULES]
    spans.install(recorder, modules, spans.TRACED if trace else spans.UNTRACED,
                  hooks, ledger, mixkry.operators.LinearOperator)
    command = recorder.wrap(mixkry.cli.main, spans.ROOT)

    commands = []
    for argv in job["commands"]:
        t0 = time.perf_counter()
        error = None
        try:
            rc = command(argv)
        except Exception:  # reported per command; the next one still runs
            rc, error = 1, traceback.format_exc()
        commands.append({"argv": argv, "rc": rc, "error": error,
                         "seconds": time.perf_counter() - t0})

    agg = spans.by_name(recorder.spans)
    result = {
        "import_s": import_s,
        "assemble_s": agg.get("cli.assemble", (0, 0.0, 0.0))[1],
        "qhat_norms": qhat_norms,
        "commands": commands,
        "versions": _versions(),
    }
    if trace:
        layers = spans.layer_metrics(recorder.spans, ledger)
        layers["mixkry.import_s"] = import_s
        result["layers"] = layers
        names = sorted({s[0] for s in recorder.spans})
        index = {n: i for i, n in enumerate(names)}
        Path(job["spans"]).write_text(json.dumps({
            "names": names,
            "spans": [[index[n], round(s * 1e6), round(e * 1e6), p]
                      for n, s, e, p in recorder.spans],
        }))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
