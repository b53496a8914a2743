"""Span recording from outside the package, and per-layer aggregation.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
functions in the module globals of ``mixkry.cli``, ``mixkry.params`` and
``mixkry.learn`` (the names those modules look up at call time) and, in the
traced mode, ``LinearOperator.matvec``/``rmatvec`` at class level.  Each
wrapped call appends one span ``[name, start, end, parent]``; a layer's self
time is its spans' durations minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

ROOT = "cli.command"

# function name -> span name, for the traced run
TRACED = {
    "assemble_workload": "cli.assemble",
    "spherical_tomo": "testproblems.build",
    "crosswell_tomo": "testproblems.build",
    "gen_training_images": "testproblems.build",
    "add_noise": "testproblems.build",
    "write_pgm": "testproblems.write",
    "build_kernel_operator": "operators.kernel_build",
    "grid_distances": "operators.grid_distances",
    "mixgk_init": "mixgk.init",
    "mixgk_step": "mixgk.step",
    "select_params": "params.select",
    "build_projected": "projected.build",
    "solve_projected": "projected.solve",
    "trace_term": "projected.trace",
    "recover_iterate": "projected.recover",
    "learn_matern": "learn.fit",
    "hutchinson_objective": "learn.objective",
}

# the untraced run times package import and this one function only
UNTRACED = {"assemble_workload": "cli.assemble"}

MODULES = ("mixkry.cli", "mixkry.params", "mixkry.learn")

ROLES = ("A", "AT", "Q1", "Q2", "Rinv", "LR")

# per-layer self-time metrics: metric -> span names whose self time it sums
SELF_TIME = {
    "cli.self_s": (ROOT,),
    "cli.assemble_s": ("cli.assemble",),
    "testproblems.s": ("testproblems.build",),
    "testproblems.write_s": ("testproblems.write",),
    "operators.kernel_build_s": ("operators.kernel_build",),
    "operators.grid_distances_s": ("operators.grid_distances",),
    "operators.matvec_s": ("operators.matvec", "operators.rmatvec"),
    "mixgk.step_s": ("mixgk.init", "mixgk.step"),
    "params.select_s": ("params.select",),
    "projected.solve_s": ("projected.solve",),
    "projected.trace_s": ("projected.trace",),
    "projected.build_s": ("projected.build",),
    "projected.recover_s": ("projected.recover",),
    "learn.fit_s": ("learn.fit", "learn.objective"),
}

# per-layer metrics that are times or shares of time; all others are counts
# and repeat exactly on one seed
TIMED = set(SELF_TIME) | {"mixkry.import_s", "trace.overhead_s",
                          "trace.coverage"}


# per-layer call counts: metric -> span names whose calls it counts
CALLS = {
    "operators.kernel_builds": ("operators.kernel_build",),
    "operators.grid_distances_calls": ("operators.grid_distances",),
    "mixgk.steps": ("mixgk.step",),
    "params.selections": ("params.select",),
    "projected.factorizations": ("projected.solve", "projected.trace"),
    "projected.builds": ("projected.build",),
    "learn.objective_evals": ("learn.objective",),
}


def unit(metric):
    """Unit of a per-layer metric."""
    if metric in ("trace.coverage", "params.converged_ratio"):
        return "ratio"
    if metric == "operators.matvec_bytes":
        return "B"
    return "s" if metric in TIMED else "count"


class Recorder:
    """Spans in call order; ``parent`` is the index of the enclosing span."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    def wrap(self, fn, name=None, before=None, after=None):
        """Return ``fn`` recording a span called ``name`` (none if ``name``
        is None); ``before(args, kwargs)`` runs ahead of the call and
        ``after(result)`` on its return value."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper


def self_times(spans):
    """Per-span self time: duration minus the union of the child intervals
    clipped to the span."""
    children = {}
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def by_name(spans):
    """{name: (calls, total duration, total self time)}."""
    agg = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        calls, dur, self_t = agg.get(name, (0, 0.0, 0.0))
        agg[name] = (calls + 1, dur + (end - start), self_t + own)
    return agg


def operator_bytes(op):
    """Bytes of an operator's backing storage read by one application:
    dense ``rows*cols*8``, sparse data plus indices, a diagonal's entries,
    and twice a sample factor (it is applied as S (S^T x)).  Operators with
    none of these (identity, zero, blends) count 0."""
    mat = getattr(op, "mat", None)
    if mat is not None:
        if hasattr(mat, "indices"):
            return int(mat.data.nbytes + mat.indices.nbytes)
        return int(mat.shape[0] * mat.shape[1] * 8)
    diag = getattr(op, "diag", None)
    if diag is not None:
        return int(diag.nbytes)
    factor = getattr(getattr(op, "_matvec", None), "__self__", None)
    if factor is not None and hasattr(factor, "factor"):
        return int(2 * factor.factor.nbytes)
    return 0


class Ledger:
    """Operator applications per role, plus solver health counts.

    Roles are the identities of ``(A, Rinv, LR, Q1, Q2)`` in the current
    ``run_hybrid`` call.  That is where ``mixgk_init`` gets them from, and
    it is captured there rather than at ``mixgk_init`` because the mean
    shift ``A.matvec(prior.mean)`` comes first.  An application on any other
    operator counts as ``other``.
    """

    def __init__(self):
        self.applies = Counter()
        self.bytes = 0
        self.counts = Counter()
        self._roles = {}
        self._zeros = {}

    def register(self, A, Rinv, LR, Q1, Q2):
        self._roles = {}
        for label, op in (("Q2", Q2), ("Q1", Q1), ("LR", LR), ("Rinv", Rinv),
                          ("A", A)):
            self._roles[id(op)] = (label, operator_bytes(op), op)

    def mark_zero(self, op):
        # holding the operator keeps its id from being reused
        self._zeros[id(op)] = op

    def apply(self, op, transpose):
        label, nbytes, _ = self._roles.get(id(op), ("other", None, op))
        if nbytes is None:
            nbytes = operator_bytes(op)
        if label == "A" and transpose:
            label = "AT"
        self.applies[label] += 1
        if label == "Q2" and id(op) in self._zeros:
            self.applies["Q2_zero"] += 1
        self.bytes += nbytes

    def on_hybrid(self, result):
        state = result.state
        self.counts["cli.solves"] += 1
        self.counts["cli.iterations"] += result.final.k
        self.counts["mixgk.qr_fallbacks"] += state.qr_fallbacks
        self.counts["mixgk.rank_drops"] += state.rank_drops

    def on_selection(self, sel):
        self.counts["params.evaluations"] += sel.evaluations
        self.counts["params.converged"] += int(bool(sel.converged))


def ledger_hooks(ledger):
    """Hooks feeding a :class:`Ledger`: function name -> (before, after),
    where ``before`` takes the call's bound arguments and ``after`` its
    result."""
    def hybrid_roles(b):
        ledger.register(b["A"], b["Rinv"], b["LR"], b["prior"].q1,
                        b["prior"].q2)

    return {
        "run_hybrid": (hybrid_roles, ledger.on_hybrid),
        "select_params": (None, ledger.on_selection),
        "zero_operator": (None, ledger.mark_zero),
    }


def install(recorder, modules, table, hooks=None, ledger=None,
            operator_cls=None):
    """Wrap the functions named in ``table`` or ``hooks`` in the globals of
    each module.

    ``table`` maps a function name to its span name; ``hooks`` maps a
    function name to ``(before, after)`` callbacks.  A function imported
    into several modules gets one wrapper, so every call site records the
    same span.  With a ``ledger``, ``operator_cls.matvec``/``rmatvec`` are
    wrapped too and counted per operator role.
    """
    hooks = hooks or {}
    wrapped = {}
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or (attr not in table and attr not in hooks):
                continue
            if fn not in wrapped:
                before, after = hooks.get(attr, (None, None))
                if before is not None:
                    before = _bound(inspect.signature(fn), before)
                wrapped[fn] = recorder.wrap(fn, table.get(attr), before, after)
            setattr(mod, attr, wrapped[fn])

    if ledger is not None:
        for attr, transpose in (("matvec", False), ("rmatvec", True)):
            fn = getattr(operator_cls, attr)

            def count(args, kwargs, transpose=transpose):
                ledger.apply(args[0], transpose)

            setattr(operator_cls, attr,
                    recorder.wrap(fn, f"operators.{attr}", count))


def _bound(sig, before):
    def call(args, kwargs):
        before(sig.bind(*args, **kwargs).arguments)
    return call


def layer_metrics(spans, ledger):
    """Per-layer metrics of one traced child, from its spans and ledger."""
    agg = by_name(spans)
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)
    for metric, names in CALLS.items():
        out[metric] = sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)
    for role in ROLES + ("Q2_zero", "other"):
        out[f"operators.applies.{role}"] = ledger.applies.get(role, 0)
    out["operators.matvec_bytes"] = ledger.bytes
    for key in ("cli.solves", "cli.iterations", "mixgk.qr_fallbacks",
                "mixgk.rank_drops"):
        out[key] = ledger.counts.get(key, 0)
    out["params.evaluations"] = ledger.counts.get("params.evaluations", 0)
    selections = out["params.selections"]
    converged = ledger.counts.get("params.converged", 0)
    out["params.converged_ratio"] = converged / selections if selections else 0.0
    command_s = agg.get(ROOT, (0, 0.0, 0.0))[1]
    out["trace.coverage"] = (1.0 - out["cli.self_s"] / command_s) if command_s else 0.0
    out["trace.spans"] = len(spans)
    return out
