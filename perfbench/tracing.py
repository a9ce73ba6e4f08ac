"""Spans around calls into bklab's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper at every
place that binds it: module-level functions are rebound in every ``bklab``
module whose namespace holds them (``deviation_profile`` lives in
``bklab.cli``, ``bklab.bounds`` and ``bklab.lastexit``), methods are wrapped
at class level (``sample_array`` on every ``Distribution`` subclass,
``HypothesisSet.sample_indices``).  Each span is ``[id, name, parent, start,
end, count]`` and stays in memory until the round ends.  A span's parent is
the innermost open span of its thread, or the current op span for a worker
thread with none open, so matrix cells on a thread pool nest under their op.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

import numpy as np

import bklab
from bklab import bounds, cli, distributions, functions, lastexit, report, rng, sprt

ID, NAME, PARENT, START, END, COUNT = range(6)

SAMPLE_LAWS = ("gaussian", "uniform", "pareto2", "rademacher", "bernoulli")
EXACT = ("lastexit.levy_maximal_check", "lastexit.tail_prob_mean", "lastexit.exact_dev_prob")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.op_id = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][ID] if stack else self.op_id
        span = [next(self._ids), name, parent, time.perf_counter(), None, None]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def begin_op(self, name: str) -> list:
        self.op_id = None
        span = self.open(name)
        self.op_id = span[ID]
        return span

    def end_op(self, span: list) -> None:
        self.close(span)
        self.op_id = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, count=None):
        """``name`` is a string or a function of the call's arguments;
        ``count(args, result)`` stores the span's work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span[COUNT] = count(args, out)
            return out

        return traced

    def _rebind(self, fn, name, count=None) -> None:
        wrapped = self._wrap(fn, name, count)
        modules = [m for k, m in sys.modules.items() if k == "bklab" or k.startswith("bklab.")]
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                setattr(mod, attr, wrapped)

    def install(self) -> None:
        def sample_name(args, kwargs):
            dtype = args[3] if len(args) > 3 else kwargs.get("dtype", np.float64)
            dt = "f32" if np.dtype(dtype) == np.float32 else "f64"
            return f"distributions.sample_array.{args[0].name}.{dt}"

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        for cls in subclasses(distributions.Distribution):
            if "sample_array" in vars(cls):
                cls.sample_array = self._wrap(
                    vars(cls)["sample_array"], sample_name, lambda a, out: out.size
                )
        sprt.HypothesisSet.sample_indices = self._wrap(
            sprt.HypothesisSet.sample_indices, "sprt.sample_indices", lambda a, out: out.size
        )

        def censored_steps(args, out):
            horizon = args[4]
            return int(np.where(out.tau < 0, horizon, np.minimum(out.tau, horizon)).sum())

        traced = [
            (distributions.moment_xg, "distributions.moment_xg", None),
            (lastexit.last_exit_samples, "lastexit.last_exit_samples",
             lambda a, out: a[2].replicates * a[2].horizon),
            (lastexit.deviation_profile, "lastexit.deviation_profile",
             lambda a, out: out.reps * out.n_max),
            (lastexit.estimate_series, "lastexit.estimate_series", None),
            (lastexit.estimate_EG_lastexit, "lastexit.estimate_EG_lastexit", None),
            (lastexit.levy_maximal_check, "lastexit.levy_maximal_check", None),
            (lastexit.tail_prob_mean, "lastexit.tail_prob_mean", None),
            (lastexit.exact_dev_prob, "lastexit.exact_dev_prob", None),
            (sprt.simulate_runs, "sprt.simulate_runs", censored_steps),
            (sprt.rejection_rate, "sprt.rejection_rate", None),
            (sprt.optimality_sweep, "sprt.optimality_sweep", None),
            (functions.h_scaling_constant, "functions.h_scaling_constant", None),
            (bounds.prop1_check, "bounds.prop1_check", None),
            (bounds.prop2_check, "bounds.prop2_check", None),
            (bounds.prop3_check, "bounds.prop3_check", None),
            (cli.theorem1_row, "cli.theorem1_row", None),
            (report.emit, "report.emit", lambda a, out: len(out)),
            (rng.substream, "rng.substream", None),
        ]
        for fn, name, count in traced:
            self._rebind(fn, name, count)
        if not bklab.deviation_profile is bounds.deviation_profile is cli.deviation_profile:
            raise RuntimeError("deviation_profile was not rebound everywhere")


# ---------------------------------------------------------------------------
# Per-layer metrics from one round's spans
# ---------------------------------------------------------------------------


def _union(intervals) -> float:
    total, end = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


class SpanIndex:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_id = {s[ID]: s for s in spans}
        self.children: dict = {}
        for s in spans:
            self.children.setdefault(s[PARENT], []).append(s)

    def named(self, match) -> list[list]:
        """Spans named ``match`` (or whose name satisfies it, if callable)
        that have no matching ancestor, so nested calls of one layer are
        counted once."""
        pred = match if callable(match) else (lambda n: n == match)
        out = []
        for s in self.spans:
            if not pred(s[NAME]):
                continue
            p = self.by_id.get(s[PARENT])
            while p is not None and not pred(p[NAME]):
                p = self.by_id.get(p[PARENT])
            if p is None:
                out.append(s)
        return out

    def total(self, spans) -> float:
        return sum(s[END] - s[START] for s in spans)

    def count(self, spans) -> int:
        """Work counted by the spans; a call that raised counted nothing."""
        return sum(s[COUNT] or 0 for s in spans)

    def self_time(self, spans) -> float:
        out = 0.0
        for s in spans:
            kids = [
                (max(c[START], s[START]), min(c[END], s[END]))
                for c in self.children.get(s[ID], [])
            ]
            out += (s[END] - s[START]) - _union(kids)
        return out

    def child_count(self, spans, prefix: str) -> int:
        return self.count(
            c for s in spans for c in self.children.get(s[ID], []) if c[NAME].startswith(prefix)
        )


def layer_metrics(spans: list[list], threads: int) -> dict:
    """Every span-derived per-layer metric; a layer the workload never calls
    reads 0."""
    ix = SpanIndex(spans)
    out: dict[str, float] = {}

    for law in SAMPLE_LAWS:
        name = f"distributions.sample_array.{law}.f32"
        calls = ix.named(name)
        draws = ix.count(calls)
        secs = ix.total(calls)
        out[f"{name}.mdraws_per_s"] = draws / secs / 1e6 if secs > 0 else 0.0
        out[f"{name}.draws"] = draws
        out[f"{name}.s"] = secs

    out["distributions.moment_xg.s"] = ix.total(ix.named("distributions.moment_xg"))

    les = ix.named("lastexit.last_exit_samples")
    out["lastexit.last_exit_samples.s"] = ix.total(les)
    out["lastexit.last_exit_samples.self_s"] = ix.self_time(les)
    out["lastexit.last_exit_samples.replicate_steps"] = ix.count(les)

    prof = ix.named("lastexit.deviation_profile")
    used = ix.count(prof)
    out["lastexit.deviation_profile.s"] = ix.total(prof)
    out["lastexit.deviation_profile.self_s"] = ix.self_time(prof)
    out["lastexit.deviation_profile.draws_per_step"] = (
        ix.child_count(prof, "distributions.sample_array.") / used if used else 0.0
    )

    out["lastexit.estimate_series.self_s"] = ix.self_time(ix.named("lastexit.estimate_series"))
    out["lastexit.exact.s"] = ix.total(ix.named(lambda n: n in EXACT))

    runs = ix.named("sprt.simulate_runs")
    drawn = ix.child_count(runs, "sprt.sample_indices")
    out["sprt.simulate_runs.s"] = ix.total(runs)
    out["sprt.simulate_runs.self_s"] = ix.self_time(runs)
    out["sprt.simulate_runs.useful_draw_fraction"] = (
        ix.count(runs) / drawn if drawn else 0.0
    )
    samp = ix.named("sprt.sample_indices")
    samp_s = ix.total(samp)
    out["sprt.sample_indices.mdraws_per_s"] = (
        ix.count(samp) / samp_s / 1e6 if samp_s > 0 else 0.0
    )
    out["sprt.rejection_rate.self_s"] = ix.self_time(ix.named("sprt.rejection_rate"))

    hsc = ix.named("functions.h_scaling_constant")
    out["functions.h_scaling_constant.s"] = ix.total(hsc)
    out["functions.h_scaling_constant.calls"] = len(hsc)
    for k in (1, 2, 3):
        out[f"bounds.prop{k}_check.self_s"] = ix.self_time(ix.named(f"bounds.prop{k}_check"))

    rows = ix.total(ix.named("cli.theorem1_row"))
    matrix = ix.total(ix.named("op.theorem1_matrix"))
    out["cli.theorem1_row.s"] = rows
    out["cli.pool_efficiency"] = rows / (threads * matrix) if matrix > 0 else 0.0

    emits = ix.named("report.emit")
    out["report.emit.s"] = ix.total(emits)
    out["report.mb"] = ix.count(emits) / 1e6

    subs = ix.named("rng.substream")
    out["rng.substream.calls"] = len(subs)
    out["rng.substream.s"] = ix.total(subs)
    return out
