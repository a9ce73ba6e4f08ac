"""The three benchmark workloads: op lists, sizes and correctness checks.

Every op goes through a public entry point of bklab: ``cli.run_experiment``
followed by ``report.emit`` (what ``bklab <kind>`` runs), or the public audit
functions of ``bklab.lastexit`` and ``bklab.sprt``.  The workload seed is the
root seed of every op, so one seed gives one set of inputs.  Sizes are a
fraction of the CLI defaults, chosen so that one round of a workload takes a
few seconds on two cores; see NOTES.md for why each op is there.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

from bklab import cli, distributions, functions, lastexit, report, sprt

PATH_SIZES = {"reps": 4_000, "horizon": 2**11, "n_max": 2**12, "reps_per_block": 2_000}
LATTICE_SIZES = {"reps": 2_000, "horizon": 2**11, "n_max": 2**12, "reps_per_block": 1_000}
SERIES_SIZES = {"n_max": 2**13, "reps_per_block": 2_000}

PAIR = {"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]]}
TRIPLE = {
    "alphabet": [0, 1, 2],
    "hypotheses": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.2, 0.6, 0.2]],
}
SWEEP_REPS = 20_000
VILLE_LEVELS = (10.0, 100.0, 1000.0)
VILLE_REPS = 4_096
VILLE_HORIZON = 2_048

SERIES_ORACLE = 2.0 * (1.0 + math.log(2.0))  # criterion 1, rademacher, G(t)=1+t, a=1
LAST_EXIT_ORACLE = 3.0  # criterion 2, rademacher, E[G(L_1)] with G(t)=1+t


@dataclass
class Op:
    """One timed call: a ``run_experiment`` spec, or a ``call`` into the
    public audit functions that returns a payload.  ``check`` returns None
    when the payload and exit code are correct, else the reason."""

    kind: str
    label: str
    check: Callable
    spec: dict | None = None
    call: Callable | None = None

    def run(self):
        """What ``bklab <kind>`` does: run the experiment, then emit the report."""
        if self.spec is not None:
            payload, code = cli.run_experiment(dict(self.spec))
        else:
            payload, code = self.call(), 0
        return payload, code, report.emit(payload)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _exit_zero(payload, code):
    return None if code == 0 else f"exit code {code}"


def _matrix_check(divergent: set):
    def check(payload, code):
        if code != 0 or not payload["all_consistent"]:
            return f"matrix not all_consistent (exit {code})"
        found = {r["dist"] for r in payload["rows"] if r["verdict_c"] == "divergent-evidence"}
        if found != divergent:
            return f"divergent rows {sorted(found)}, expected {sorted(divergent)}"
        return None

    return check


def _oracle_check(payload, code):
    if code != 0:
        return f"exit code {code}"
    gap = abs(payload["mean"] - LAST_EXIT_ORACLE)
    if gap > 4.0 * payload["se"]:
        return f"E[G(L_1)] = {payload['mean']} is {gap / payload['se']:.1f} SE from 3"
    return None


def _exact_call():
    rad = distributions.rademacher()
    asym = distributions.parse_dist_spec("bernoulli:p=0.75,v0=-3,v1=1")
    levy = []
    for m in range(1, 21):
        for t in range(1, m + 1, 4):
            rep = lastexit.levy_maximal_check(rad, m, float(t))
            levy.append([m, t, rep.lhs, rep.rhs, rep.exact])
    tails = [
        [d.spec_string(), n, lastexit.tail_prob_mean(d, n, 0.5).p_hat]
        for d in (rad, asym)
        for n in range(1, 21)
    ]
    series = lastexit.estimate_series(rad, functions.power(1), 1.0, 30)
    payload = {
        "kind": "exact",
        "levy": levy,
        "tail_prob": tails,
        "series": series.partial_sum,
        "series_head_exact": series.head_exact,
    }
    return payload


def _exact_check(payload, code):
    if abs(payload["series"] - SERIES_ORACLE) > 1e-6 or not payload["series_head_exact"]:
        return f"exact series {payload['series']} != 2(1+ln 2)"
    bad = [(m, t) for m, t, lhs, rhs, exact in payload["levy"] if not exact or lhs > rhs + 1e-12]
    return f"Levy inequality fails at {bad}" if bad else None


def _ville_call(seed: int):
    def call():
        hyp = sprt.HypothesisSet(
            alphabet=tuple(float(v) for v in PAIR["alphabet"]),
            masses=tuple(tuple(row) for row in PAIR["hypotheses"]),
        )
        rows = []
        for i in (0, 1):
            for c in VILLE_LEVELS:
                rate, se = sprt.rejection_rate(hyp, c, i, VILLE_REPS, VILLE_HORIZON, seed)
                rows.append([i, c, rate, se])
        return {"kind": "ville", "reps": VILLE_REPS, "horizon": VILLE_HORIZON, "rows": rows}

    return call


def _ville_check(payload, code):
    bad = [(i, c, rate) for i, c, rate, se in payload["rows"] if rate > 1.0 / c + 4.0 * se]
    return f"Ville bound exceeded at {bad}" if bad else None


def build(workload: str, seed: int, threads: int) -> list[Op]:
    """The ops of one round of ``workload``; every spec is parsed here, so a
    malformed spec fails before the first op is timed."""
    g1 = "power:r=1"
    ops: list[Op] = []

    def exp(kind, label, spec, check=_exit_zero):
        ops.append(Op(kind, label, check, spec={"seed": seed, "threads": threads, **spec}))

    if workload == "paths":
        exp("theorem1_matrix", "theorem1-matrix continuous+heavy", {
            "kind": "theorem1-matrix",
            "dists": ["gaussian:sigma=1", "uniform:w=1", "pareto2:beta=4", "pareto2:beta=1.5"],
            "g": g1, "a_grid": [0.25, 0.5, 1.0], **PATH_SIZES,
        }, _matrix_check({"pareto2:beta=1.5,scale=1"}))
        exp("last_exit", "last-exit pareto2 beta=1.5", {
            "kind": "last-exit", "dist": "pareto2:beta=1.5", "g": g1, "a": 1.0,
            "reps": PATH_SIZES["reps"], "horizon": PATH_SIZES["horizon"],
        })
        exp("series", "series gaussian", {
            "kind": "series", "dist": "gaussian:sigma=1", "g": g1, "a": 0.5, **SERIES_SIZES,
        })
        exp("bounds", "bounds prop 3 uniform", {
            "kind": "bounds", "prop": "3", "dist": "uniform:w=1", "g": "powlog:r=1,s=1",
            **PATH_SIZES,
        })
    elif workload == "lattice":
        exp("last_exit", "last-exit rademacher oracle", {
            "kind": "last-exit", "dist": "rademacher", "g": g1, "a": 1.0,
            "reps": 10_000, "horizon": 2**10,
        }, _oracle_check)
        exp("theorem1_matrix", "theorem1-matrix two-atom", {
            "kind": "theorem1-matrix",
            "dists": ["rademacher", "bernoulli:p=0.75,v0=-3,v1=1"],
            "g": g1, "a_grid": [0.25, 0.5, 1.0], **LATTICE_SIZES,
        }, _matrix_check(set()))
        exp("series", "series rademacher", {
            "kind": "series", "dist": "rademacher", "g": g1, "a": 1.0, **SERIES_SIZES,
        })
        exp("bounds", "bounds prop 1 rademacher", {
            "kind": "bounds", "prop": "1", "dist": "rademacher", "g": "power:r=2",
            **PATH_SIZES,
        })
        exp("bounds", "bounds prop 2 rademacher", {
            "kind": "bounds", "prop": "2", "dist": "rademacher", "g": "power:r=2",
            **PATH_SIZES,
        })
        exp("counterexample", "counterexample exp prefix 1e5", {
            "kind": "counterexample", "g": "exp:b=1", "prefix": 100_000,
        })
        ops.append(Op("exact", "exact Levy/tail/series", _exact_check, call=_exact_call))
    elif workload == "sprt":
        exp("sprt_sweep", "sprt-sweep pair to 1e-4", {
            "kind": "sprt-sweep", "config": PAIR, "errors": [1e-1, 1e-2, 1e-3, 1e-4],
            "g": g1, "true_index": 0, "reps": SWEEP_REPS,
        })
        exp("sprt_sweep", "sprt-sweep triple to 1e-3", {
            "kind": "sprt-sweep", "config": TRIPLE, "errors": [1e-1, 1e-2, 1e-3],
            "g": g1, "true_index": 0, "reps": SWEEP_REPS,
        })
        ops.append(Op("ville", "Ville rejection rates", _ville_check, call=_ville_call(seed)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _parse_specs(ops)
    return ops


def _parse_specs(ops: list[Op]) -> None:
    for op in ops:
        spec = op.spec or {}
        for d in spec.get("dists", []) + ([spec["dist"]] if "dist" in spec else []):
            distributions.parse_dist_spec(d)
        if "g" in spec:
            functions.parse_function_spec(spec["g"])
