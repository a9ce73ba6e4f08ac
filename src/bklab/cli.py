"""Experiment orchestration and the ``bklab`` command line.

Every subcommand builds an experiment spec (a plain dict, also loadable from
``--config file.json``), dispatches it through ``run_experiment`` and emits a
JSON or CSV report.  Exit codes: 0 pass/consistent, 1 fail/inconsistent,
2 configuration error.  Matrix cells may run concurrently; each cell draws
its seed from the root seed and the cell coordinates, so reports are
identical for any ``--threads`` value.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import click
import numpy as np

from . import rng as _rng
from .bounds import prop1_check, prop2_check, prop3_check, sym_transfer_check
from .distributions import (
    counterexample_dist,
    law_rows,
    moment_xg,
    parse_dist_spec,
)
from .errors import ConfigurationError, LabError
from .functions import (
    DEFAULT_AUDIT_GRID,
    GridSpec,
    doubling_ratio_sup,
    is_moderate_numeric,
    parse_function_spec,
)
from .lastexit import PathConfig, deviation_profile, estimate_EG_lastexit, estimate_series
from .report import SCHEMA_VERSION, bound_report_payload, emit
from .sprt import HypothesisSet, optimality_sweep, run_test

SWEEP_CSV_HEADER = ["target_error", "c", "mean_G_tau", "reference_G", "ratio"]

_FINITE_WORDS = {"finite", "finite-evidence", "converging-evidence"}
_DIVERGENT_WORDS = {"divergence-evidence", "diverging-evidence", "divergent-evidence"}


def _classify(verdict: str) -> str | None:
    if verdict in _FINITE_WORDS:
        return "finite"
    if verdict in _DIVERGENT_WORDS:
        return "divergent"
    return None


def _need(spec: dict, key: str):
    if key not in spec or spec[key] in (None, ""):
        raise ConfigurationError(f"experiment spec is missing the field {key!r}")
    return spec[key]


def _field(spec: dict, key: str, convert, default=None):
    """``convert(spec[key])``, or ``convert(default)`` for an absent field (a
    default of None makes it required); a rejected value is a configuration error."""
    value = _need(spec, key) if default is None else spec.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"experiment spec field {key!r} has an invalid value {value!r}") from None


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


# ---------------------------------------------------------------------------
# Experiment handlers
# ---------------------------------------------------------------------------


def _exp_moderate_audit(spec: dict):
    g = parse_function_spec(_need(spec, "g"))
    grid = DEFAULT_AUDIT_GRID
    if "t_max" in spec or "t_min" in spec:
        grid = GridSpec(
            _field(spec, "t_min", float, 1e-2),
            _field(spec, "t_max", float, 1e6),
            _field(spec, "points", int, 321),
            "geometric",
        )
    threshold = _field(spec, "growth_threshold", float, 1.5)
    rep = doubling_ratio_sup(g, grid, threshold)
    verdict = is_moderate_numeric(g, grid, threshold)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "moderate-audit",
        "seed": _field(spec, "seed", int, 0),
        "name": g.spec_string(),
        "grid": {"t_min": grid.t_min, "t_max": grid.t_max, "points": grid.points},
        "ratio_max": rep.grid_max,
        "log_ratio_max": rep.log_grid_max,
        "analytic_sup": rep.analytic_sup,
        "growth_verdict": rep.verdict,
        "verdict": verdict,
    }
    return payload, 0


def _exp_last_exit(spec: dict):
    dist = parse_dist_spec(_need(spec, "dist"))
    g = parse_function_spec(_need(spec, "g"))
    a = _field(spec, "a", float)
    cfg = PathConfig(
        horizon=_field(spec, "horizon", int, 2**12),
        replicates=_field(spec, "reps", int, 20_000),
        seed=_field(spec, "seed", int, 0),
        center=_field(spec, "center", float, 0.0),
    )
    est = estimate_EG_lastexit(dist, g, a, cfg)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "last-exit",
        "dist": dist.spec_string(),
        "G": g.spec_string(),
        "a": a,
        "horizon": cfg.horizon,
        "replicates": cfg.replicates,
        "seed": cfg.seed,
        "mean": est.mean,
        "se": est.se,
        "censor_rate": est.censor_rate,
        "horizon_warning": est.horizon_warning,
    }
    return payload, 0


def _exp_series(spec: dict):
    dist = parse_dist_spec(_need(spec, "dist"))
    g = parse_function_spec(_need(spec, "g"))
    a = _field(spec, "a", float)
    seed = _field(spec, "seed", int, 0)
    est = estimate_series(
        dist,
        g,
        a,
        _field(spec, "n_max", int, 2**14),
        _field(spec, "reps_per_block", int, 10_000),
        seed,
    )
    blocks = [
        {"lo": b.lo, "hi": b.hi, "contribution": b.contribution, "se": b.se}
        for b in est.blocks
    ]
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "series",
        "dist": dist.spec_string(),
        "G": g.spec_string(),
        "a": a,
        "n_max": est.n_max,
        "seed": seed,
        "head": est.head,
        "head_exact": est.head_exact,
        "blocks": blocks,
        "partial_sum": est.partial_sum,
        "se": est.se,
        "verdict": est.verdict,
        "csv_header": ["lo", "hi", "contribution", "se"],
        "csv_rows": [[b.lo, b.hi, b.contribution, b.se] for b in est.blocks],
    }
    return payload, 0


def _exp_bounds(spec: dict):
    prop = str(_need(spec, "prop"))
    dist = parse_dist_spec(_need(spec, "dist"))
    g = parse_function_spec(_need(spec, "g"))
    seed = _field(spec, "seed", int, 0)
    cfg = PathConfig(
        horizon=_field(spec, "horizon", int, 2**13),
        replicates=_field(spec, "reps", int, 20_000),
        seed=seed,
    )
    n_max = _field(spec, "n_max", int, 2**14)
    reps_per_block = _field(spec, "reps_per_block", int, 10_000)
    if prop == "1":
        report = prop1_check(dist, g, _field(spec, "alpha", float, 0.5), cfg)
    elif prop == "2":
        report = prop2_check(
            dist,
            g,
            _field(spec, "p", int) if spec.get("p") else None,
            n_max=n_max,
            reps_per_block=reps_per_block,
            seed=seed,
        )
    elif prop == "3":
        report = prop3_check(dist, g, cfg, n_max=n_max, reps_per_block=reps_per_block)
    elif prop == "sym":
        reports = sym_transfer_check(dist, g, cfg, a=_field(spec, "a", float, 1.0))
        all_pass = all(r.passed for r in reports)
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": "bounds",
            "prop": "sym",
            "seed": seed,
            "all_pass": all_pass,
            "reports": [bound_report_payload(r) for r in reports],
        }
        return payload, 0 if all_pass else 1
    else:
        raise ConfigurationError(f"unknown proposition selector {prop!r}")
    payload = bound_report_payload(report)
    payload["kind"] = "bounds"
    return payload, 0 if report.passed else 1


def _exp_counterexample(spec: dict):
    g = parse_function_spec(_need(spec, "g"))
    prefix = _field(spec, "prefix", int, 100_000)
    dist = counterexample_dist(g, prefix)
    law = dist.law
    own = moment_xg(dist, g)
    doubled = moment_xg(dist, g, arg_scale=2.0)
    n = prefix
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1)))
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "counterexample",
        "seed": _field(spec, "seed", int, 0),
        "G": g.spec_string(),
        "prefix": prefix,
        "c": law.c,
        "stored_mass": law.stored_mass,
        "tail_mass_bound": law.tail_mass_bound,
        "moment_value": own.value,
        "moment_verdict": own.verdict,
        "moment_halfwidth": own.halfwidth,
        "doubled_partial_sum": doubled.value,
        "doubled_verdict": doubled.verdict,
        "harmonic_floor": 2.0 * law.c * harmonic,
        "csv_header": ["atom", "mass"],
        "csv_rows": [[a, m] for a, m in law_rows(law)],
    }
    ok = own.verdict == "finite" and doubled.verdict == "divergence-evidence"
    return payload, 0 if ok else 1


def _hypotheses_from_config(conf: dict) -> HypothesisSet:
    return HypothesisSet(
        alphabet=_field(conf, "alphabet", _floats),
        masses=_field(conf, "hypotheses", lambda rows: tuple(_floats(r) for r in rows)),
        reference=_field(conf, "reference", _floats) if conf.get("reference") else None,
        strict=bool(conf.get("strict", True)),
    )


def _exp_sprt_run(spec: dict):
    conf = _need(spec, "config")
    hyp = _hypotheses_from_config(conf)
    levels = _field(conf, "levels", _floats)
    seed = _field(spec, "seed", int, 0)
    horizon = _field(spec, "horizon", int, conf.get("horizon", 4096))
    if "stream" in spec or "stream" in conf:
        stream = _field(spec, "stream", _floats, conf.get("stream"))
    else:
        sim = spec.get("simulate", conf.get("simulate"))
        if not sim:
            raise ConfigurationError("sprt-run needs a stream or a simulate block")
        gen = _rng.substream(seed, _rng.STREAM_SPRT, 99)
        idx = hyp.sample_indices(gen, _field(sim, "true_index", int), horizon)
        stream = [hyp.alphabet[k] for k in idx]
    record = run_test(hyp, levels, iter(stream), horizon)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "sprt-run",
        "seed": seed,
        "levels": list(levels),
        "horizon": horizon,
        "tau": record.tau,
        "censored": record.censored,
        "decision": record.decision,
        "rho": [r for r in record.rho],
        "log_ratios_at_tau": list(record.log_ratios_at_tau),
    }
    return payload, 0


def _exp_sprt_sweep(spec: dict):
    conf = _need(spec, "config")
    hyp = _hypotheses_from_config(conf)
    g = parse_function_spec(spec.get("g", "power:r=1"))
    true_index = _field(spec, "true_index", int, 0)
    seed = _field(spec, "seed", int, 0)
    rows = optimality_sweep(
        hyp,
        _field(spec, "errors", _floats),
        true_index,
        g,
        _field(spec, "reps", int, 20_000),
        seed,
    )
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "sprt-sweep",
        "G": g.spec_string(),
        "true_index": true_index,
        "seed": seed,
        "rows": [
            {
                "target_error": r.target_error,
                "c": r.c,
                "mean_G_tau": r.mean_G_tau,
                "reference_G": r.reference_G,
                "ratio": r.ratio,
                "censor_rate": r.censor_rate,
            }
            for r in rows
        ],
        "csv_header": SWEEP_CSV_HEADER,
        "csv_rows": [
            [r.target_error, r.c, r.mean_G_tau, r.reference_G, r.ratio] for r in rows
        ],
    }
    return payload, 0


def theorem1_row(
    dist_spec: str,
    g_spec: str,
    *,
    a_grid=(0.25, 0.5, 1.0),
    reps: int = 20_000,
    horizon: int = 2**13,
    n_max: int = 2**14,
    reps_per_block: int = 10_000,
    seed: int = 0,
    censor_bound: float = 1e-3,
) -> dict:
    """Evaluate the three equivalence verdicts for one (dist, G) cell.

    (a) is the moment functional verdict, (b) the series verdict over the
    a-grid, (c) the last-exit integrability verdict from censoring.  The row
    is consistent when all three map to the same finite/divergent class.
    """
    dist = parse_dist_spec(dist_spec)
    g = parse_function_spec(g_spec)
    moment = moment_xg(dist, g)

    profile = deviation_profile(
        dist, n_max, reps_per_block, _rng.derive_seed(seed, 71), stream=71
    )
    series_verdicts = []
    for a in a_grid:
        est = estimate_series(
            dist, g, float(a), n_max, reps_per_block, seed, profile=profile
        )
        series_verdicts.append(est.verdict)
    if any(v == "diverging-evidence" for v in series_verdicts):
        b_verdict = "diverging-evidence"
    elif all(v == "converging-evidence" for v in series_verdicts):
        b_verdict = "converging-evidence"
    else:
        b_verdict = "inconclusive"

    c_flags = []
    censor_rates = []
    for k, a in enumerate(a_grid):
        cfg = PathConfig(horizon, reps, _rng.derive_seed(seed, 72, k))
        est = estimate_EG_lastexit(dist, g, float(a), cfg, censor_bound=censor_bound)
        censor_rates.append(est.censor_rate)
        c_flags.append(est.censor_rate <= censor_bound)
    c_verdict = "finite-evidence" if all(c_flags) else "divergent-evidence"

    classes = [_classify(moment.verdict), _classify(b_verdict), _classify(c_verdict)]
    consistent = None not in classes and len(set(classes)) == 1
    return {
        "dist": dist.spec_string(),
        "G": g.spec_string(),
        "a_grid": list(float(a) for a in a_grid),
        "verdict_a": moment.verdict,
        "verdict_b": b_verdict,
        "verdict_c": c_verdict,
        "series_verdicts": series_verdicts,
        "censor_rates": censor_rates,
        "consistent": consistent,
    }


def _split_dist_specs(text: str) -> list[str]:
    """Split a comma list of distribution specs.  A spec's parameters are
    comma separated too, so a token with "=" but no ":" continues the
    previous spec: "rademacher,bernoulli:p=0.75,v0=-3,v1=1" is two specs."""
    specs: list[str] = []
    for token in (t.strip() for t in text.split(",")):
        if specs and "=" in token and ":" not in token:
            specs[-1] += "," + token
        elif token:
            specs.append(token)
    return specs


def _exp_theorem1_matrix(spec: dict):
    dspecs = _need(spec, "dists")
    if isinstance(dspecs, str):
        dspecs = _split_dist_specs(dspecs)
    g_spec = _need(spec, "g")
    seed = _field(spec, "seed", int, 0)
    kwargs = dict(
        a_grid=_field(spec, "a_grid", _floats, (0.25, 0.5, 1.0)),
        reps=_field(spec, "reps", int, 20_000),
        horizon=_field(spec, "horizon", int, 2**13),
        n_max=_field(spec, "n_max", int, 2**14),
        reps_per_block=_field(spec, "reps_per_block", int, 10_000),
    )

    def _cell(idx_spec):
        idx, ds = idx_spec
        return theorem1_row(ds, g_spec, seed=_rng.derive_seed(seed, _rng.STREAM_CELL, idx), **kwargs)

    jobs = list(enumerate(dspecs))
    workers = min(spec.get("threads", 1), len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_cell, jobs))
    else:
        rows = [_cell(j) for j in jobs]
    all_consistent = all(r["consistent"] for r in rows)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "theorem1-matrix",
        "G": g_spec,
        "seed": seed,
        "rows": rows,
        "all_consistent": all_consistent,
        "csv_header": ["dist", "verdict_a", "verdict_b", "verdict_c", "consistent"],
        "csv_rows": [
            [r["dist"], r["verdict_a"], r["verdict_b"], r["verdict_c"], r["consistent"]]
            for r in rows
        ],
    }
    return payload, 0 if all_consistent else 1


_HANDLERS = {
    "moderate-audit": _exp_moderate_audit,
    "last-exit": _exp_last_exit,
    "series": _exp_series,
    "bounds": _exp_bounds,
    "counterexample": _exp_counterexample,
    "sprt-run": _exp_sprt_run,
    "sprt-sweep": _exp_sprt_sweep,
    "theorem1-matrix": _exp_theorem1_matrix,
}


def run_experiment(spec: dict):
    """Dispatch a validated experiment spec; returns (payload, exit_code)."""
    kind = spec.get("kind")
    handler = _HANDLERS.get(kind)
    if handler is None:
        raise ConfigurationError(f"unknown experiment kind {kind!r}")
    threads = spec.get("threads", 1)
    if not isinstance(threads, int) or threads < 1:
        raise ConfigurationError(f"threads must be an integer of at least 1, got {threads!r}")
    return handler(spec)


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------


def _finish(ctx, payload, code):
    opts = ctx.obj
    data = emit(payload, opts["format"], stamp=opts["stamp"])
    if opts["out"]:
        with open(opts["out"], "wb") as fh:
            fh.write(data)
    else:
        click.echo(data, nl=False)
    sys.exit(code)


def _run(ctx, spec):
    spec.setdefault("seed", ctx.obj["seed"])
    spec.setdefault("threads", ctx.obj["threads"])
    try:
        payload, code = run_experiment(spec)
    except LabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _finish(ctx, payload, code)


@click.group()
@click.option("--out", type=click.Path(), default=None, help="Write the report here instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="Root seed; cell seeds derive from it.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads for matrix cells (at least 1; capped at cells and cores).")
@click.option("--stamp", is_flag=True, default=False, help="Add a timestamp field to the report.")
@click.pass_context
def main(ctx, out, fmt, seed, threads, stamp):
    """Simulation laboratory for last-exit times, deviation series, effective
    bound audits, and Wald sequential tests."""
    ctx.obj = {"out": out, "format": fmt, "seed": seed, "threads": threads, "stamp": stamp}


@main.command("moderate-audit")
@click.option("--g", "g_spec", required=True, help='Function spec, e.g. "power:r=2" or "exp:b=0.5".')
@click.option("--t-min", type=float, default=None)
@click.option("--t-max", type=float, default=None)
@click.option("--points", type=int, default=321, show_default=True)
@click.option("--growth-threshold", type=float, default=1.5, show_default=True)
@click.pass_context
def cmd_moderate_audit(ctx, g_spec, t_min, t_max, points, growth_threshold):
    """Audit the doubling ratio of a growth function."""
    spec = {"kind": "moderate-audit", "g": g_spec, "points": points, "growth_threshold": growth_threshold}
    if t_min is not None:
        spec["t_min"] = t_min
    if t_max is not None:
        spec["t_max"] = t_max
    _run(ctx, spec)


@main.command("last-exit")
@click.option("--dist", required=True)
@click.option("--g", "g_spec", required=True)
@click.option("--a", type=float, required=True)
@click.option("--horizon", type=int, default=2**12, show_default=True)
@click.option("--reps", type=int, default=20_000, show_default=True)
@click.option("--center", type=float, default=0.0, show_default=True)
@click.pass_context
def cmd_last_exit(ctx, dist, g_spec, a, horizon, reps, center):
    """Estimate E[G(L_a)] for the Cesaro means of a law."""
    _run(ctx, {"kind": "last-exit", "dist": dist, "g": g_spec, "a": a,
               "horizon": horizon, "reps": reps, "center": center})


@main.command("series")
@click.option("--dist", required=True)
@click.option("--g", "g_spec", required=True)
@click.option("--a", type=float, required=True)
@click.option("--n-max", type=int, default=2**14, show_default=True)
@click.option("--reps-per-block", type=int, default=10_000, show_default=True)
@click.pass_context
def cmd_series(ctx, dist, g_spec, a, n_max, reps_per_block):
    """Estimate the deviation series sum n^-1 G(n) P[|S_n/n| >= a]."""
    _run(ctx, {"kind": "series", "dist": dist, "g": g_spec, "a": a,
               "n_max": n_max, "reps_per_block": reps_per_block})


@main.command("bounds")
@click.option("--prop", type=click.Choice(["1", "2", "3", "sym"]), required=True)
@click.option("--dist", required=True)
@click.option("--g", "g_spec", required=True)
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--p", type=int, default=None)
@click.option("--a", type=float, default=1.0, show_default=True)
@click.option("--horizon", type=int, default=2**13, show_default=True)
@click.option("--reps", type=int, default=20_000, show_default=True)
@click.option("--n-max", type=int, default=2**14, show_default=True)
@click.option("--reps-per-block", type=int, default=10_000, show_default=True)
@click.pass_context
def cmd_bounds(ctx, prop, dist, g_spec, alpha, p, a, horizon, reps, n_max, reps_per_block):
    """Audit one of the effective bounds; exits 1 when the audit fails."""
    _run(ctx, {"kind": "bounds", "prop": prop, "dist": dist, "g": g_spec,
               "alpha": alpha, "p": p, "a": a, "horizon": horizon, "reps": reps,
               "n_max": n_max, "reps_per_block": reps_per_block})


@main.command("counterexample")
@click.option("--g", "g_spec", default="exp:b=1", show_default=True)
@click.option("--prefix", type=int, default=100_000, show_default=True)
@click.pass_context
def cmd_counterexample(ctx, g_spec, prefix):
    """Build the non-moderate counterexample law and test its moment dichotomy."""
    _run(ctx, {"kind": "counterexample", "g": g_spec, "prefix": prefix})


@main.group()
def sprt():
    """Wald sequential test commands."""


@sprt.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--horizon", type=int, default=None)
@click.pass_context
def cmd_sprt_run(ctx, config_path, horizon):
    """Run one sequential test from a JSON config (stream or simulate block)."""
    with open(config_path) as fh:
        conf = json.load(fh)
    spec = {"kind": "sprt-run", "config": conf}
    if horizon is not None:
        spec["horizon"] = horizon
    _run(ctx, spec)


@sprt.command("sweep")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--errors", required=True, help='Comma list of target errors, e.g. "1e-1,1e-2,1e-3,1e-4".')
@click.option("--g", "g_spec", default="power:r=1", show_default=True)
@click.option("--true-index", type=int, default=0, show_default=True)
@click.option("--reps", type=int, default=20_000, show_default=True)
@click.pass_context
def cmd_sprt_sweep(ctx, config_path, errors, g_spec, true_index, reps):
    """Optimality sweep: E[G(tau_c)] against the first-order reference."""
    with open(config_path) as fh:
        conf = json.load(fh)
    _run(ctx, {"kind": "sprt-sweep", "config": conf,
               "errors": [float(x) for x in errors.split(",")],
               "g": g_spec, "true_index": true_index, "reps": reps})


@main.command("theorem1-matrix")
@click.option("--dists", required=True,
              help='Comma list of distribution specs, e.g. "rademacher,bernoulli:p=0.75,v0=-3,v1=1".')
@click.option("--g", "g_spec", required=True)
@click.option("--a-grid", default="0.25,0.5,1.0", show_default=True)
@click.option("--reps", type=int, default=20_000, show_default=True)
@click.option("--horizon", type=int, default=2**13, show_default=True)
@click.option("--n-max", type=int, default=2**14, show_default=True)
@click.option("--reps-per-block", type=int, default=10_000, show_default=True)
@click.pass_context
def cmd_theorem1(ctx, dists, g_spec, a_grid, reps, horizon, n_max, reps_per_block):
    """Check that the moment, series, and last-exit verdicts agree per law."""
    _run(ctx, {"kind": "theorem1-matrix", "dists": dists, "g": g_spec,
               "a_grid": [float(a) for a in a_grid.split(",")],
               "reps": reps, "horizon": horizon, "n_max": n_max,
               "reps_per_block": reps_per_block})


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.pass_context
def cmd_run(ctx, config_path):
    """Run an experiment spec from a JSON file (field 'kind' selects it)."""
    with open(config_path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        click.echo("error: the config must be a JSON object", err=True)
        sys.exit(2)
    _run(ctx, spec)


if __name__ == "__main__":
    main()
