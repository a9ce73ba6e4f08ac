"""Experiment orchestration and the ``bklab`` command line.

Each experiment kind is one entry of ``_KINDS``: a handler and its spec
fields.  ``run_experiment`` parses a spec (a plain dict, also loadable with
``run --config file.json``) against those fields, refusing any other key, and
every subcommand is built from them, one option per field, so both share
names and defaults.
Exit codes: 0 pass/consistent, 1 fail/inconsistent, 2 configuration error.
``_theorem1_rows`` is the one place that plans and pools a matrix's
simulations (per law, the deviation profile if the series reads one and
one last-exit batch per level); each draws its seed from the root seed and
its cell coordinates, so reports are identical for any ``--threads``.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from functools import partial
from itertools import islice
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn

import click
import numpy as np

from . import rng as _rng
from .bounds import prop1_check, prop2_check, prop3_check, sym_transfer_check
from .distributions import (
    counterexample_dist,
    moment_xg,
    parse_dist_spec,
)
from .errors import ConfigurationError, LabError
from .functions import DEFAULT_AUDIT_GRID, GridSpec, doubling_ratio_sup, parse_function_spec
from .lastexit import (
    PathConfig,
    check_centered,
    check_level,
    check_profile,
    deviation_profile,
    estimate_EG_lastexit,
    estimate_series,
    last_exit_samples,
    needs_profile,
)
from .report import DIVERGENT, FINITE, LAST_EXIT, MODERATION, SCHEMA_VERSION, SERIES
from .report import bound_report_payload, emit
from .sprt import HypothesisSet, optimality_sweep, run_test

SERIES_CSV_HEADER = ["lo", "hi", "contribution", "se"]
SWEEP_CSV_HEADER = ["target_error", "c", "mean_G_tau", "reference_G", "ratio"]
MATRIX_CSV_HEADER = ["dist", "verdict_a", "verdict_b", "verdict_c", "consistent"]
DEFAULT_A_GRID = (0.25, 0.5, 1.0)

_REQUIRED = object()


class _Field(NamedTuple):
    """A spec field, read as ``convert(spec[key])``.  An absent, null or empty
    value takes ``default`` (converted unless None) or, for a required field,
    is an error.  A field without help is read from specs, not the command line."""

    key: str
    convert: Callable
    default: object = _REQUIRED
    help: str | None = None


class _Kind(NamedTuple):
    handler: Callable
    fields: tuple
    csv: bool = False  # whether the report has a CSV form


def _parse(fields, spec: dict) -> SimpleNamespace:
    """The converted values of ``fields`` in ``spec``; a key that is no field,
    a missing required field or a value its converter rejects is a
    configuration error naming it."""
    keys = {f.key for f in fields}
    for key in spec:
        if key not in keys:
            raise ConfigurationError(f"experiment spec has no field {key!r}")
    values = {}
    for key, convert, default, _ in fields:
        value = spec.get(key)
        if value is None or value == "":
            if default is _REQUIRED:
                raise ConfigurationError(f"experiment spec is missing the field {key!r}")
            value = default
        try:
            values[key] = None if value is None else convert(value)
        except LabError:
            raise
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"experiment spec field {key!r} has an invalid value {value!r}"
            ) from None
    return SimpleNamespace(**values)


def _float(value) -> float:
    """A float field; a bool is refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _floats(values) -> tuple:
    return tuple(_float(v) for v in values)


def _float_list(values) -> tuple:
    """A comma string (command line) or a JSON list (config) of floats."""
    return _floats(values.split(",") if isinstance(values, str) else values)


def _split_dist_specs(text) -> list[str]:
    """Split a comma list of distribution specs (a JSON list is taken as it
    is).  A spec's parameters are comma separated too, so a token with "=" but
    no ":" continues the previous spec: "rademacher,bernoulli:p=0.75,v0=-3,v1=1"
    is two specs."""
    if not isinstance(text, str):
        return list(text)
    specs: list[str] = []
    for token in (t.strip() for t in text.split(",")):
        if specs and "=" in token and ":" not in token:
            specs[-1] += "," + token
        elif token:
            specs.append(token)
    return specs


def _int(value) -> int:
    """An integer field; a bool or a float with a fractional part is refused,
    not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not a boolean")
    return value


def _threads(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(f"threads must be an integer of at least 1, got {value!r}")
    return value


_COMMON = (_Field("seed", _int, 0), _Field("threads", _threads, 1))
_SIMULATE = _Field("simulate", lambda b: _parse((_Field("true_index", _int),), dict(b)), None)
# One table for the config of ``sprt run`` and ``sprt sweep``, so one file
# serves both; only ``sprt run`` reads levels, horizon, stream and simulate.
_SPRT_CONFIG = (
    _Field("alphabet", _floats),
    _Field("hypotheses", lambda rows: tuple(_floats(r) for r in rows)),
    _Field("reference", _floats, None),
    _Field("strict", _json_bool, True),
    _Field("levels", _floats, None),
    _Field("horizon", _int, 4096),
    _Field("stream", _floats, None),
    _SIMULATE,
)


def _sprt_config(conf) -> SimpleNamespace:
    """An SPRT ``config`` object read against ``_SPRT_CONFIG``, plus the
    ``HypothesisSet`` it defines as ``hyp``."""
    v = _parse(_SPRT_CONFIG, dict(conf))
    v.hyp = HypothesisSet(alphabet=v.alphabet, masses=v.hypotheses,
                          reference=v.reference, strict=v.strict)
    return v


_DIST = _Field("dist", parse_dist_spec, _REQUIRED, 'Law spec, e.g. "pareto2:beta=1.5".')
_G = _Field("g", parse_function_spec, _REQUIRED, 'Function spec, e.g. "power:r=2" or "exp:b=0.5".')
_A = _Field("a", _float, _REQUIRED, "Deviation level a.")
_HORIZON = _Field("horizon", _int, 2**13, "Steps simulated per path.")
_REPS = _Field("reps", _int, 20_000, "Replicate paths.")
_N_MAX = _Field("n_max", _int, 2**14, "Last term of the series partial sum.")
_REPS_PER_BLOCK = _Field("reps_per_block", _int, 10_000, "Paths of the deviation profile.")


# ---------------------------------------------------------------------------
# Experiment handlers: each takes the parsed fields of its kind
# ---------------------------------------------------------------------------


def _exp_moderate_audit(v):
    """Audit the doubling ratio of a growth function."""
    grid = GridSpec(v.t_min, v.t_max, v.points)
    rep = doubling_ratio_sup(v.g, grid, v.growth_threshold)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "moderate-audit",
        "seed": v.seed,
        "name": v.g.spec_string(),
        "grid": {"t_min": grid.t_min, "t_max": grid.t_max, "points": grid.points},
        "ratio_max": rep.grid_max,
        "log_ratio_max": rep.log_grid_max,
        "analytic_sup": rep.analytic_sup,
        "growth_verdict": rep.verdict,
        "verdict": MODERATION[rep.verdict.kind],
    }
    return payload, 0


def _exp_last_exit(v):
    """Estimate E[G(L_a)] for the Cesaro means of a law."""
    cfg = PathConfig(horizon=v.horizon, replicates=v.reps, seed=v.seed, center=v.center)
    est = estimate_EG_lastexit(v.dist, v.g, v.a, cfg)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "last-exit",
        "dist": v.dist.spec_string(),
        "G": v.g.spec_string(),
        "a": v.a,
        "horizon": cfg.horizon,
        "replicates": cfg.replicates,
        "seed": cfg.seed,
        "mean": est.mean,
        "se": est.se,
        "censor_rate": est.censor_rate,
        "horizon_warning": est.horizon_warning,
    }
    return payload, 0


def _exp_series(v):
    """Estimate the deviation series sum n^-1 G(n) P[|S_n/n| >= a]."""
    est = estimate_series(v.dist, v.g, v.a, v.n_max, v.reps_per_block, v.seed)
    blocks = [asdict(b) for b in est.blocks]
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "series",
        "dist": v.dist.spec_string(),
        "G": v.g.spec_string(),
        "a": v.a,
        "n_max": est.n_max,
        "seed": v.seed,
        "head": est.head,
        "head_exact": est.head_exact,
        "blocks": blocks,
        "partial_sum": est.partial_sum,
        "se": est.se,
        "verdict": est.verdict,
        "csv_header": SERIES_CSV_HEADER,
        "csv_rows": [[b[k] for k in SERIES_CSV_HEADER] for b in blocks],
    }
    return payload, 0


def _exp_bounds(v):
    """Audit one of the effective bounds; exits 1 when the audit fails."""
    cfg = PathConfig(horizon=v.horizon, replicates=v.reps, seed=v.seed)
    series = dict(n_max=v.n_max, reps_per_block=v.reps_per_block)
    if v.prop == "1":
        report = prop1_check(v.dist, v.g, v.alpha, cfg)
    elif v.prop == "2":
        report = prop2_check(v.dist, v.g, v.p, seed=v.seed, **series)
    elif v.prop == "3":
        report = prop3_check(v.dist, v.g, cfg, **series)
    elif v.prop == "sym":
        reports = sym_transfer_check(v.dist, v.g, cfg, a=v.a)
        all_pass = all(r.passed for r in reports)
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": "bounds",
            "prop": "sym",
            "seed": v.seed,
            "all_pass": all_pass,
            "reports": [bound_report_payload(r) for r in reports],
        }
        return payload, 0 if all_pass else 1
    else:
        raise ConfigurationError(f"unknown proposition selector {v.prop!r}")
    payload = bound_report_payload(report)
    payload["kind"] = "bounds"
    return payload, 0 if report.passed else 1


def _exp_counterexample(v):
    """Build the non-moderate counterexample law and test its moment dichotomy."""
    dist = counterexample_dist(v.g, v.prefix)
    own = moment_xg(dist, v.g)
    doubled = moment_xg(dist, v.g, arg_scale=2.0)
    harmonic = float(np.sum(1.0 / np.arange(1, v.prefix + 1)))
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "counterexample",
        "seed": v.seed,
        "G": v.g.spec_string(),
        "prefix": v.prefix,
        "c": dist.c,
        "stored_mass": dist.stored_mass,
        "tail_mass_bound": dist.tail_mass_bound,
        "moment_value": own.value,
        "moment_verdict": own.verdict,
        "moment_halfwidth": own.halfwidth,
        "doubled_partial_sum": doubled.value,
        "doubled_verdict": doubled.verdict,
        "harmonic_floor": 2.0 * dist.c * harmonic,
        "csv_header": ["atom", "mass"],
        "csv_rows": np.column_stack((dist.atom_values, dist.atom_masses)),
    }
    ok = own.verdict.kind == FINITE and doubled.verdict.kind == DIVERGENT
    return payload, 0 if ok else 1


def _exp_sprt_run(v):
    """Run one sequential test from a JSON config (stream or simulate block).

    A spec's own ``horizon``, ``stream`` or ``simulate`` overrides the config's."""
    conf = v.config
    if conf.levels is None:
        raise ConfigurationError("experiment spec is missing the field 'levels'")
    horizon = conf.horizon if v.horizon is None else v.horizon
    stream = conf.stream if v.stream is None else v.stream
    if stream is None:
        sim = conf.simulate if v.simulate is None else v.simulate
        if sim is None:
            raise ConfigurationError("sprt-run needs a stream or a simulate block")
        conf.hyp.check_index(sim.true_index)
        gen = _rng.substream(v.seed, _rng.STREAM_SPRT, 99)
        draw = lambda g, n: conf.hyp.sample_indices(g, sim.true_index, n)
        chunks = _rng.walk(draw, 1, gen, horizon)  # drawn as the test reads them
        stream = (conf.hyp.alphabet[k] for _n, idx in chunks for k in idx[0])
    record = run_test(conf.hyp, conf.levels, iter(stream), horizon)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "sprt-run",
        "seed": v.seed,
        "levels": list(conf.levels),
        "horizon": horizon,
        "tau": record.tau,
        "censored": record.censored,
        "decision": record.decision,
        "rho": [r for r in record.rho],
        "log_ratios_at_tau": list(record.log_ratios_at_tau),
    }
    return payload, 0


def _exp_sprt_sweep(v):
    """Optimality sweep: E[G(tau_c)] against the first-order reference."""
    sweep = optimality_sweep(v.config.hyp, v.errors, v.true_index, v.g, v.reps, v.seed)
    rows = [asdict(r) for r in sweep]
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "sprt-sweep",
        "G": v.g.spec_string(),
        "true_index": v.true_index,
        "seed": v.seed,
        "rows": rows,
        "csv_header": SWEEP_CSV_HEADER,
        "csv_rows": [[r[k] for k in SWEEP_CSV_HEADER] for r in rows],
    }
    return payload, 0


def _theorem1_row(dist, g, a_grid, n_max, profile, batches) -> dict:
    """The three equivalence verdicts of one law from its simulations: the
    deviation ``profile`` up to ``n_max`` (None when the series needs none)
    and one last-exit batch per level of ``a_grid``.

    (a) is the moment functional verdict, (b) the series verdict over the
    a-grid, (c) the last-exit integrability verdict from censoring.  The row
    is consistent when all three are of the same kind, finite or divergent.
    """
    moment = moment_xg(dist, g)
    series_verdicts = [estimate_series(dist, g, a, n_max, profile=profile).verdict for a in a_grid]
    b_kinds = {v.kind for v in series_verdicts}
    b_verdict = SERIES[DIVERGENT if DIVERGENT in b_kinds else FINITE if b_kinds == {FINITE} else None]
    c_verdict = LAST_EXIT[DIVERGENT if any(b.horizon_warning for b in batches) else FINITE]

    kinds = [moment.verdict.kind, b_verdict.kind, c_verdict.kind]
    consistent = None not in kinds and len(set(kinds)) == 1
    return {
        "dist": dist.spec_string(),
        "G": g.spec_string(),
        "a_grid": list(a_grid),
        "verdict_a": moment.verdict,
        "verdict_b": b_verdict,
        "verdict_c": c_verdict,
        "series_verdicts": series_verdicts,
        "censor_rates": [b.censor_rate for b in batches],
        "consistent": consistent,
    }


def _theorem1_rows(dist_specs, g_spec, seeds, threads, *, reps, horizon, n_max, reps_per_block,
                   a_grid) -> list:
    """The Theorem-1 row of each law under one G, law ``i`` simulated from
    ``seeds[i]``.  Every input is checked before the first simulation starts.
    The simulations (per law, the deviation profile if the series reads one,
    then one last-exit batch per level) run on up to ``threads`` workers,
    capped at jobs and cores."""
    g = parse_function_spec(g_spec)
    dists = [parse_dist_spec(s) for s in dist_specs]
    levels = [float(a) for a in a_grid]
    for a in levels:
        check_level(a)
    check_profile(n_max, reps_per_block)
    profiled = [needs_profile(dist, n_max) for dist in dists]
    jobs = []
    for dist, seed, profile in zip(dists, seeds, profiled):
        check_centered(dist)
        if profile:
            jobs.append(partial(deviation_profile, dist, n_max, reps_per_block,
                                _rng.derive_seed(seed, 71), stream=71))
        jobs += [partial(last_exit_samples, dist, a, PathConfig(horizon, reps, _rng.derive_seed(seed, 72, k)))
                 for k, a in enumerate(levels)]
    # The pool runs simulations, not laws: a law's simulations cost about
    # the same, while whole laws differ in cost and are few.
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = iter(list(pool.map(lambda job: job(), jobs)))
    else:
        results = iter([job() for job in jobs])
    return [_theorem1_row(dist, g, levels, n_max, next(results) if profile else None,
                          list(islice(results, len(levels))))
            for dist, profile in zip(dists, profiled)]


def theorem1_row(dist_spec: str, g_spec: str, *, reps: int, horizon: int, n_max: int,
                 reps_per_block: int, a_grid=DEFAULT_A_GRID, seed: int = 0) -> dict:
    """Evaluate the three equivalence verdicts for one (dist, G) cell; see
    ``_theorem1_row``.  The cell's simulations run one after another."""
    return _theorem1_rows([dist_spec], g_spec, [seed], 1, reps=reps, horizon=horizon, n_max=n_max,
                          reps_per_block=reps_per_block, a_grid=a_grid)[0]


def _exp_theorem1_matrix(v):
    """Check that the moment, series, and last-exit verdicts agree per law."""
    if not v.dists or not v.a_grid:
        raise ConfigurationError("theorem1-matrix needs a law in dists and a level in a_grid")
    seeds = [_rng.derive_seed(v.seed, _rng.STREAM_CELL, idx) for idx in range(len(v.dists))]
    rows = _theorem1_rows(v.dists, v.g, seeds, v.threads, reps=v.reps, horizon=v.horizon,
                          n_max=v.n_max, reps_per_block=v.reps_per_block, a_grid=v.a_grid)
    all_consistent = all(r["consistent"] for r in rows)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "theorem1-matrix",
        "G": v.g,
        "seed": v.seed,
        "rows": rows,
        "all_consistent": all_consistent,
        "csv_header": MATRIX_CSV_HEADER,
        "csv_rows": [[r[k] for k in MATRIX_CSV_HEADER] for r in rows],
    }
    return payload, 0 if all_consistent else 1


_CONFIG_HELP = "JSON file: alphabet, hypotheses, optional reference and strict"

_KINDS = {
    "moderate-audit": _Kind(_exp_moderate_audit, (
        _G,
        _Field("t_min", _float, DEFAULT_AUDIT_GRID.t_min, "Smallest grid point."),
        _Field("t_max", _float, DEFAULT_AUDIT_GRID.t_max, "Largest grid point."),
        _Field("points", _int, DEFAULT_AUDIT_GRID.points, "Points of the geometric grid."),
        _Field("growth_threshold", _float, 1.5, "Per-decade ratio rise that flags growth."),
    )),
    "last-exit": _Kind(_exp_last_exit, (
        _DIST, _G, _A, _HORIZON._replace(default=2**12), _REPS,
        _Field("center", _float, 0.0, "Deviation center of S_n/n."),
    )),
    "series": _Kind(_exp_series, (_DIST, _G, _A, _N_MAX, _REPS_PER_BLOCK), csv=True),
    "bounds": _Kind(_exp_bounds, (
        _Field("prop", str, _REQUIRED, "Audit: 1, 2, 3 or sym."),
        _DIST, _G,
        _Field("alpha", _float, 0.5, "Proposition 1 weight alpha."),
        _Field("p", _int, None, "Proposition 2 exponent (default: the smallest admissible)."),
        _A._replace(default=1.0), _HORIZON, _REPS, _N_MAX, _REPS_PER_BLOCK,
    )),
    "counterexample": _Kind(_exp_counterexample, (
        _G._replace(default="exp:b=1"),
        _Field("prefix", _int, 100_000, "Stored atoms of the law."),
    ), csv=True),
    "sprt-run": _Kind(_exp_sprt_run, (
        _Field("config", _sprt_config, _REQUIRED,
               _CONFIG_HELP + ", levels, horizon, stream or simulate."),
        _Field("horizon", _int, None, "Step cap (default: the config's horizon)."),
        _Field("stream", _floats, None),
        _SIMULATE,
    )),
    "sprt-sweep": _Kind(_exp_sprt_sweep, (
        _Field("config", _sprt_config, _REQUIRED, _CONFIG_HELP + "."),
        _Field("errors", _float_list, _REQUIRED, 'Comma list of target errors, e.g. "1e-1,1e-2".'),
        _G._replace(default="power:r=1"),
        _Field("true_index", _int, 0, "Index of the true hypothesis."),
        _REPS,
    ), csv=True),
    "theorem1-matrix": _Kind(_exp_theorem1_matrix, (
        _Field("dists", _split_dist_specs, _REQUIRED,
               'Comma list of law specs, e.g. "rademacher,bernoulli:p=0.75,v0=-3,v1=1".'),
        _G._replace(convert=str),
        _Field("a_grid", _float_list, ",".join(map(str, DEFAULT_A_GRID)),
               "Comma list of deviation levels."),
        _REPS, _HORIZON, _N_MAX, _REPS_PER_BLOCK,
    ), csv=True),
}


def _kind_of(spec: dict) -> _Kind | None:
    """The table entry named by the spec's ``kind``; None for any other value."""
    name = spec.get("kind")
    return _KINDS.get(name) if isinstance(name, str) else None


def run_experiment(spec: dict):
    """Dispatch an experiment spec; returns (payload, exit_code)."""
    kind = _kind_of(spec)
    if kind is None:
        raise ConfigurationError(f"unknown experiment kind {spec.get('kind')!r}")
    fields = {key: value for key, value in spec.items() if key != "kind"}
    return kind.handler(_parse(_COMMON + kind.fields, fields))


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------


def _fail(message) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_json(path: str):
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            _fail(f"{path} is not valid JSON: {exc}")


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
    kind = _kind_of(spec)
    if ctx.obj["format"] == "csv" and kind is not None and not kind.csv:
        _fail(f"a {spec['kind']} report has no CSV form; use --format json")
    try:
        payload, code = run_experiment(spec)
    except LabError as exc:
        _fail(exc)
    except MemoryError:
        _fail("the requested sizes need more memory than is available")
    _finish(ctx, payload, code)


@click.group()
@click.option("--out", type=click.Path(), default=None, help="Write the report here instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="Root seed; cell seeds derive from it.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads for matrix simulations (at least 1; capped at simulations and cores).")
@click.option("--stamp", is_flag=True, default=False, help="Add a timestamp field to the report.")
@click.pass_context
def main(ctx, out, fmt, seed, threads, stamp):
    """Simulation laboratory for last-exit times, deviation series, effective
    bound audits, and Wald sequential tests."""
    ctx.obj = {"out": out, "format": fmt, "seed": seed, "threads": threads, "stamp": stamp}


@main.group()
def sprt():
    """Wald sequential test commands."""


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.pass_context
def cmd_run(ctx, config_path):
    """Run an experiment spec from a JSON file (field 'kind' selects it)."""
    spec = _load_json(config_path)
    if not isinstance(spec, dict):
        _fail("the config must be a JSON object")
    _run(ctx, spec)


def _option(f: _Field) -> click.Option:
    """The ``--key`` option of a field, with the field's default."""
    if f.key == "config":
        value_type = click.Path(exists=True)
    else:
        value_type = {_int: int, _float: float}.get(f.convert, str)
    required = f.default is _REQUIRED
    return click.Option(["--" + f.key.replace("_", "-"), f.key], type=value_type, required=required,
                        default=None if required else f.default,
                        show_default=True, help=f.help)


def _command(name: str, kind_name: str, kind: _Kind) -> click.Command:
    def callback(**values):
        if "config" in values:
            values["config"] = _load_json(values["config"])
        _run(click.get_current_context(), {"kind": kind_name, **values})

    params = [_option(f) for f in kind.fields if f.help]
    return click.Command(name, callback=callback, params=params, help=kind.handler.__doc__)


for _name, _kind in _KINDS.items():
    _group, _sub = (sprt, _name[len("sprt-"):]) if _name.startswith("sprt-") else (main, _name)
    _group.add_command(_command(_sub, _name, _kind))


if __name__ == "__main__":
    main()
