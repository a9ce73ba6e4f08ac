import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from bklab import cli, rng
from bklab.bounds import BoundReport
from bklab.cli import main, run_experiment, theorem1_row
from bklab.errors import ConfigurationError
from bklab.report import (
    bound_report_payload,
    canonical_bytes,
    emit,
    render_csv,
    render_json,
)
from bklab.sprt import HypothesisSet


def test_bound_report_payload_field_order():
    rep = BoundReport("prop1", lhs=1.0, lhs_se=0.0, rhs=2.0, rhs_se=0.1, seed=7)
    payload = bound_report_payload(rep)
    keys = list(payload)
    assert keys[:8] == ["name", "lhs", "lhs_se", "rhs", "rhs_se", "slack", "holds_within", "seed"]
    data = json.loads(render_json(payload))
    assert data["slack"] == 1.0 and data["seed"] == 7


def test_render_json_float_precision_roundtrip():
    x = 2.0 * (1.0 + 0.6931471805599453)
    data = json.loads(render_json({"v": x}))
    assert data["v"] == x  # 17 significant digits survive the round trip
    assert b"nan" in render_json({"v": float("nan")})


def test_render_json_deterministic():
    payload = {"b": 1.5, "a": [1, 2, {"z": True, "y": None}]}
    assert render_json(payload) == render_json(payload)


def test_render_csv_empty_rows_header_only():
    out = render_csv(["target_error", "c", "mean_G_tau", "reference_G", "ratio"], [])
    assert out == b"target_error,c,mean_G_tau,reference_G,ratio\n"


def test_emit_csv_requires_projection():
    with pytest.raises(ValueError):
        emit({"x": 1}, "csv")


def test_canonical_bytes_strips_timestamp():
    p = {"a": 1}
    stamped = emit(p, "json", stamp=True)
    assert b"timestamp" in stamped
    assert canonical_bytes({**p, "timestamp": "x"}) == canonical_bytes(p)


def test_run_experiment_unknown_kind():
    with pytest.raises(ConfigurationError):
        run_experiment({"kind": "mystery"})
    with pytest.raises(ConfigurationError):
        run_experiment({"kind": "series", "dist": "rademacher"})  # missing fields


def test_cli_moderate_audit_exp():
    runner = CliRunner()
    res = runner.invoke(main, ["moderate-audit", "--g", "exp:b=1", "--t-max", "100"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["verdict"] == "non-moderate-evidence"
    assert data["kind"] == "moderate-audit"


def test_cli_moderate_audit_power():
    runner = CliRunner()
    res = runner.invoke(main, ["moderate-audit", "--g", "power:r=2"])
    data = json.loads(res.output)
    assert res.exit_code == 0
    assert data["verdict"] == "moderate-consistent"
    assert data["analytic_sup"] == 4.0


def test_cli_series_json_and_csv(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["series", "--dist", "rademacher", "--g", "power:r=1", "--a", "1",
         "--n-max", "30"],
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert abs(data["partial_sum"] - 3.3862943611198906) < 1e-6
    out = tmp_path / "blocks.csv"
    res = runner.invoke(
        main,
        ["--format", "csv", "--out", str(out),
         "series", "--dist", "rademacher", "--g", "power:r=1", "--a", "1",
         "--n-max", "30"],
    )
    assert res.exit_code == 0
    assert out.read_text().startswith("lo,hi,contribution,se")


def test_cli_bounds_exit_codes():
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["bounds", "--prop", "1", "--dist", "rademacher", "--g", "power:r=2",
         "--horizon", "256", "--reps", "1000"],
    )
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["name"] == "prop1" and data["holds_within"] >= 0
    # precondition failure (no doubling constant) is a configuration error
    res = runner.invoke(
        main,
        ["bounds", "--prop", "1", "--dist", "rademacher", "--g", "exp:b=1",
         "--horizon", "64", "--reps", "100"],
    )
    assert res.exit_code == 2


def test_cli_unknown_dist_exits_2():
    runner = CliRunner()
    res = runner.invoke(main, ["series", "--dist", "zeta", "--g", "power:r=1", "--a", "1"])
    assert res.exit_code == 2


def test_cli_inconsistent_matrix_exits_1():
    # a horizon this short censors a large share of gaussian paths at a=1/4,
    # so (c) reads divergent while (a) and (b) stay finite: inconsistent row
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["theorem1-matrix", "--dists", "gaussian:sigma=1", "--g", "power:r=1",
         "--a-grid", "0.25", "--reps", "2000", "--horizon", "16",
         "--n-max", "256", "--reps-per-block", "500"],
    )
    assert res.exit_code == 1, res.output
    data = json.loads(res.output)
    assert data["all_consistent"] is False


def test_cli_counterexample():
    runner = CliRunner()
    res = runner.invoke(main, ["counterexample", "--g", "exp:b=1", "--prefix", "5000"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["moment_verdict"] == "finite"
    assert data["doubled_verdict"] == "divergence-evidence"
    assert data["doubled_partial_sum"] >= data["harmonic_floor"]


def test_cli_sprt_run_stream(tmp_path):
    conf = {
        "alphabet": [0, 1],
        "hypotheses": [[0.5, 0.5], [0.25, 0.75]],
        "levels": [20.085536923187668, 20.085536923187668],  # e^3
        "stream": [1] * 50,
    }
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    runner = CliRunner()
    res = runner.invoke(main, ["sprt", "run", "--config", str(path)])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["tau"] == 14 and data["decision"] == 1
    assert data["rho"] == [14, None]


def test_cli_sprt_sweep_csv(tmp_path):
    conf = {
        "alphabet": [0, 1],
        "hypotheses": [[0.5, 0.5], [0.25, 0.75]],
        "levels": [10.0, 10.0],
    }
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    out = tmp_path / "sweep.csv"
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["--format", "csv", "--out", str(out),
         "sprt", "sweep", "--config", str(path), "--errors", "1e-1,1e-2",
         "--reps", "1000"],
    )
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "target_error,c,mean_G_tau,reference_G,ratio"
    assert len(lines) == 3


def test_cli_run_generic_config(tmp_path):
    spec = {"kind": "moderate-audit", "g": "powlog:r=1,s=1"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    runner = CliRunner()
    res = runner.invoke(main, ["run", "--config", str(path)])
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "moderate-consistent"


def test_theorem1_row_consistent_light_tail():
    row = theorem1_row(
        "rademacher", "power:r=1",
        a_grid=(0.5, 1.0), reps=2000, horizon=2**9, n_max=2**9,
        reps_per_block=1000, seed=5,
    )
    assert row["verdict_a"] == "finite"
    assert row["consistent"] is True


def test_cli_theorem1_thread_count_invariance(tmp_path):
    runner = CliRunner()
    args = ["theorem1-matrix", "--dists", "rademacher,gaussian:sigma=1",
            "--g", "power:r=1", "--a-grid", "0.5,1.0",
            "--reps", "1000", "--horizon", "256", "--n-max", "256",
            "--reps-per-block", "500"]
    res1 = runner.invoke(main, ["--seed", "42", "--threads", "1"] + args)
    res2 = runner.invoke(main, ["--seed", "42", "--threads", "4"] + args)
    assert res1.exit_code == 0 and res2.exit_code == 0
    assert res1.output == res2.output
    res3 = runner.invoke(main, ["--seed", "43", "--threads", "1"] + args)
    assert res3.output != res1.output


def test_cli_theorem1_dists_with_comma_parameters():
    # the bernoulli spec's own parameters are comma separated too
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["theorem1-matrix", "--dists", "rademacher,bernoulli:p=0.75,v0=-3,v1=1",
         "--g", "power:r=1", "--a-grid", "1.0", "--reps", "1000",
         "--horizon", "512", "--n-max", "512", "--reps-per-block", "500"],
    )
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert [r["dist"] for r in data["rows"]] == ["rademacher", "bernoulli:p=0.75,v0=-3,v1=1"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_threads_below_one_exits_2(threads):
    runner = CliRunner()
    res = runner.invoke(main, ["--threads", threads, "counterexample", "--prefix", "10"])
    assert res.exit_code == 2
    assert "threads must be an integer of at least 1" in res.output


def test_run_experiment_rejects_non_integer_threads():
    with pytest.raises(ConfigurationError):
        run_experiment({"kind": "counterexample", "prefix": 10, "threads": "two"})


def test_run_experiment_rejects_boolean_threads():
    with pytest.raises(ConfigurationError, match="threads must be an integer"):
        run_experiment({"kind": "counterexample", "prefix": 10, "threads": True})


def test_cli_series_zero_reps_exits_2():
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["series", "--dist", "rademacher", "--g", "power:r=1", "--a", "0.5",
         "--n-max", "128", "--reps-per-block", "0"],
    )
    assert res.exit_code == 2, res.output
    assert "replicate count must be >= 1" in res.output


_BERN_CONF = {"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]], "levels": [10.0, 10.0]}
_SWEEP = {"kind": "sprt-sweep", "config": _BERN_CONF, "errors": [1e-1], "reps": 10}


@pytest.mark.parametrize(
    "spec,field",
    [
        ({"kind": "counterexample", "g": "exp:b=1", "prefix": "ten"}, "prefix"),
        ({"kind": "last-exit", "dist": "rademacher", "g": "power:r=1", "a": 0.5,
          "horizon": [64]}, "horizon"),
        ({"kind": "series", "dist": "rademacher", "g": "power:r=1", "a": "half"}, "a"),
        # integer fields refuse booleans and fractional floats instead of truncating
        ({"kind": "counterexample", "prefix": True}, "prefix"),
        (dict(_SWEEP, reps=10.9), "reps"),
        (dict(_SWEEP, true_index=True), "true_index"),
        (dict(_SWEEP, seed=False), "seed"),
        ({"kind": "sprt-run", "config": dict(_BERN_CONF, simulate={"true_index": True})},
         "true_index"),
        ({"kind": "sprt-run", "config": dict(_BERN_CONF, simulate={"true_index": 0.5})},
         "true_index"),
        ({"kind": "sprt-run", "config": _BERN_CONF, "simulate": {"true_index": 1.5}},
         "true_index"),
        ({"kind": "sprt-run", "config": dict(_BERN_CONF, horizon=10.9, stream=[1] * 20)},
         "horizon"),
        # float fields refuse booleans instead of reading them as 0 or 1
        ({"kind": "series", "dist": "rademacher", "g": "power:r=1", "a": True}, "a"),
        ({"kind": "sprt-run", "config": dict(_BERN_CONF, alphabet=[False, True], stream=[1] * 20)},
         "alphabet"),
        ({"kind": "sprt-run", "config": dict(_BERN_CONF, levels=[True, 10.0], stream=[1] * 20)},
         "levels"),
        (dict(_SWEEP, errors=[True]), "errors"),
        ({"kind": "sprt-run", "config": _BERN_CONF, "stream": [True] * 20}, "stream"),
    ],
)
def test_run_config_wrong_type_exits_2(tmp_path, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"field {field!r} has an invalid value" in res.output


def test_cli_moderate_audit_points_builds_the_grid():
    res = CliRunner().invoke(main, ["moderate-audit", "--g", "power:r=2", "--points", "40"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["grid"] == {"t_min": 0.01, "t_max": 1e6, "points": 40}


@pytest.mark.parametrize(
    "spec,args",
    [
        ({"kind": "counterexample", "prefix": 2000}, ["counterexample", "--prefix", "2000"]),
        ({"kind": "moderate-audit", "g": "power:r=1", "points": 40},
         ["moderate-audit", "--g", "power:r=1", "--points", "40"]),
    ],
)
def test_run_config_and_subcommand_share_defaults(tmp_path, spec, args):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    runner = CliRunner()
    from_config = runner.invoke(main, ["run", "--config", str(path)])
    from_options = runner.invoke(main, args)
    assert from_config.exit_code == from_options.exit_code == 0, from_config.output
    assert from_config.stdout_bytes == from_options.stdout_bytes


def test_sprt_strict_must_be_a_json_boolean(tmp_path):
    conf = {"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]],
            "levels": [20.0, 20.0], "stream": [1] * 40, "strict": "false"}
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    res = CliRunner().invoke(main, ["sprt", "run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "field 'strict' has an invalid value" in res.output


@pytest.mark.parametrize(
    "args",
    [["last-exit", "--a", "nan"], ["last-exit", "--a", "inf"], ["last-exit", "--a", "1", "--center", "nan"],
     ["series", "--a", "nan"], ["series", "--a", "inf"]],
)
def test_cli_nonfinite_level_or_center_exits_2(args):
    law = ["--dist", "gaussian:sigma=1", "--g", "power:r=1", "--reps", "10", "--horizon", "16"]
    if args[0] == "series":
        law = law[:4] + ["--n-max", "16", "--reps-per-block", "10"]
    res = CliRunner().invoke(main, args + law)
    assert res.exit_code == 2, res.output
    assert "must be finite" in res.output


def test_sprt_run_nonfinite_alphabet_exits_2(tmp_path):
    # json reads NaN; no observation read from a stream could match it
    path = tmp_path / "conf.json"
    path.write_text('{"alphabet": [NaN, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]], '
                    '"levels": [20.0, 20.0], "stream": [NaN, 1, 1]}')
    res = CliRunner().invoke(main, ["sprt", "run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "alphabet symbols must be finite" in res.output


@pytest.mark.parametrize(
    "args,field",
    [
        (["sprt", "sweep", "--config", "{conf}", "--errors", "abc", "--reps", "10"], "errors"),
        (["theorem1-matrix", "--dists", "rademacher", "--g", "power:r=1", "--a-grid", "x",
          "--reps", "10", "--horizon", "16", "--n-max", "16", "--reps-per-block", "10"],
         "a_grid"),
    ],
)
def test_cli_bad_comma_list_exits_2(tmp_path, args, field):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]]}))
    res = CliRunner().invoke(main, [a.format(conf=path) for a in args])
    assert res.exit_code == 2, res.output
    assert f"field {field!r} has an invalid value" in res.output


@pytest.mark.parametrize(
    "args",
    [["run", "--config", "{bad}"],
     ["sprt", "run", "--config", "{bad}"],
     ["sprt", "sweep", "--config", "{bad}", "--errors", "0.1"]],
    ids=["run", "sprt-run", "sprt-sweep"],
)
def test_cli_malformed_json_config_exits_2(tmp_path, args):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "series",')
    res = CliRunner().invoke(main, [a.format(bad=bad) for a in args])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ") and "not valid JSON" in res.output


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "last-exit", "dist": 5, "g": "power:r=1", "a": 0.5, "horizon": 64, "reps": 10},
        {"kind": "last-exit", "dist": "rademacher", "g": ["power"], "a": 0.5, "horizon": 64,
         "reps": 10},
        {"kind": "theorem1-matrix", "dists": [5], "g": "power:r=1", "reps": 10, "horizon": 64,
         "n_max": 64, "reps_per_block": 10},
    ],
    ids=["dist", "g", "dists"],
)
def test_run_config_non_string_spec_exits_2(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ") and "spec must be a string" in res.output


@pytest.mark.parametrize(
    "kind,args",
    [
        ("moderate-audit", ["moderate-audit", "--g", "power:r=2"]),
        ("last-exit", ["last-exit", "--dist", "rademacher", "--g", "power:r=1", "--a", "1",
                       "--horizon", "16", "--reps", "10"]),
        ("bounds", ["bounds", "--prop", "1", "--dist", "rademacher", "--g", "power:r=2",
                    "--horizon", "16", "--reps", "10"]),
        ("sprt-run", ["sprt", "run", "--config", "{conf}"]),
    ],
)
def test_cli_csv_without_csv_form_exits_2(tmp_path, kind, args):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]],
                                "levels": [20.0, 20.0], "stream": [1] * 40}))
    res = CliRunner().invoke(main, ["--format", "csv"] + [a.format(conf=path) for a in args])
    assert res.exit_code == 2, res.output
    assert f"a {kind} report has no CSV form; use --format json" in res.output


@pytest.mark.parametrize(
    "threads,cells,levels,cores,expected",
    [(64, 2, 3, 8, 8), (64, 5, 3, 3, 3), (2, 5, 3, 8, 2), (4, 1, 3, 8, 4), (8, 1, 1, 8, 2),
     (1, 3, 3, 8, None), (4, 4, 3, 1, None)],
)
def test_matrix_pool_capped_at_simulations_and_cores(
    monkeypatch, threads, cells, levels, cores, expected
):
    """The pool runs each cell's deviation profile and its last-exit batch per
    level, so it sees cells * (1 + levels) jobs and holds at most that many
    workers, and no more than threads and cores."""
    sizes, jobs = [], []

    class RecordingPool:
        """Records the pool size and the jobs, and runs them inline: no thread starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, sims):
            jobs.extend(sims)
            return map(fn, jobs)

    def fake_profile(dist, n_max, reps, seed, *, stream):
        return ("profile", dist.spec_string())

    def fake_batch(dist, a, cfg):
        return ("batch", dist.spec_string(), a)

    def fake_row(dist, g, a_grid, n_max, profile, batches):
        assert profile == ("profile", dist.spec_string())
        assert batches == [("batch", dist.spec_string(), a) for a in a_grid]
        return {"dist": dist.spec_string(), "verdict_a": "finite", "verdict_b": "finite",
                "verdict_c": "finite", "consistent": True}

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "deviation_profile", fake_profile)
    monkeypatch.setattr(cli, "last_exit_samples", fake_batch)
    monkeypatch.setattr(cli, "_theorem1_row", fake_row)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    dists = [f"uniform:w={k + 1}" for k in range(cells)]
    a_grid = [0.25 * (k + 1) for k in range(levels)]
    payload, code = run_experiment({"kind": "theorem1-matrix", "dists": dists,
                                    "g": "power:r=1", "a_grid": a_grid, "threads": threads})
    assert code == 0 and [r["dist"] for r in payload["rows"]] == dists
    assert sizes == ([] if expected is None else [expected])
    assert len(jobs) == (0 if expected is None else cells * (1 + levels))


_MATRIX_SIZES = {"--dists": "rademacher,gaussian:sigma=1", "--a-grid": "0.5,1", "--reps": "100",
                 "--horizon": "64", "--n-max": "64", "--reps-per-block": "100"}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("option,value,message", [
    ("--dists", "rademacher,bernoulli:p=0.7", "bernoulli is not centered"),
    ("--a-grid", "0.5,0", "a must be finite and positive"),
    ("--a-grid", "0.5,-1", "a must be finite and positive"),
    ("--a-grid", "nan", "a must be finite and positive"),
    ("--a-grid", "0.5,inf", "a must be finite and positive"),
    ("--n-max", "1", "n_max must be >= 2"),
    ("--reps-per-block", "0", "the replicate count must be >= 1"),
    ("--horizon", "0", "horizon and replicates must be >= 1"),
])
def test_matrix_refuses_bad_input_before_any_simulation(monkeypatch, threads, option, value, message):
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a simulation started before the inputs were checked")

    monkeypatch.setattr(cli, "deviation_profile", recorder)
    monkeypatch.setattr(cli, "last_exit_samples", recorder)
    sizes = dict(_MATRIX_SIZES, **{option: value})
    args = ["--threads", str(threads), "theorem1-matrix", "--g", "power:r=1"]
    res = CliRunner().invoke(main, args + [f"{k}={v}" for k, v in sizes.items()])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert calls == []


@pytest.mark.parametrize("args,message", [
    (["--growth-threshold", "inf"], "growth_threshold must exceed 1 and be finite"),
    (["--t-max", "inf"], "t_max must be finite"),
    (["--t-min", "-inf"], "t_min must be finite"),
])
def test_cli_moderate_audit_non_finite_setting_exits_2(args, message):
    res = CliRunner().invoke(main, ["moderate-audit", "--g", "exp:b=1"] + args)
    assert res.exit_code == 2, res.output
    assert message in res.output


@pytest.mark.parametrize("errors", ["1e-320", "0.1,5e-324"])
def test_cli_sprt_sweep_target_error_without_finite_inverse_exits_2(tmp_path, errors):
    # 1/a overflows to inf below about 5.6e-309, and no horizon can follow it
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(_BERN_CONF))
    res = CliRunner().invoke(main, ["sprt", "sweep", "--config", str(path), "--errors", errors])
    assert res.exit_code == 2, res.output
    assert "with a finite c = 1/a" in res.output


# ---------------------------------------------------------------------------
# Byte identity against the recursive serializer the single pass replaced
# ---------------------------------------------------------------------------


def _ref_to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _ref_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_ref_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _ref_render_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return f"{x:.17g}"
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _ref_render(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {_ref_render(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [f"{pad}  {_ref_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _ref_render_scalar(obj)


def _ref_render_json(payload) -> bytes:
    return (_ref_render(_ref_to_jsonable(payload), 0) + "\n").encode()


def _ref_render_csv(header, rows) -> bytes:
    def cell(x) -> str:
        if isinstance(x, float):
            return f"{x:.17g}"
        return str(x)

    lines = [",".join(header)]
    for row in _ref_to_jsonable(rows):
        lines.append(",".join(cell(c) for c in row))
    return ("\n".join(lines) + "\n").encode()


def _assert_same_bytes(payload):
    assert render_json(payload) == _ref_render_json(payload)
    assert emit(payload) == _ref_render_json(payload)
    if "csv_rows" in payload:
        ref = _ref_render_csv(list(payload["csv_header"]), payload["csv_rows"])
        assert render_csv(list(payload["csv_header"]), payload["csv_rows"]) == ref
        assert emit(payload, "csv") == ref


_SPRT_CONF = {"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]],
              "levels": [20.0, 20.0], "stream": [1] * 40}

# the criterion-9 specs, one per report kind
_KIND_SPECS = [
    {"kind": "moderate-audit", "g": "exp:b=1", "t_max": 100},
    {"kind": "last-exit", "dist": "rademacher", "g": "power:r=1", "a": 1.0,
     "horizon": 256, "reps": 2000},
    {"kind": "series", "dist": "gaussian:sigma=1", "g": "power:r=1", "a": 0.5,
     "n_max": 512, "reps_per_block": 1000},
    {"kind": "bounds", "prop": "1", "dist": "rademacher", "g": "power:r=2",
     "horizon": 256, "reps": 1000},
    {"kind": "counterexample", "g": "exp:b=1", "prefix": 2000},
    {"kind": "sprt-run", "config": _SPRT_CONF},
    {"kind": "sprt-sweep", "config": _SPRT_CONF, "errors": [1e-1, 1e-2], "reps": 1000},
    {"kind": "theorem1-matrix", "dists": "rademacher,gaussian:sigma=1", "g": "power:r=1",
     "a_grid": [0.5, 1.0], "reps": 1000, "horizon": 256, "n_max": 256,
     "reps_per_block": 500},
]


@pytest.mark.parametrize("spec", _KIND_SPECS, ids=[s["kind"] for s in _KIND_SPECS])
def test_single_pass_matches_reference_on_every_report_kind(spec):
    payload, _ = run_experiment({"seed": 7, **spec})
    _assert_same_bytes(payload)


def test_single_pass_matches_reference_on_edge_cases():
    nan, inf = float("nan"), float("inf")
    payload = {
        "floats": [nan, inf, -inf, -0.0, 0.1, 1e300, 5e-324],
        "numpy": [np.float32(0.1), np.float64(2.5), np.int64(-7), np.bool_(True),
                  np.bool_(False)],
        "bool_in_float_row": [[1.0, 2.0], [True, 3.0]],
        "ragged": [[1.0, 2.0], [3.0]],
        "row_with_nan": [[1.0, nan], [2.0, 3.0]],
        "row_with_inf": [[1.0, 2.0], [-inf, 3.0]],
        "numpy_row": [[1.0, np.float64(2.0)]],
        "tuples": ((1.0, 2.0), (3.0, 4.0)),
        "mixed_rows": [[1.0, 2.0], (3.0, 4.0)],
        "empties": [[], {}, [[]], [[], []]],
        "ndarray": np.arange(6, dtype=np.float64).reshape(3, 2) / 7.0,
        "ndarray_f32": np.linspace(0, 1, 4, dtype=np.float32),
        "ndarray_int": np.arange(3),
        "strings": ['quote " here', "back\\slash", "", 'both \\"'],
        "nested": [{"rows": [[0.5, 1.5, 2.5]] * 3, 7: None}, [[[1.0]]]],
        "scalars": [None, True, False, 0, -1, 2**70, "s"],
        "csv_header": ["a", "b"],
        "csv_rows": [[0.1, nan], [np.float32(0.1), inf], [np.int64(3), np.bool_(True)],
                     (True, None), ["x", -0.0], np.array([1.0, 2.0])],
    }
    _assert_same_bytes(payload)
    for rows in ([[0.1, 0.2]] * 4, [[0.1, nan]] * 2, [[1.0], [2.0, 3.0]], [],
                 np.arange(6.0).reshape(2, 3) / 3.0):
        _assert_same_bytes({"csv_header": ["a", "b", "c"], "csv_rows": rows})


def _tables():
    """2-D arrays and row lists for the float-table paths, by id."""
    nan, inf = float("nan"), float("inf")
    edge = np.array([[-0.0, 5e-324], [1e300, -1e300], [0.1, -2.5]])
    big = np.random.default_rng(3).standard_normal((4097, 3)) * 1e3
    return {
        "edge": edge,
        "rows_4097": big,
        "transposed": big[:40].T,
        "strided": big[::3, ::2],
        "one_row": big[:1],
        "one_column": big[:5, :1],
        "with_nan": np.where(np.arange(6).reshape(3, 2) == 4, nan, edge),
        "with_inf": np.array([[1.0, inf], [-inf, 2.0]]),
        "float32": big[:10].astype(np.float32),
        "int64": np.arange(-6, 6, dtype=np.int64).reshape(6, 2),
        "empty_rows": np.zeros((0, 2)),
        "empty_columns": np.zeros((3, 0)),
        "list_4097": big[:, :2].tolist(),
    }


@pytest.mark.parametrize("name", list(_tables()))
def test_float_tables_match_reference(name):
    table = _tables()[name]
    _assert_same_bytes({"table": table, "after": 1.5, "csv_header": ["a", "b"],
                        "csv_rows": table})
    _assert_same_bytes({"nested": [{"table": table}, table]})


# sha256 of the JSON and CSV reports of the counterexample law at seed 7
COUNTEREXAMPLE_PINS = {
    100_000: ("3148ce494d7b217cc1f468777d1d74139dfbdf45f3a4067bcd684b3cac9684c4",
              "702daf49a1791994712cb74bc33804363ffa70a126bc2989992f861c025ab029"),
    2_000: ("90f9526dac1a29732cd38ecfbc6a78abe058200ff77b95fc90fad2ed59c01602",
            "b33142e4acba65be1709e46e353100a539ed4996eb3bae324849955c9f361363"),
}


@pytest.mark.parametrize("prefix", list(COUNTEREXAMPLE_PINS))
def test_counterexample_report_digests(prefix):
    payload, code = run_experiment({"kind": "counterexample", "g": "exp:b=1", "seed": 7,
                                    "prefix": prefix})
    assert code == 0
    got = tuple(hashlib.sha256(emit(payload, fmt)).hexdigest() for fmt in ("json", "csv"))
    assert got == COUNTEREXAMPLE_PINS[prefix]


def _traced_peak(fn):
    """``fn()`` and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counterexample_report_memory():
    # The 200,000-row atom table stays one float64 array (3.2 MB) up to the
    # report; emission writes each encoded chunk into one byte buffer and
    # returns its bytes without a copy, so it never holds text and bytes.
    spec = {"kind": "counterexample", "g": "exp:b=1", "seed": 7, "prefix": 100_000}
    (payload, _), peak = _traced_peak(lambda: run_experiment(spec))
    assert peak <= 10e6
    for fmt in ("json", "csv"):
        data, peak = _traced_peak(lambda: emit(payload, fmt))
        assert peak <= 1.25 * len(data), fmt


@pytest.mark.parametrize("kind", [["series"], {"name": "series"}])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_config_unhashable_kind_exits_2(tmp_path, kind, fmt):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": kind}))
    res = CliRunner().invoke(main, ["--format", fmt, "run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "unknown experiment kind" in res.output
    with pytest.raises(ConfigurationError, match="unknown experiment kind"):
        run_experiment({"kind": kind})


def test_cli_moderate_audit_runs_the_doubling_audit_once(monkeypatch):
    from bklab import functions

    calls = []
    real = functions.doubling_ratio_sup

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(functions, "doubling_ratio_sup", counting)
    monkeypatch.setattr(cli, "doubling_ratio_sup", counting)
    res = CliRunner().invoke(main, ["moderate-audit", "--g", "exp:b=1", "--t-max", "100"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["verdict"] == "non-moderate-evidence"
    assert len(calls) == 1


@pytest.mark.parametrize("threshold", ["0", "-1", "1", "nan"])
def test_cli_moderate_audit_growth_threshold_at_most_1_exits_2(threshold):
    res = CliRunner().invoke(
        main, ["moderate-audit", "--g", "power:r=1", "--growth-threshold", threshold]
    )
    assert res.exit_code == 2, res.output
    assert "growth_threshold must exceed 1" in res.output


@pytest.mark.parametrize("index", ["5", "-1"])
def test_cli_sprt_sweep_true_index_out_of_range_exits_2(tmp_path, index):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(_BERN_CONF))
    res = CliRunner().invoke(main, ["sprt", "sweep", "--config", str(path), "--errors", "1e-1",
                                    "--reps", "10", "--true-index", index])
    assert res.exit_code == 2, res.output
    assert "hypothesis index" in res.output


@pytest.mark.parametrize("index", [7, -1, 2])
def test_cli_sprt_run_simulate_true_index_out_of_range_exits_2(tmp_path, index):
    spec = {"kind": "sprt-run", "config": dict(_BERN_CONF, simulate={"true_index": index})}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "hypothesis index" in res.output


def test_cli_theorem1_matrix_empty_law_list_exits_2():
    res = CliRunner().invoke(main, ["theorem1-matrix", "--dists", ",", "--g", "power:r=1"])
    assert res.exit_code == 2, res.output
    assert "needs a law in dists" in res.output


def test_run_config_theorem1_matrix_empty_level_grid_exits_2(tmp_path):
    spec = {"kind": "theorem1-matrix", "dists": ["rademacher"], "g": "power:r=1", "a_grid": [],
            "reps": 100, "horizon": 64, "n_max": 64, "reps_per_block": 100}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "a level in a_grid" in res.output
    with pytest.raises(ConfigurationError, match="a level in a_grid"):
        run_experiment(spec)


def test_run_config_integral_float_keeps_its_bytes():
    as_int, _ = run_experiment(dict(_SWEEP, reps=10, true_index=1, seed=3))
    as_float, _ = run_experiment(dict(_SWEEP, reps=10.0, true_index=1.0, seed=3.0))
    assert render_json(as_float) == render_json(as_int)


def test_run_config_sprt_sweep_without_errors_exits_2(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(_SWEEP, errors=[])))
    res = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "at least one target error" in res.output


@pytest.mark.parametrize("horizon", [0, -3])
def test_run_config_sprt_run_simulate_horizon_below_one_exits_2(tmp_path, horizon):
    spec = {"kind": "sprt-run", "config": dict(_BERN_CONF, simulate={"true_index": 0}),
            "horizon": horizon}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "horizon must be >= 1" in res.output


def test_sprt_run_repeated_alphabet_symbol_exits_2(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(dict(_BERN_CONF, alphabet=[0, 0], stream=[0] * 20)))
    res = CliRunner().invoke(main, ["sprt", "run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "alphabet symbols must be distinct" in res.output


def test_sprt_run_simulate_draws_a_chunk_at_a_time(tmp_path, monkeypatch):
    """A simulate block draws its symbols as the test reads them, so a huge
    horizon neither allocates it up front nor delays a quick decision."""
    calls = []
    sample_indices = HypothesisSet.sample_indices

    def recording(self, gen, i, n):
        calls.append(n)
        return sample_indices(self, gen, i, n)

    monkeypatch.setattr(HypothesisSet, "sample_indices", recording)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(dict(_BERN_CONF, simulate={"true_index": 1})))
    res = CliRunner().invoke(main, ["sprt", "run", "--config", str(path), "--horizon", "100000000"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["tau"] is not None
    assert calls and max(calls) <= rng.CHUNK


# The exact head covers n <= 64 (``lastexit.needs_profile``), so this matrix reads
# no deviation profile; the digest was recorded while it still simulated one.
LATTICE_HEAD_MATRIX = ["theorem1-matrix", "--dists", "rademacher", "--g", "power:r=1",
                       "--n-max", "64", "--reps", "200", "--horizon", "64",
                       "--reps-per-block", "400"]
LATTICE_HEAD_PIN = ("411e4823f8f7dfcd3a58c2a81d3ab1581b8ba0ec906700adb1b49486eb82996e", 1)


def test_matrix_skips_a_profile_the_exact_head_makes_unread(monkeypatch):
    def recorder(*args, **kwargs):
        raise AssertionError("a deviation profile was simulated for an exact head")

    monkeypatch.setattr(cli, "deviation_profile", recorder)
    res = CliRunner().invoke(main, LATTICE_HEAD_MATRIX)
    assert (hashlib.sha256(res.stdout_bytes).hexdigest(), res.exit_code) == LATTICE_HEAD_PIN


@pytest.mark.parametrize("g,c", [("power:r=1", "2"), ("powlog:r=1,s=1", "3.38629")])
def test_cli_counterexample_of_moderate_g_exits_2(g, c):
    res = CliRunner().invoke(main, ["counterexample", "--g", g])
    assert res.exit_code == 2, res.output
    assert f"{g} is moderate (G(2t) <= {c} G(t)), so it has no counterexample law" in res.output


@pytest.mark.parametrize("args", [
    ["last-exit", "--dist", "gaussian:sigma=1", "--g", "power:r=1", "--a", "1",
     "--reps", "1000000000000", "--horizon", "16"],
    ["series", "--dist", "gaussian:sigma=1", "--g", "power:r=1", "--a", "1",
     "--reps-per-block", "1000000000000"],
])
def test_cli_sizes_beyond_memory_exit_2(args):
    # numpy refuses these allocations (terabytes) up front, so nothing is allocated
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "more memory than is available" in res.output


@pytest.mark.parametrize("spec,message", [
    ("gaussian:sigma=nan", "sigma must be positive and finite"),
    ("pareto2:beta=inf", "pareto needs finite beta > 0 and scale > 0"),
    ("uniform:w=nan", "half_width must be positive and finite"),
    ("triangular:w=inf", "half_width must be positive and finite"),
    ("bernoulli:p=0.5,v0=nan,v1=1", "atoms must be finite"),
])
def test_cli_non_finite_law_parameter_exits_2(spec, message):
    res = CliRunner().invoke(main, ["last-exit", "--dist", spec, "--g", "power:r=1", "--a", "1",
                                    "--horizon", "16", "--reps", "10"])
    assert res.exit_code == 2, res.output
    assert message in res.output


@pytest.mark.parametrize("args,message", [
    (["moderate-audit", "--g", "exp:b=inf"], "exp family needs a finite b > 0, got inf"),
    (["last-exit", "--dist", "rademacher", "--g", "power:r=nan", "--a", "1",
      "--horizon", "16", "--reps", "10"], "power family needs a finite r >= 0, got nan"),
    (["series", "--dist", "rademacher", "--g", "powlog:r=1,s=inf", "--a", "1"],
     "powlog family needs finite r, s >= 0"),
])
def test_cli_non_finite_function_parameter_exits_2(args, message):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert message in res.output


_SMALL = ["--horizon", "16", "--reps", "10"]


@pytest.mark.parametrize("args,message", [
    (["last-exit", "--dist", "gaussian:sigm=5", "--g", "power", "--a", "1", *_SMALL],
     "gaussian takes no key 'sigm'"),
    (["last-exit", "--dist", "uniform:w=1,w=2", "--g", "power", "--a", "1", *_SMALL],
     "w is given twice"),
    (["theorem1-matrix", "--dists", "rademacher,pareto2", "--g", "power", *_SMALL],
     "distribution kind 'pareto2' needs beta"),
    (["theorem1-matrix", "--dists", "bernoulli", "--g", "power", *_SMALL],
     "distribution kind 'bernoulli' needs p"),
    (["theorem1-matrix", "--dists", "rademacher", "--g", "power:s=3", *_SMALL],
     "power takes no key 's'"),
    (["counterexample", "--g", "exp:b=1,b=2"], "b is given twice"),
    (["counterexample", "--g", "exp:b=x"], "b must read as float"),
])
def test_cli_malformed_spec_exits_2(args, message):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "error:" in res.output and message in res.output
    assert "Traceback" not in res.output


def test_run_config_malformed_spec_exits_2(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "last-exit", "dist": "counterexample:G=exp,prefix=x",
                                "g": "power:r=1", "a": 1.0, "horizon": 16, "reps": 10}))
    res = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "error: bad distribution spec item 'prefix=x': prefix must read as int" in res.output


@pytest.mark.parametrize("spec,message", [
    ("discrete:", "bad discrete atom ''"),
    ("discrete:1@", "bad discrete atom '1@'"),
    ("discrete:-1@0.5;1@0.4", "atom masses must be nonnegative and sum to 1"),
])
def test_cli_malformed_discrete_spec_exits_2(spec, message):
    res = CliRunner().invoke(main, ["last-exit", "--dist", spec, "--g", "power:r=1", "--a", "1",
                                    "--horizon", "16", "--reps", "10"])
    assert res.exit_code == 2, res.output
    assert message in res.output


@pytest.mark.parametrize("kind", list(cli._KINDS))
def test_every_kind_refuses_an_unknown_field(kind):
    with pytest.raises(ConfigurationError, match="experiment spec has no field 'no_such_field'"):
        run_experiment({"kind": kind, "no_such_field": 1})


@pytest.mark.parametrize(
    "args,spec,field",
    [
        (["run", "--config", "{path}"],
         {"kind": "moderate-audit", "g": "power:r=1", "pointz": 40}, "pointz"),
        (["run", "--config", "{path}"],
         {"kind": "series", "dist": "rademacher", "g": "power:r=1", "a": 1.0, "nmax": 64,
          "reps_per_block": 10}, "nmax"),
        (["sprt", "run", "--config", "{path}"],
         dict(_BERN_CONF, stream=[1] * 20, refrence=[0.1, 0.9]), "refrence"),
        (["sprt", "sweep", "--config", "{path}", "--errors", "1e-1", "--reps", "10"],
         dict(_BERN_CONF, refrence=[0.1, 0.9]), "refrence"),
        (["sprt", "run", "--config", "{path}"],
         dict(_BERN_CONF, simulate={"true_idx": 1}), "true_idx"),
    ],
    ids=["moderate-audit", "series", "sprt-run-config", "sprt-sweep-config", "simulate"],
)
def test_unknown_spec_field_exits_2(tmp_path, args, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = CliRunner().invoke(main, [a.format(path=path) for a in args])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ") and f"has no field {field!r}" in res.output


def test_sprt_run_config_without_levels_exits_2(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]],
                                "stream": [1] * 20}))
    res = CliRunner().invoke(main, ["sprt", "run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "experiment spec is missing the field 'levels'" in res.output
