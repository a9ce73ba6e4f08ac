import json
import math

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

    def fake_row(dist, g, a_grid, profile, batches):
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
