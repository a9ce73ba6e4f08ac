"""CLI output pins: fixed digests and exit codes of ``bklab`` reports.

Every subcommand runs at ``--seed 7`` on the criterion-9 sizes, in JSON and,
for the report kinds that have a CSV form, in CSV, and the sha256 of its
stdout and its exit code are compared with values recorded from an earlier
build.  A refactor of the command line or of the spec parsing must leave every
report byte-identical.  The digests were recorded with numpy 2.4.6.

The option test lists each command's option names and required options as
they stood when the commands were written by hand, so building the commands
from a table adds and removes none.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from bklab.cli import main, theorem1_row
from bklab.report import render_json

SPRT_CONF = {"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]],
             "levels": [20.0, 20.0], "stream": [1] * 40}
SIM_CONF = {"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]],
            "levels": [20.0, 20.0], "simulate": {"true_index": 1}}
RUN_SPEC = {"kind": "sprt-run", "config": SPRT_CONF, "stream": [0, 1] * 30}

# name -> (arguments after the global options, {format: (sha256, exit code)})
CASES = {
    "moderate-audit": (
        ["moderate-audit", "--g", "exp:b=1", "--t-max", "100"],
        {"json": ("462221168d3e4296a4de09ee8a6487067596cd38167cc0b27ed59d5c98b2708e", 0)},
    ),
    "moderate-audit-default": (
        ["moderate-audit", "--g", "power:r=2"],
        {"json": ("16a4fd01d7c37c3b18065fef7ca202095c45133d790b797302e5fbbdee2f9b89", 0)},
    ),
    "last-exit": (
        ["last-exit", "--dist", "rademacher", "--g", "power:r=1", "--a", "1",
         "--horizon", "256", "--reps", "2000"],
        {"json": ("231146127fb23174275d51ad28b7bc5eaa2a4c871be01ed3c6c80af3139cb2e6", 0)},
    ),
    "series": (
        ["series", "--dist", "gaussian:sigma=1", "--g", "power:r=1", "--a", "0.5",
         "--n-max", "512", "--reps-per-block", "1000"],
        {"json": ("d8c24b184445771e070d9863c74c3efbcb077c24aa5b71c63932f19397b8cb50", 0),
         "csv": ("1922963c484f335598631514aee060cbd6b520732ef2d280c10c774c91879e64", 0)},
    ),
    "bounds-1": (
        ["bounds", "--prop", "1", "--dist", "rademacher", "--g", "power:r=2",
         "--horizon", "256", "--reps", "1000"],
        {"json": ("c3aa285354f63b5f64342ce508a6cc9bb0570397e9dace3c882013a00df4e930", 0)},
    ),
    "bounds-2": (
        ["bounds", "--prop", "2", "--dist", "rademacher", "--g", "power:r=2",
         "--n-max", "256", "--reps-per-block", "500"],
        {"json": ("650688eeed59258e6db13a6ec7c2255b3eedc0213ce3f17de562110b6edb1f7e", 0)},
    ),
    "bounds-sym": (
        ["bounds", "--prop", "sym", "--dist", "rademacher", "--g", "power:r=1",
         "--horizon", "256", "--reps", "1000"],
        {"json": ("95fc0c5d548ff81b8274368ceae04860a5f33ba809569a7a293166bf8adcc485", 0)},
    ),
    "counterexample": (
        ["counterexample", "--g", "exp:b=1", "--prefix", "2000"],
        {"json": ("90f9526dac1a29732cd38ecfbc6a78abe058200ff77b95fc90fad2ed59c01602", 0),
         "csv": ("b33142e4acba65be1709e46e353100a539ed4996eb3bae324849955c9f361363", 0)},
    ),
    "sprt-run": (
        ["sprt", "run", "--config", "{conf}"],
        {"json": ("a3867fc6f261a8f7c1ad0cbc8b90322e7c9f4bdab81af8eed452b54682651214", 0)},
    ),
    "sprt-run-horizon": (
        ["sprt", "run", "--config", "{conf}", "--horizon", "50"],
        {"json": ("8c5858e3e304a16759f1ea645586be0737ff2f96ce8eaa290a7bc19fd5dadd49", 0)},
    ),
    "sprt-run-simulate": (
        ["sprt", "run", "--config", "{sim}"],
        {"json": ("99070e7ccf5054387cfd245d05cccf83c5d0b88b9739cfb85583c4efb366b17f", 0)},
    ),
    "sprt-sweep": (
        ["sprt", "sweep", "--config", "{conf}", "--errors", "1e-1,1e-2", "--reps", "1000"],
        {"json": ("04cf061fbd491e888460ad0b0c35f6c74606c82be1b75a63d1612f068f688f20", 0),
         "csv": ("3a472a534a18e54adbffe4dc90e44975533c280df60b020325d601fea0b2a801", 0)},
    ),
    "theorem1-matrix": (
        ["theorem1-matrix", "--dists", "rademacher,gaussian:sigma=1", "--g", "power:r=1",
         "--a-grid", "0.5,1.0", "--reps", "1000", "--horizon", "256", "--n-max", "256",
         "--reps-per-block", "500"],
        {"json": ("3c588a51d95f9fe3d554d0792712774a1627bfb5d4df7b4f3943bf26a19d9664", 0),
         "csv": ("c78bf1732e1a883ee157d192b3f7d06ae53e0b10991f212a2fca83e2ab853900", 0)},
    ),
    "theorem1-matrix-inconsistent": (
        ["theorem1-matrix", "--dists", "gaussian:sigma=1", "--g", "power:r=1",
         "--a-grid", "0.25", "--reps", "2000", "--horizon", "16", "--n-max", "256",
         "--reps-per-block", "500"],
        {"json": ("ef3d765febe2a37a5d72e7fe163db0eeb72b71092dfbf65567de7cbfc125fd62", 1)},
    ),
    "run-sprt-stream": (
        ["run", "--config", "{spec}"],
        {"json": ("447ed3dfee5f500bf2c131aaac2bcbe4b5ac79a8fc05125bee718b7403d91e3e", 0)},
    ),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pins")
    out = {}
    for name, data in (("conf", SPRT_CONF), ("sim", SIM_CONF), ("spec", RUN_SPEC)):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(data))
        out[name] = str(path)
    return out


@pytest.mark.parametrize(
    "name,fmt",
    [(name, fmt) for name, (_, pins) in CASES.items() for fmt in pins],
)
def test_cli_report_digest(files, name, fmt):
    args, pins = CASES[name]
    args = [a.format(**files) for a in args]
    res = CliRunner().invoke(main, ["--seed", "7", "--format", fmt] + args)
    got = (hashlib.sha256(res.stdout_bytes).hexdigest(), res.exit_code)
    assert got == pins[fmt], res.output


def _commands(group, prefix=""):
    for name, cmd in group.commands.items():
        if hasattr(cmd, "commands"):
            yield from _commands(cmd, prefix + name + " ")
        else:
            yield prefix + name, cmd


# command -> (option names, required options), as written by hand before
OPTIONS = {
    "moderate-audit": ({"--g", "--t-min", "--t-max", "--points", "--growth-threshold"},
                       {"--g"}),
    "last-exit": ({"--dist", "--g", "--a", "--horizon", "--reps", "--center"},
                  {"--dist", "--g", "--a"}),
    "series": ({"--dist", "--g", "--a", "--n-max", "--reps-per-block"},
               {"--dist", "--g", "--a"}),
    "bounds": ({"--prop", "--dist", "--g", "--alpha", "--p", "--a", "--horizon", "--reps",
                "--n-max", "--reps-per-block"},
               {"--prop", "--dist", "--g"}),
    "counterexample": ({"--g", "--prefix"}, set()),
    "sprt run": ({"--config", "--horizon"}, {"--config"}),
    "sprt sweep": ({"--config", "--errors", "--g", "--true-index", "--reps"},
                   {"--config", "--errors"}),
    "theorem1-matrix": ({"--dists", "--g", "--a-grid", "--reps", "--horizon", "--n-max",
                         "--reps-per-block"},
                        {"--dists", "--g"}),
    "run": ({"--config"}, {"--config"}),
}


def test_cli_option_names_unchanged():
    got = {}
    for name, cmd in _commands(main):
        opts = [p for p in cmd.params if p.param_type_name == "option"]
        got[name] = ({o for p in opts for o in p.opts},
                     {o for p in opts if p.required for o in p.opts})
    assert got == OPTIONS
    assert {o for p in main.params for o in p.opts} == {
        "--out", "--format", "--seed", "--threads", "--stamp"}


# theorem1-matrix in the shape of the benchmark's ``paths`` op: continuous
# and heavy-tailed laws, three levels, horizon 2048.  Its simulations may run
# on any number of threads and must give the same report.
PATHS_MATRIX = ["theorem1-matrix", "--dists",
                "gaussian:sigma=1,uniform:w=1,pareto2:beta=4,pareto2:beta=1.5",
                "--g", "power:r=1", "--a-grid", "0.25,0.5,1", "--reps", "4000",
                "--horizon", "2048", "--n-max", "4096", "--reps-per-block", "2000"]
PATHS_MATRIX_PIN = ("44aff0340c1f07bf54440ccb4565fa1b7568a40651be8b9a742adf5079aa99c2", 0)


@pytest.mark.parametrize("threads", [1, 2])
def test_paths_matrix_digest_at_any_thread_count(threads):
    res = CliRunner().invoke(main, ["--seed", "7", "--threads", str(threads)] + PATHS_MATRIX)
    got = (hashlib.sha256(res.stdout_bytes).hexdigest(), res.exit_code)
    assert got == PATHS_MATRIX_PIN, res.output


# theorem1_row called directly, as criterion 4 calls it: one law, its own
# simulations, one thread.
ROW_SIZES = dict(a_grid=(0.25, 0.5, 1.0), reps=3000, horizon=2**10, n_max=2**11,
                 reps_per_block=1500, seed=5)
ROW_PINS = {
    "rademacher": "2f4f1a99659b8f8223c39a9d709cad48093efd1a57f53241a972dfd03331af32",
    "gaussian:sigma=1": "ab1254f154981a7ebdfd2384c3bc73df2e3f4320cceb08e10656624d455c4bda",
    "pareto2:beta=1.5": "d344c856788d1f23819a9b59ca71fbb484766f449f10cb13b3e344093be7454b",
    "bernoulli:p=0.75,v0=-3,v1=1": "d006552e9593ea877db74bad13351294f0e7297641add4e0d2c92b29ffaaacba",
}


@pytest.mark.parametrize("dist", list(ROW_PINS))
def test_theorem1_row_digest(dist):
    row = theorem1_row(dist, "power:r=1", **ROW_SIZES)
    assert hashlib.sha256(render_json(row)).hexdigest() == ROW_PINS[dist]
