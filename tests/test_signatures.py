"""The parameter names of every callable that ``bklab`` exports, and a
reader for each.

A change that adds, removes or renames a parameter of the public API has to
change ``SIGNATURES``, so the change shows in the diff.  An export that
nothing reads has to be deleted, or named in ``KEPT`` with the reason it
stays."""

import ast
import inspect
import pathlib
import types

import bklab

ROOT = pathlib.Path(__file__).resolve().parents[1]

SIGNATURES = {
    "BoundReport": ("name", "lhs", "lhs_se", "rhs", "rhs_se", "seed", "details"),
    "CounterexampleDist": ("g", "ts", "weights", "c", "tail_mass_bound"),
    "DecisionRecord": ("tau", "censored", "decision", "rho", "log_ratios_at_tau"),
    "DeviationProfile": (
        "dist_spec", "endpoints", "small_values", "endpoint_values", "n_max", "reps",
    ),
    "Discrete": ("values", "probs", "name"),
    "Distribution": (),
    "EGEstimate": ("mean", "se", "censor_rate", "horizon_warning"),
    "Gaussian": ("sigma",),
    "GridSpec": ("t_min", "t_max", "points"),
    "HypothesisSet": ("alphabet", "masses", "reference", "strict"),
    "ModerateFunction": ("name", "params", "_fn", "_log_fn", "claimed_doubling"),
    "PathConfig": ("horizon", "replicates", "seed", "center"),
    "SeriesEstimate": (
        "a", "n_max", "head", "head_exact", "blocks", "partial_sum", "se", "verdict",
    ),
    "Symmetrized": ("inner",),
    "TriangularSymmetric": ("half_width",),
    "TwoSidedPareto": ("beta", "scale"),
    "UniformSymmetric": ("half_width",),
    "abs_mean": ("dist", "reps", "seed"),
    "bernoulli": ("p", "values"),
    "count_compositions": ("p", "q"),
    "counterexample_dist": ("g", "prefix"),
    "deviation_profile": ("dist", "n_max", "reps", "seed", "stream"),
    "doubling_ratio_sup": ("g", "grid", "growth_threshold"),
    "doubling_witness_exp": ("b", "count"),
    "enumerate_compositions": ("p", "q"),
    "estimate_EG_lastexit": ("dist", "g", "a", "cfg", "batch", "stream"),
    "estimate_G_moment": ("hyp", "levels", "true_index", "g", "reps", "horizon", "seed"),
    "estimate_errors": ("hyp", "levels", "true_index", "reps", "horizon", "seed"),
    "estimate_series": ("dist", "g", "a", "n_max", "reps_per_block", "seed", "profile"),
    "exponential": ("b",),
    "h_majorant": ("g", "p", "n"),
    "h_scaling_constant": ("g", "p", "grid"),
    "last_exit_samples": ("dist", "a", "cfg", "stream"),
    "levy_maximal_check": ("dist", "m", "t", "reps", "seed"),
    "moment_xg": ("dist", "g", "arg_scale", "reps", "seed"),
    "multinomial": ("p", "parts"),
    "normalize_counterexample": ("g", "ts", "prefix"),
    "optimality_sweep": ("hyp", "target_errors", "true_index", "g", "reps", "seed"),
    "parse_dist_spec": ("text",),
    "parse_function_spec": ("text",),
    "power": ("r",),
    "powlog": ("r", "s"),
    "prop1_check": ("dist", "g", "alpha", "cfg", "eg_batch"),
    "prop2_check": ("dist", "g", "p", "n_max", "reps_per_block", "seed", "profile"),
    "prop3_check": ("dist", "g", "cfg", "n_max", "reps_per_block", "eg_batch", "profile"),
    "rademacher": (),
    "rejection_rate": ("hyp", "c_i", "i", "reps", "horizon", "seed"),
    "run_test": ("hyp", "levels", "stream", "horizon"),
    "sample": ("dist", "seed", "n"),
    "simulate_runs": ("hyp", "levels", "true_index", "reps", "horizon", "seed"),
    "sym_transfer_check": ("dist", "g", "cfg", "a"),
    "symmetrization_check": ("dist", "reps", "seed"),
    "symmetrize": ("dist",),
    "tail": ("dist", "t", "reps", "seed"),
    "tail_prob_mean": ("dist", "n", "a", "reps", "seed"),
    "truncation_threshold": ("dist", "alpha"),
}


# Exports with no reader yet, each kept for a named later use.
KEPT = {
    "estimate_errors": "ROADMAP item 4 adds importance-sampled error rates beside it",
    "sample": "the public seeded draw of a law",
    "tail": "ROADMAP items 6 and 13 check against the closed-form tails",
}


def _exports() -> dict:
    return {
        name: obj
        for name, obj in vars(bklab).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, types.ModuleType)
    }


def _reads(path: pathlib.Path) -> dict:
    """The names a source file imports by name, reads as attributes, calls
    by name, and loads by name."""
    out = {"imported": set(), "attribute": set(), "called": set(), "loaded": set()}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            out["imported"].update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            out["attribute"].add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            out["called"].add(node.func.id)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out["loaded"].add(node.id)
    return out


def test_public_parameter_names_unchanged():
    got = {name: tuple(inspect.signature(obj).parameters) for name, obj in _exports().items()}
    assert got == SIGNATURES


def test_every_export_has_a_reader():
    # A reader imports the name or reads it as an attribute in another
    # bklab module, perfbench/*.py or the acceptance suite, or calls it by
    # name in its own module; a class may also be loaded by name there.
    package = {p.stem: _reads(p) for p in (ROOT / "src" / "bklab").glob("*.py") if p.stem != "__init__"}
    clients = [_reads(p) for p in (ROOT / "perfbench").glob("*.py")]
    clients.append(_reads(ROOT / "tests" / "test_acceptance.py"))
    unread = set()
    for name, obj in _exports().items():
        own = obj.__module__.rpartition(".")[2]
        outside = clients + [reads for module, reads in package.items() if module != own]
        home = package[own]
        if not (
            any(name in reads["imported"] | reads["attribute"] for reads in outside)
            or name in home["called"]
            or (inspect.isclass(obj) and name in home["loaded"])
        ):
            unread.add(name)
    assert unread == set(KEPT)
