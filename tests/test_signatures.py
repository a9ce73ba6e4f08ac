"""The parameter names of every callable that ``bklab`` exports.

A change that adds, removes or renames a parameter of the public API has to
change this table, so the change shows in the diff."""

import inspect
import types

import bklab

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
    "LastExitSample": ("value", "censored"),
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
    "counterexample_sequence": ("g", "count", "search_limit"),
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
    "last_exit_time": ("path", "a", "x"),
    "levy_maximal_check": ("dist", "m", "t", "reps", "seed"),
    "median": ("dist", "reps", "seed"),
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


def test_public_parameter_names_unchanged():
    got = {
        name: tuple(inspect.signature(obj).parameters)
        for name, obj in vars(bklab).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, types.ModuleType)
    }
    assert got == SIGNATURES
