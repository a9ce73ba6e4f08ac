"""Simulation and verification laboratory for convergence rates of Cesaro
means: last-exit times, moment functionals, the deviation series, effective
bound audits, the non-moderate counterexample law, and Wald's
multi-hypothesis sequential test."""

from .bounds import (
    BoundReport,
    count_compositions,
    enumerate_compositions,
    multinomial,
    prop1_check,
    prop2_check,
    prop3_check,
    sym_transfer_check,
)
from .distributions import (
    CounterexampleDist,
    Discrete,
    Distribution,
    Gaussian,
    Symmetrized,
    TriangularSymmetric,
    TwoSidedPareto,
    UniformSymmetric,
    abs_mean,
    bernoulli,
    counterexample_dist,
    moment_xg,
    normalize_counterexample,
    parse_dist_spec,
    rademacher,
    sample,
    symmetrization_check,
    symmetrize,
    tail,
    truncation_threshold,
)
from .functions import (
    GridSpec,
    ModerateFunction,
    doubling_ratio_sup,
    doubling_witness_exp,
    exponential,
    h_majorant,
    h_scaling_constant,
    parse_function_spec,
    power,
    powlog,
)
from .lastexit import (
    DeviationProfile,
    EGEstimate,
    PathConfig,
    SeriesEstimate,
    deviation_profile,
    estimate_EG_lastexit,
    estimate_series,
    last_exit_samples,
    levy_maximal_check,
    tail_prob_mean,
)
from .sprt import (
    DecisionRecord,
    HypothesisSet,
    estimate_G_moment,
    estimate_errors,
    optimality_sweep,
    rejection_rate,
    run_test,
    simulate_runs,
)

__version__ = "0.1.0"
