import math
import tracemalloc

import numpy as np
import pytest

from bklab.distributions import (
    Gaussian,
    TwoSidedPareto,
    UniformSymmetric,
    bernoulli,
    rademacher,
)
from bklab.errors import DomainError, PreconditionError
from bklab.functions import power
from bklab.lastexit import (
    PathConfig,
    deviation_profile,
    estimate_EG_lastexit,
    estimate_series,
    exact_dev_prob,
    last_exit_samples,
    levy_maximal_check,
    tail_prob_mean,
)


def test_last_exit_nonincreasing_in_a():
    # On every path, the last exit at a higher level comes no later.
    cfg = PathConfig(500, 300, 3)
    values = [last_exit_samples(Gaussian(1.0), a, cfg).values for a in (0.1, 0.2, 0.4, 0.8, 1.6)]
    assert all(np.all(x >= y) for x, y in zip(values, values[1:]))


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_scaling_identity_pathwise(a):
    # L at level a for (X_n) equals L at level 1 for (X_n / a): Gaussian(1/a)
    # scales the same draws by a power of two, which is exact.
    cfg = PathConfig(500, 300, 21)
    plain = last_exit_samples(Gaussian(1.0), a, cfg)
    scaled = last_exit_samples(Gaussian(1.0 / a), 1.0, cfg)
    assert np.array_equal(plain.values, scaled.values)


@pytest.mark.parametrize("a", [0.25, 0.5])
def test_doubling_identity_pathwise(a):
    # L at level 2a for (2 X_n) equals L at level a for (X_n)
    cfg = PathConfig(500, 300, 22)
    plain = last_exit_samples(UniformSymmetric(1.0), a, cfg)
    doubled = last_exit_samples(UniformSymmetric(2.0), 2 * a, cfg)
    assert np.array_equal(plain.values, doubled.values)
    assert plain.values.any()


def test_estimate_constant_g_is_exactly_one():
    est = estimate_EG_lastexit(
        rademacher(), power(0), 0.5, PathConfig(256, 3000, 5)
    )
    assert est.mean == 1.0 and est.se == 0.0


def test_estimate_level_above_support():
    # |S_n/n| <= 1 for rademacher, so a=1.5 never sees a deviation
    est = estimate_EG_lastexit(
        rademacher(), power(1), 1.5, PathConfig(256, 2000, 5)
    )
    assert est.mean == 1.0  # G(0) for G = 1+t
    assert est.censor_rate == 0.0


def test_estimate_runlength_oracle_quick():
    # L_1 for rademacher is the initial constant-sign run; E[1 + L] = 3
    cfg = PathConfig(horizon=2**9, replicates=20_000, seed=11)
    est = estimate_EG_lastexit(rademacher(), power(1), 1.0, cfg)
    assert abs(est.mean - 3.0) <= 6.0 * est.se
    assert est.censor_rate == 0.0


def test_estimate_requires_centering():
    with pytest.raises(PreconditionError):
        estimate_EG_lastexit(bernoulli(0.7), power(1), 0.5, PathConfig(64, 100, 1))
    # supplying the center works
    est = estimate_EG_lastexit(
        bernoulli(0.7), power(0), 0.5, PathConfig(64, 100, 1, center=0.7)
    )
    assert est.mean == 1.0


def test_estimate_reuses_batch_across_g():
    cfg = PathConfig(256, 2000, 9)
    batch = last_exit_samples(rademacher(), 1.0, cfg)
    e1 = estimate_EG_lastexit(rademacher(), power(1), 1.0, cfg, batch=batch)
    e2 = estimate_EG_lastexit(rademacher(), power(1), 1.0, cfg)
    assert e1.mean == e2.mean and e1.se == e2.se


def test_censoring_flagged_for_heavy_tails():
    est = estimate_EG_lastexit(
        TwoSidedPareto(1.5), power(1), 1.0, PathConfig(2**10, 4000, 13)
    )
    assert est.censor_rate > 1e-3
    assert est.horizon_warning


def test_tail_prob_exact_enumeration():
    assert tail_prob_mean(rademacher(), 2, 1.0).p_hat == 0.5
    assert tail_prob_mean(rademacher(), 3, 1.0).p_hat == 0.25
    assert tail_prob_mean(rademacher(), 5, 0.0).p_hat == 1.0
    assert exact_dev_prob(rademacher(), 10, 1.0) == pytest.approx(2.0**-9)


def test_tail_prob_mc_matches_exact():
    # n = 30 is above the enumeration threshold, so the estimate is MC
    exact = exact_dev_prob(rademacher(), 30, 0.5)
    mc = tail_prob_mean(rademacher(), 30, 0.5, reps=40_000, seed=3)
    assert not mc.exact
    assert abs(mc.p_hat - exact) <= 4.0 * mc.se + 1e-3


def test_series_rademacher_closed_form():
    est = estimate_series(rademacher(), power(1), 1.0, 30)
    target = 2.0 * (1.0 + math.log(2.0))
    assert est.head_exact and est.se == 0.0
    assert abs(est.partial_sum - target) < 1e-6
    assert est.verdict == "converging-evidence"


def test_series_partial_sum_nondecreasing_in_nmax():
    vals = []
    for n_max in (2**8, 2**9, 2**10, 2**11):
        est = estimate_series(
            UniformSymmetric(1.0), power(1), 0.25, n_max, reps_per_block=2000, seed=7
        )
        vals.append(est.partial_sum)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_series_gaussian_converges():
    est = estimate_series(Gaussian(1.0), power(1), 1.0, 2**12, reps_per_block=4000, seed=5)
    assert est.verdict == "converging-evidence"


def test_series_heavy_tail_diverges():
    est = estimate_series(
        TwoSidedPareto(1.5), power(1), 1.0, 2**14, reps_per_block=4000, seed=5
    )
    assert est.verdict == "diverging-evidence"


def test_series_profile_reuse_matches_direct():
    prof = deviation_profile(Gaussian(1.0), 2**10, 2000, 31)
    d1 = estimate_series(Gaussian(1.0), power(1), 0.5, 2**10, profile=prof)
    d2 = estimate_series(Gaussian(1.0), power(2), 0.5, 2**10, profile=prof)
    d1_direct = estimate_series(Gaussian(1.0), power(1), 0.5, 2**10, 2000, 31)
    assert d1.partial_sum == d1_direct.partial_sum
    assert d2.partial_sum >= d1.partial_sum  # larger G, same indicators


@pytest.mark.parametrize(
    "n_max,shared",
    [
        (3000, [64, 128, 256, 512, 1024, 2048]),
        (100, [64]),  # a short run inside one chunk
    ],
)
def test_deviation_profile_is_prefix_of_longer_run(n_max, shared):
    short = deviation_profile(Gaussian(1.0), n_max, 300, 17)
    long = deviation_profile(Gaussian(1.0), 6144, 300, 17)
    assert np.array_equal(short.small_values, long.small_values)

    def at_shared(prof):
        return prof.endpoint_values[:, [prof.endpoints.tolist().index(n) for n in shared]]

    assert np.array_equal(at_shared(short), at_shared(long))


@pytest.mark.parametrize("size", [True, 2.5, np.float64(100)])
def test_sizes_must_be_integers(size):
    gauss = Gaussian(1.0)
    calls = [
        lambda: PathConfig(size, 10),
        lambda: PathConfig(64, size),
        lambda: deviation_profile(gauss, size, 100),
        lambda: deviation_profile(gauss, 100, size),
        lambda: estimate_series(gauss, power(1), 0.5, size, 100),
        lambda: tail_prob_mean(gauss, size, 0.5, 100),
        lambda: tail_prob_mean(rademacher(), 5, 0.5, size),
        lambda: levy_maximal_check(gauss, size, 0.5, 100),
        lambda: levy_maximal_check(rademacher(), 5, 0.5, size),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="must be an integer"):
            call()


def test_levy_exact_small_cases():
    rep = levy_maximal_check(rademacher(), 2, 2.0)
    assert rep.exact and rep.lhs == 0.5 and rep.rhs == 1.0 and rep.holds
    rep = levy_maximal_check(rademacher(), 1, 1.0)
    assert rep.lhs == pytest.approx(rep.rhs / 2.0)


def test_levy_requires_symmetry():
    with pytest.raises(PreconditionError):
        levy_maximal_check(bernoulli(0.7), 4, 1.0)


def test_levy_mc_uniform():
    rep = levy_maximal_check(UniformSymmetric(1.0), 64, 4.0, reps=40_000, seed=9)
    assert not rep.exact
    assert rep.holds


def test_deterministic_for_fixed_seed():
    cfg = PathConfig(2**9, 5000, 77)
    a = last_exit_samples(Gaussian(1.0), 0.5, cfg)
    b = last_exit_samples(Gaussian(1.0), 0.5, cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.censored, b.censored)


@pytest.mark.parametrize("n", [0, -3])
def test_exact_dev_prob_rejects_n_below_1(n):
    with pytest.raises(DomainError, match="n must be >= 1"):
        exact_dev_prob(rademacher(), n, 0.5)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_levels_must_be_finite_and_positive(a):
    gauss = Gaussian(1.0)
    calls = [
        lambda: last_exit_samples(gauss, a, PathConfig(64, 10)),
        lambda: estimate_series(gauss, power(1), a, 128, 100),
    ]
    if a != 0.0:  # P[|S_n/n| >= 0] = 1 is a valid tail probability
        calls.append(lambda: tail_prob_mean(gauss, 50, a, 100))
    for call in calls:
        with pytest.raises(DomainError, match="finite"):
            call()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
def test_levy_levels_must_be_finite_and_nonnegative(t):
    # Both paths: the exact one (rademacher, m <= 20) and Monte Carlo.
    for dist in (rademacher(), Gaussian(1.0)):
        with pytest.raises(DomainError, match="t must be finite and nonnegative"):
            levy_maximal_check(dist, 5, t, reps=1000)


def test_levy_level_zero_is_certain():
    for dist in (rademacher(), Gaussian(1.0)):
        rep = levy_maximal_check(dist, 5, 0.0, reps=1000)
        assert (rep.lhs, rep.rhs) == (1.0, 2.0)


@pytest.mark.parametrize(
    "law,n_max",
    [
        (UniformSymmetric(1.0), 2**10),  # made for another law
        (Gaussian(1.0), 2**9),  # for another horizon
    ],
    ids=["law", "n_max"],
)
def test_series_refuses_profile_made_for_another_call(law, n_max):
    prof = deviation_profile(law, n_max, 200, 3)
    with pytest.raises(DomainError, match="cannot serve"):
        estimate_series(Gaussian(1.0), power(1), 0.5, 2**10, profile=prof)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_center_must_be_finite(x):
    with pytest.raises(DomainError, match="center must be finite"):
        PathConfig(64, 10, center=x)


def _peak_bytes(fn) -> int:
    """The peak of traced memory while ``fn`` runs; numpy reports its array
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dist", [Gaussian(1.0), TwoSidedPareto(1.5)], ids=["gaussian", "pareto2"])
def test_simulations_hold_one_step_chunk(dist):
    # One chunk is 4096 paths by 2048 float32 steps for last-exit, the tail
    # and the Levy check, 2000 by 2048 for the profile; a simulation may add
    # little beyond it.  Last-exit holds one 256-path tile by one chunk (1/16
    # chunk) and scan buffers for one tile by one 256-step segment.
    cfg = PathConfig(2048, 4096, 1)
    peak = _peak_bytes(lambda: last_exit_samples(dist, 0.25, cfg))
    assert peak < 0.3 * 4096 * 2048 * 4
    peak = _peak_bytes(lambda: deviation_profile(dist, 4096, 2000, 1))
    assert peak < 1.25 * 2000 * 2048 * 4
    # the Levy walk widens each float32 tile into one reused float64 buffer
    peak = _peak_bytes(lambda: levy_maximal_check(dist, 2048, 60.0, 4096, 1))
    assert peak < 0.5 * 4096 * 2048 * 4
    peak = _peak_bytes(lambda: tail_prob_mean(dist, 2048, 0.05, 4096, 1))
    assert peak < 1.25 * 4096 * 2048 * 4
