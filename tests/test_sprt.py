import math
from itertools import repeat

import numpy as np
import pytest

from bklab import rng
from bklab.errors import ConfigurationError, DataError, DomainError
from bklab.functions import power
from bklab.sprt import (
    HypothesisSet,
    LevelVector,
    estimate_G_moment,
    estimate_errors,
    optimality_sweep,
    rejection_rate,
    run_test,
    simulate_runs,
)

BERN_PAIR = HypothesisSet(
    alphabet=(0.0, 1.0),
    masses=((0.5, 0.5), (0.25, 0.75)),
)
BERN_TRIPLE = HypothesisSet(
    alphabet=(0.0, 1.0),
    masses=((0.5, 0.5), (0.25, 0.75), (0.75, 0.25)),
)


def _log_ratios(hyp, obs):
    """log R^i after the observations ``obs``, read through ``run_test``."""
    return run_test(hyp, (math.inf,) * hyp.m, iter(obs), len(obs)).log_ratios_at_tau


def test_hypothesis_set_validation():
    with pytest.raises(ConfigurationError, match="at least 2"):
        HypothesisSet(alphabet=(0.0, 1.0), masses=((0.5, 0.5),))
    with pytest.raises(ConfigurationError):
        HypothesisSet(alphabet=(0.0, 1.0), masses=((0.5, 0.5), (0.7, 0.2)))
    with pytest.raises(ConfigurationError):
        HypothesisSet(alphabet=(0.0, 1.0), masses=((1.0, 0.0), (0.25, 0.75)))
    # an explicit reference must be positive wherever some P_i is, so no
    # symbol the true law draws lies outside every support
    with pytest.raises(ConfigurationError, match="positive wherever"):
        HypothesisSet(alphabet=(0.0, 1.0), masses=((0.5, 0.5), (0.25, 0.75)), reference=(1.0, 0.0))
    # repeated symbols: index_of would read every 0.0 as the last copy
    for alphabet in ((0.0, 0.0), (0.0, -0.0), (1, 1.0)):
        with pytest.raises(ConfigurationError, match="distinct"):
            HypothesisSet(alphabet=alphabet, masses=((0.5, 0.5), (0.25, 0.75)))
    # non-strict allows a zero mass: rejection becomes immediate
    hyp = HypothesisSet(
        alphabet=(0.0, 1.0), masses=((1.0, 0.0), (0.25, 0.75)), strict=False
    )
    state = _log_ratios(hyp, [1.0])
    assert math.isinf(state[0]) and state[0] > 0


def test_log_ratios_hand_value():
    # mixture reference: p(1) = (1/2 + 3/4)/2 = 5/8; delta log R^1 = log(5/4)
    state = _log_ratios(BERN_PAIR, [1.0])
    assert state[0] == pytest.approx(math.log(5.0 / 4.0))
    assert state[1] == pytest.approx(math.log((5.0 / 8.0) / (3.0 / 4.0)))


def test_log_ratios_identical_laws():
    hyp = HypothesisSet(alphabet=(0.0, 1.0), masses=((0.5, 0.5), (0.5, 0.5)))
    assert np.allclose(_log_ratios(hyp, [0.0, 1.0, 1.0, 0.0]), 0.0)


def test_log_ratios_reference_equals_candidate():
    hyp = HypothesisSet(
        alphabet=(0.0, 1.0),
        masses=((0.5, 0.5), (0.25, 0.75)),
        reference=(0.5, 0.5),
    )
    assert _log_ratios(hyp, [1.0])[0] == 0.0


def test_run_test_unknown_symbol():
    with pytest.raises(DataError):
        run_test(BERN_PAIR, (10.0, 10.0), iter([2.0]), 1)


def test_kl_values():
    kl = BERN_PAIR.kl(1, 0)
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert kl == pytest.approx(expected)
    assert BERN_PAIR.pairwise_kl[0, 0] == 0.0
    assert BERN_PAIR.pairwise_kl[0, 1] > 0
    # drift of log R^2 under P_1 with the mixture reference
    d = BERN_PAIR.kl_adjusted(0, 1)
    assert d == pytest.approx(0.5 * math.log(5.0 / 4.0))


def test_run_test_all_ones_stream():
    # rho_1 = ceil(3 / log(5/4)) = 14 and H_2 is never rejected
    record = run_test(BERN_PAIR, (math.e**3, math.e**3), repeat(1.0), 100)
    assert record.tau == 14
    assert record.decision == 1
    assert record.rho == (14, None)
    assert not record.censored
    assert record.check_coherence()


def test_run_test_infinite_levels_censors():
    record = run_test(BERN_PAIR, (math.inf, math.inf), repeat(1.0), 50)
    assert record.censored and record.tau is None and record.decision is None


def test_run_test_identical_laws_censors():
    hyp = HypothesisSet(alphabet=(0.0, 1.0), masses=((0.5, 0.5), (0.5, 0.5)))
    record = run_test(hyp, (10.0, 10.0), repeat(1.0), 50)
    assert record.censored


def test_level_vector_validation():
    with pytest.raises(ConfigurationError):
        LevelVector((0.5, 10.0))
    with pytest.raises(ConfigurationError):
        run_test(BERN_PAIR, (10.0,), repeat(1.0), 10)


def test_three_hypotheses_minmax():
    record = run_test(BERN_TRIPLE, (5.0, 5.0, 5.0), repeat(1.0), 500)
    if not record.censored:
        # stop at the (m-1)-th rejection; the unrejected index wins
        assert sum(r is not None for r in record.rho) >= 2
        assert record.check_coherence()


@pytest.mark.parametrize("hyp", [BERN_PAIR, BERN_TRIPLE], ids=["pair", "triple"])
def test_simulate_runs_matches_run_test_m2(hyp):
    """Replicates replayed through ``run_test`` stop at the same step with the
    same decision.  A block's step n of column c is draw (n - 1) * size + c of
    the block's substream, so one call drawing size * horizon symbols, read
    column-wise, gives every replicate its own observations."""
    levels, reps, horizon, seed = (20.0,) * hyp.m, 4100, 512, 4
    runs = simulate_runs(hyp, levels, 1, reps, horizon, seed)
    assert (~runs.censored).any()
    for start, size, gen in rng.blocks(reps, seed, rng.STREAM_SPRT, 0):
        idx = hyp.sample_indices(gen, 1, size * horizon).reshape(horizon, size)
        for c in [*range(0, size, 41), size - 1]:
            rec = run_test(hyp, levels, (hyp.alphabet[k] for k in idx[:, c]), horizon)
            r = start + c
            assert rec.censored == runs.censored[r], r
            if not rec.censored:
                assert (rec.tau, rec.decision) == (runs.tau[r], runs.decision[r]), r


def test_m2_tau_is_min_of_rejecting_times():
    gen = np.random.Generator(np.random.Philox(55))
    for rep in range(20):
        obs = [1.0 if u < 0.6 else 0.0 for u in gen.random(2048)]
        rec = run_test(BERN_PAIR, (15.0, 15.0), iter(obs), 2048)
        if rec.censored:
            continue
        finite = [r for r in rec.rho if r is not None]
        assert rec.tau == min(finite)
        assert rec.check_coherence()


def test_estimate_errors_identical_laws_all_censored():
    hyp = HypothesisSet(alphabet=(0.0, 1.0), masses=((0.5, 0.5), (0.5, 0.5)))
    est = estimate_errors(hyp, (10.0, 10.0), 0, 200, 64, seed=1)
    assert est.censor_rate == 1.0
    assert math.isnan(est.error_rate)


def test_estimate_errors_ville_bound_quick():
    est = estimate_errors(BERN_PAIR, (20.0, 20.0), 0, 20_000, 1024, seed=8)
    assert est.error_rate <= 1.0 / 20.0 + 4.0 * max(est.se, 1e-4)


def test_error_rate_vanishes_when_own_level_infinite():
    est = estimate_errors(BERN_PAIR, (math.inf, 50.0), 0, 5000, 2048, seed=9)
    # H_1 can never be rejected, so every decided run picks index 0
    assert est.error_rate <= 3.0 * max(est.se, 1e-4)


def test_rejection_rate_ville():
    for c in (10.0, 100.0):
        for i in (0, 1):
            rate, se = rejection_rate(BERN_PAIR, c, i, 20_000, 1024, seed=5)
            assert rate <= 1.0 / c + 4.0 * max(se, 1e-4)


def test_estimate_g_moment_constant_g():
    est = estimate_G_moment(BERN_PAIR, (20.0, 20.0), 1, power(0), 2000, 1024, seed=3)
    assert est.mean == 1.0


def test_estimate_g_moment_first_order_wald():
    # E_2[tau] is approximately log(c) over the drift of log R^1 under P_2
    c = math.e**5
    est = estimate_G_moment(BERN_PAIR, (c, c), 1, power(1), 20_000, 4096, seed=6)
    drift = BERN_PAIR.kl_adjusted(1, 0)
    oracle = 1.0 + 5.0 / drift
    assert est.censor_rate < 1e-3
    assert abs(est.mean - oracle) <= 0.15 * oracle


def test_monotone_in_levels_same_stream():
    gen = np.random.Generator(np.random.Philox(99))
    obs = [1.0 if u < 0.75 else 0.0 for u in gen.random(4096)]
    taus = []
    for c in (5.0, 50.0, 500.0):
        rec = run_test(BERN_PAIR, (c, c), iter(obs), 4096)
        assert not rec.censored
        taus.append(rec.tau)
    assert taus[0] <= taus[1] <= taus[2]


def test_permutation_equivariance_same_stream():
    gen = np.random.Generator(np.random.Philox(123))
    obs = [1.0 if u < 0.75 else 0.0 for u in gen.random(2048)]
    hyp_swapped = HypothesisSet(alphabet=(0.0, 1.0), masses=((0.25, 0.75), (0.5, 0.5)))
    rec = run_test(BERN_PAIR, (30.0, 40.0), iter(obs), 2048)
    rec_swapped = run_test(hyp_swapped, (40.0, 30.0), iter(obs), 2048)
    assert rec.tau == rec_swapped.tau
    assert rec.rho == (rec_swapped.rho[1], rec_swapped.rho[0])
    if not rec.censored:
        assert rec.decision == 1 - rec_swapped.decision


def test_optimality_sweep_shape_and_trend():
    rows = optimality_sweep(
        BERN_PAIR, [1e-1, 1e-2, 1e-3], 0, power(1), reps=4000, seed=12
    )
    assert len(rows) == 3
    assert all(r.c == 1.0 / r.target_error for r in rows)
    assert rows[-1].ratio <= rows[0].ratio + 0.05
    with pytest.raises(ConfigurationError):
        optimality_sweep(BERN_PAIR, [1e-2, 1e-1], 0, power(1), reps=100, seed=1)


def test_sweep_single_row():
    rows = optimality_sweep(BERN_PAIR, [1e-2], 0, power(0), reps=2000, seed=2)
    assert len(rows) == 1
    assert rows[0].ratio == pytest.approx(1.0)  # G == 1 normalizes exactly


@pytest.mark.parametrize("index", [2, 5, -1, 1.0])
def test_hypothesis_index_out_of_range_is_refused(index):
    with pytest.raises(ConfigurationError, match="hypothesis index"):
        BERN_PAIR.check_index(index)
    with pytest.raises(ConfigurationError, match="hypothesis index"):
        simulate_runs(BERN_PAIR, (10.0, 10.0), index, 10, 16, 0)
    with pytest.raises(ConfigurationError, match="hypothesis index"):
        estimate_errors(BERN_PAIR, (10.0, 10.0), index, 10, 16)
    with pytest.raises(ConfigurationError, match="hypothesis index"):
        rejection_rate(BERN_PAIR, 10.0, index, 10, 16)
    with pytest.raises(ConfigurationError, match="hypothesis index"):
        optimality_sweep(BERN_PAIR, (0.1,), index, power(1), 10)


def test_hypothesis_index_accepts_numpy_integers():
    BERN_PAIR.check_index(np.int64(1))
    assert simulate_runs(BERN_PAIR, (10.0, 10.0), np.int64(1), 10, 16, 0).tau.shape == (10,)


@pytest.mark.parametrize("horizon", [0, -3])
def test_horizon_below_one_is_refused(horizon):
    with pytest.raises(DomainError, match="horizon must be >= 1"):
        rejection_rate(BERN_PAIR, 10.0, 0, 10, horizon)
    with pytest.raises(DomainError, match="horizon must be >= 1"):
        simulate_runs(BERN_PAIR, (10.0, 10.0), 0, 10, horizon, 0)


def test_optimality_sweep_refuses_no_target_errors():
    with pytest.raises(ConfigurationError, match="at least one target error"):
        optimality_sweep(BERN_PAIR, [], 0, power(1), 10)
