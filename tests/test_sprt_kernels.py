"""Bit-equality of the SPRT kernels against their plain reference forms.

``ref_sample_indices`` picks a symbol with ``np.searchsorted`` on the
cumulative masses, clipped at the last symbol, and ``ref_rejection_rate``
adds each chunk's carry to the whole cumulated chunk before taking its
maximum.  The library kernels must give the same bits: the same symbol for
every draw, the same generator state after a call, and the same rejection
rate and standard error.

``ref_run_test`` advances the log ratios one observation at a time and checks
the stopping rule after every step; ``ref_simulate_runs`` runs the same rule
on a replicate block with masks of the stopped runs.  ``run_test`` must give
the same record, float bits of the log ratios included, raise ``DataError``
on the same streams and leave the same observations unread, and
``simulate_runs`` the same stopping steps and decisions.
"""

import math
from itertools import islice

import numpy as np
import pytest

from bklab import rng
from bklab.errors import DataError
from bklab.sprt import (
    DecisionRecord,
    HypothesisSet,
    as_levels,
    rejection_rate,
    run_test,
    simulate_runs,
)

SETS = {
    "pair": HypothesisSet(alphabet=(0.0, 1.0), masses=((0.5, 0.5), (0.25, 0.75))),
    "triple": HypothesisSet(
        alphabet=(0.0, 1.0, 2.0),
        masses=((0.6, 0.3, 0.1), (0.2, 0.5, 0.3), (0.1, 0.3, 0.6)),
    ),
    # zero masses: a symbol outside a candidate's support rejects it at once
    "loose": HypothesisSet(
        alphabet=(0.0, 1.0, 2.0),
        masses=((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)),
        strict=False,
    ),
    # trailing zero masses: inner cumulative masses equal 1.0
    "trailing": HypothesisSet(
        alphabet=(0.0, 1.0, 2.0, 3.0),
        masses=((0.5, 0.5, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25)),
        strict=False,
    ),
    # a reference near P_0: log R^0 drifts slowly, so paths first cross in
    # every chunk and a wrong carry changes the rate
    "reference": HypothesisSet(
        alphabet=(0.0, 1.0), masses=((0.5, 0.5), (0.25, 0.75)), reference=(0.49, 0.51)
    ),
}
# the Wald-test cases add m = 4 and a symbol outside every support
RUN_SETS = {
    **SETS,
    "four": HypothesisSet(
        alphabet=(0.0, 1.0, 2.0),
        masses=((0.5, 0.3, 0.2), (0.2, 0.5, 0.3), (0.3, 0.2, 0.5), (1 / 3, 1 / 3, 1 / 3)),
    ),
    "outside": HypothesisSet(
        alphabet=(0.0, 1.0, 2.0),
        masses=((0.5, 0.5, 0.0), (0.25, 0.75, 0.0)),
        reference=(0.5, 0.5, 0.0),
    ),
}
SINGLE = HypothesisSet(alphabet=(0.0,), masses=((1.0,), (1.0,)))
# one symbol whose mass is accepted although it rounds below 1
SHORT = HypothesisSet(alphabet=(0.0,), masses=((1 - 1e-13,), (1 - 1e-13,)))
DRAW_COUNTS = (1, 3, 7, 1001, 4097, 100_003)  # none a multiple of Philox's 4-word buffer
HORIZONS = (1, 1023, 1025, 2048, 3073)  # 3073: the carry crosses two chunk ends
LEVELS = (1.5, 10.0, 1000.0)
REPS = 701


def ref_sample_indices(hyp, gen, i, n):
    u = gen.random(n)
    return np.minimum(np.searchsorted(hyp._cums[i], u, side="right"), len(hyp.alphabet) - 1)


def ref_rejection_rate(hyp, c_i, i, reps, horizon, seed=0):
    logc = math.log(c_i)
    inc_i = hyp._increments[i]
    draw = lambda gen, n: inc_i[ref_sample_indices(hyp, gen, i, n)]
    crossed_total = 0
    for _start, size, gen in rng.blocks(reps, seed, rng.STREAM_SPRT_REJECT):
        carry = np.zeros(size)
        crossed = np.zeros(size, dtype=bool)
        for _n0, incs in rng.walk(draw, size, gen, horizon, chunk=1024):
            cums = np.cumsum(incs, axis=1)
            cums += carry[:, None]
            crossed |= cums.max(axis=1) >= logc
            carry = cums[:, -1].copy()
        crossed_total += int(np.count_nonzero(crossed))
    p = crossed_total / reps
    return p, math.sqrt(p * (1.0 - p) / reps)


def ref_log_ratio_update(state, y, hyp):
    k = hyp.index_of(y)
    inc = hyp._increments[:, k]
    if np.any(np.isnan(inc)):
        raise DataError(f"observation {y!r} lies outside every candidate support")
    return np.asarray(state, dtype=float) + inc


def ref_run_test(hyp, levels, stream, horizon):
    logc = as_levels(levels, hyp.m).log()
    state = np.zeros(hyp.m)
    rho = [None] * hyp.m
    n = 0
    for y in islice(stream, horizon):
        n += 1
        state = ref_log_ratio_update(state, y, hyp)
        for i in range(hyp.m):
            if rho[i] is None and state[i] >= logc[i]:
                rho[i] = n
        if sum(r is not None for r in rho) >= hyp.m - 1:
            keys = [math.inf if r is None else r for r in rho]
            best = max(range(hyp.m), key=lambda i: (keys[i], -i))
            return DecisionRecord(n, False, best, tuple(rho), tuple(float(s) for s in state))
    return DecisionRecord(None, True, None, tuple(rho), tuple(float(s) for s in state))


def ref_simulate_runs(hyp, levels, true_index, reps, horizon, seed):
    logc = as_levels(levels, hyp.m).log()
    m, inc = hyp.m, hyp._increments
    draw = lambda gen, n: hyp.sample_indices(gen, true_index, n)
    tau = np.full(reps, -1, dtype=np.int64)
    decision = np.full(reps, -1, dtype=np.int64)
    for start, size, gen in rng.blocks(reps, seed, rng.STREAM_SPRT, 0):
        log_r = np.zeros((m, size))
        rho = np.zeros((m, size), dtype=np.int64)
        done = np.zeros(size, dtype=bool)
        tau_blk = tau[start : start + size]
        dec_blk = decision[start : start + size]
        for n, ys in rng.walk(draw, size, gen, horizon, chunk=1):
            log_r += inc[:, ys[:, 0]]
            crossed = (log_r >= logc[:, None]) & (rho == 0) & (~done)[None, :]
            if crossed.any():
                rho[crossed] = n
            newly = (~done) & ((rho > 0).sum(axis=0) >= m - 1)
            if newly.any():
                cols = np.nonzero(newly)[0]
                tau_blk[cols] = n
                masked = np.where(rho[:, cols] == 0, np.inf, rho[:, cols])
                dec_blk[cols] = np.argmax(masked, axis=0)
                done |= newly
            if done.all():
                break
    return tau, decision, tau < 0


def _level_cases(m):
    """Equal levels from quick to slow, and a mix with a never-rejected one."""
    mixed = tuple(math.inf if j == 1 else (20.0, 1.5, 1000.0)[j % 3] for j in range(m))
    return [(c,) * m for c in (1.5, 20.0, 1000.0)] + [mixed]


@pytest.mark.parametrize("name", [*SETS, "single"])
def test_sample_indices_match_searchsorted(name):
    hyp = SETS.get(name, SINGLE)
    for i in range(hyp.m):
        ours, ref = rng.substream(31, i), rng.substream(31, i)
        for n in DRAW_COUNTS:  # consecutive calls share the generator's buffer
            got = hyp.sample_indices(ours, i, n)
            want = ref_sample_indices(hyp, ref, i, n)
            assert got.shape == want.shape == (n,)
            assert np.array_equal(got, want), (name, i, n)
        assert np.array_equal(ours.random(5), ref.random(5))  # same state after


class _Fixed:
    """A generator stand-in whose ``random`` returns the given doubles."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


@pytest.mark.parametrize("name", [*SETS, "single", "short"])
def test_sample_indices_at_and_beside_every_threshold(name):
    """Random draws almost never land on a cumulative mass; these do."""
    hyp = SETS.get(name, SINGLE if name == "single" else SHORT)
    for i in range(hyp.m):
        cums = hyp._cums[i]
        u = np.concatenate([cums, np.nextafter(cums, 0), np.nextafter(cums, 1), [0.0]])
        u = u[u < 1.0]
        got = hyp.sample_indices(_Fixed(u), i, len(u))
        assert np.array_equal(got, ref_sample_indices(hyp, _Fixed(u), i, len(u))), (name, i)


def test_sample_indices_thresholds_at_one():
    """Draws in [0, 1) never reach a cumulative mass of 1.0, so the symbols
    after a row's last positive mass are never drawn."""
    hyp = SETS["trailing"]
    assert hyp._cums[0].tolist() == [0.5, 1.0, 1.0, 1.0]
    idx = hyp.sample_indices(rng.substream(32), 0, 50_001)
    assert set(np.unique(idx).tolist()) == {0, 1}


@pytest.mark.parametrize("c", LEVELS)
@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("name", list(SETS))
def test_rejection_rate_matches_reference(name, horizon, c):
    hyp = SETS[name]
    for i in range(hyp.m):
        seed = 40 + i
        assert rejection_rate(hyp, c, i, REPS, horizon, seed) == ref_rejection_rate(
            hyp, c, i, REPS, horizon, seed
        ), (name, i)


def test_rejection_rate_matches_reference_across_blocks():
    hyp = SETS["pair"]
    for i in (0, 1):
        got = rejection_rate(hyp, 10.0, i, 4100, 1025, seed=9)
        assert got == ref_rejection_rate(hyp, 10.0, i, 4100, 1025, seed=9)
        assert 0.0 < got[0] < 0.1


@pytest.mark.parametrize("name", list(SETS))
def test_simulate_runs_matches_reference_sampler(name, monkeypatch):
    hyp = SETS[name]
    levels = [20.0] * hyp.m
    for i in range(hyp.m):
        got = simulate_runs(hyp, levels, i, 1001, 301, seed=11)
        with monkeypatch.context() as patch:
            patch.setattr(HypothesisSet, "sample_indices", ref_sample_indices)
            want = simulate_runs(hyp, levels, i, 1001, 301, seed=11)
        assert np.array_equal(got.tau, want.tau), (name, i)
        assert np.array_equal(got.decision, want.decision), (name, i)
        assert np.array_equal(got.censored, want.censored), (name, i)


def _record_or_error(run, hyp, levels, obs, horizon):
    """The record (or DataError) of ``run`` and the observations it left unread."""
    it = iter(obs)
    try:
        out = run(hyp, levels, it, horizon)
    except DataError:
        out = DataError
    return out, list(it)


@pytest.mark.parametrize("name", list(RUN_SETS))
def test_run_test_matches_reference(name):
    hyp = RUN_SETS[name]
    gen = np.random.Generator(np.random.Philox(71))
    bad = 7.5  # in no alphabet
    for case in range(150):
        levels = _level_cases(hyp.m)[case % 4] if case % 10 else (math.inf,) * hyp.m
        law = hyp._masses[case % hyp.m]
        obs = [hyp.alphabet[k] for k in gen.choice(len(law), int(gen.integers(0, 120)), p=law)]
        if case % 3 == 0 and obs:  # a bad symbol, before or after tau
            obs[int(gen.integers(0, len(obs)))] = bad
        horizon = int(gen.integers(1, len(obs) + 6))
        got, got_rest = _record_or_error(run_test, hyp, levels, obs, horizon)
        want, want_rest = _record_or_error(ref_run_test, hyp, levels, obs, horizon)
        assert got_rest == want_rest, (name, case)
        if want is DataError:
            assert got is DataError, (name, case)
            continue
        assert got is not DataError, (name, case)
        assert (got.tau, got.censored, got.decision, got.rho) == (
            want.tau, want.censored, want.decision, want.rho), (name, case)
        assert all(type(r) is int for r in (got.tau, got.decision, *got.rho) if r is not None)
        assert np.array_equal(
            np.array(got.log_ratios_at_tau).view(np.int64),
            np.array(want.log_ratios_at_tau).view(np.int64),
        ), (name, case)


@pytest.mark.parametrize("name", list(RUN_SETS))
def test_run_test_empty_stream_matches_reference(name):
    hyp = RUN_SETS[name]
    for levels in _level_cases(hyp.m):
        got, want = run_test(hyp, levels, iter([]), 5), ref_run_test(hyp, levels, iter([]), 5)
        assert got == want == DecisionRecord(None, True, None, (None,) * hyp.m, (0.0,) * hyp.m)


# horizons about the 64-step marks, then long ones; the short ones cross a block seam
SIM_CASES = [(name, h, 4100) for name in RUN_SETS for h in (1, 2, 63, 64, 65)] + [
    (name, h, 1001) for name in RUN_SETS for h in (129, 300)
] + [("pair", 2048, 1001), ("triple", 2048, 1001)]


@pytest.mark.parametrize("name,horizon,reps", SIM_CASES)
def test_simulate_runs_matches_reference(name, horizon, reps):
    hyp = RUN_SETS[name]
    for levels in _level_cases(hyp.m):
        for i in range(hyp.m):
            runs = simulate_runs(hyp, levels, i, reps, horizon, 17 + i)
            tau, decision, censored = ref_simulate_runs(hyp, levels, i, reps, horizon, 17 + i)
            assert np.array_equal(runs.tau, tau), (name, levels, i)
            assert np.array_equal(runs.decision, decision), (name, levels, i)
            assert np.array_equal(runs.censored, censored), (name, levels, i)
