"""Bit-equality of the SPRT kernels against their plain reference forms.

``ref_sample_indices`` picks a symbol with ``np.searchsorted`` on the
cumulative masses, clipped at the last symbol, and ``ref_rejection_rate``
adds each chunk's carry to the whole cumulated chunk before taking its
maximum.  The library kernels must give the same bits: the same symbol for
every draw, the same generator state after a call, and the same rejection
rate and standard error.
"""

import math

import numpy as np
import pytest

from bklab import rng
from bklab.sprt import HypothesisSet, rejection_rate, simulate_runs

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
