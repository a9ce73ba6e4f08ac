"""Bit-equality of the path kernels against their plain reference forms.

``ref_sample_array`` is each continuous sampler written as one expression
that allocates a new array per operation, and the two-atom sampler as the
float64 comparison ``u < p0`` feeding ``np.where``; ``ref_last_exit_samples``
is the general last-exit scan, which subtracts ``center * n`` from every
running sum even at center 0, over whole blocks of paths;
``ref_deviation_profile`` records the profile, and ``ref_tail_prob_mean`` and
``ref_levy_maximal_check`` run their Monte Carlo branches, from whole step
chunks, each drawn by one ``sample_array`` call.  The library samplers must
give the same bits and leave the generator in the same state, the path draw
of ``lastexit`` the bits of one ``sample_array`` call, ``last_exit_samples``
the same values and censor flags, ``deviation_profile`` the same recorded
means, and the tail and Levy audits the same reports.

The stream pins in ``tests/test_streams.py`` all run at a = 0.05, where the
exclusion bound skips no segment; these cases use a in {0.25, 0.5, 1}, so
the skip branch, the carry of the running sums and the scan all run, with
4100 paths (two replicate blocks) and horizons that end on a chunk boundary
(2048) and inside a chunk (2500); last-exit also runs 4796 paths, whose
second block is one full tile and a short one, and the tail and Levy audits
also run 300 steps, less than one chunk.
"""

import math

import numpy as np
import pytest

from bklab import rng
from bklab.distributions import (
    Discrete,
    Gaussian,
    TriangularSymmetric,
    TwoSidedPareto,
    UniformSymmetric,
    bernoulli,
    rademacher,
)
from bklab.lastexit import (
    _SEG_STEPS,
    _TILE,
    LevyReport,
    PathConfig,
    TailProbEstimate,
    _f32,
    deviation_profile,
    last_exit_samples,
    levy_maximal_check,
    tail_prob_mean,
)

LAWS = {
    "gaussian-1": Gaussian(1.0),
    "gaussian-2.5": Gaussian(2.5),
    "uniform-1": UniformSymmetric(1.0),
    "uniform-3": UniformSymmetric(3.0),
    "pareto2-1.5": TwoSidedPareto(1.5),
    "pareto2-4": TwoSidedPareto(4.0),
    "pareto2-1.5-scale2": TwoSidedPareto(1.5, 2.0),
    "pareto2-4-scale2": TwoSidedPareto(4.0, 2.0),
    # exponents -1 and -1/2: the power operator has scalar fast paths
    "pareto2-1": TwoSidedPareto(1.0),
    "pareto2-2": TwoSidedPareto(2.0),
    "triangular": TriangularSymmetric(2.0),
    # two-atom laws: a dyadic and a non-dyadic p0, atoms that differ only in
    # the sign bit, and atoms far apart in magnitude
    "rademacher": rademacher(),
    "bernoulli-0.75": bernoulli(0.75, (-3.0, 1.0)),
    "bernoulli-third": bernoulli(1.0 / 3.0, (-0.5, 1.0)),
    "bernoulli-signed-zero": bernoulli(0.25, (-0.0, 0.0)),
    "bernoulli-tiny": bernoulli(0.5, (1e-8, 1.0)),
}
DTYPES = {"f32": np.float32, "f64": np.float64}
SIZES = (1, 7, 4096, 100_003)
# around the piece size of the path draw, 2^16
DRAW_SIZES = (1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5)
REPS = 4100


def ref_sample_array(dist, gen, n, dtype):
    ftype = np.float32 if dtype == np.float32 else np.float64
    if isinstance(dist, Gaussian):
        return gen.standard_normal(n, dtype=ftype) * dist.sigma
    u = gen.random(n, dtype=ftype)
    if isinstance(dist, Discrete):
        # np.float64, not a Python float: the comparison is made in float64
        p0 = np.float64(dist.probs[0])
        return np.where(u < p0, ftype(dist.values[0]), ftype(dist.values[1]))
    if isinstance(dist, UniformSymmetric):
        return (2.0 * u - 1.0) * dist.half_width
    v = 2.0 * u - 1.0
    if isinstance(dist, TriangularSymmetric):
        mag = dist.half_width * (1.0 - np.sqrt(1.0 - np.abs(v)))
        return np.copysign(mag, v)
    quantum = ftype(2.0**-23 if ftype == np.float32 else 2.0**-53)
    mag = np.maximum(np.abs(v), quantum) ** (-1.0 / dist.beta)
    if dist.scale != 1.0:
        mag *= dist.scale
    return np.copysign(mag, v)


def ref_last_exit_samples(dist, a, cfg):
    horizon, reps, x = cfg.horizon, cfg.replicates, cfg.center
    values = np.zeros(reps, dtype=np.int64)
    draw = lambda gen, n: ref_sample_array(dist, gen, n, np.float32)
    for start, size, gen in rng.blocks(reps, cfg.seed, rng.STREAM_LASTEXIT, 0):
        running = np.zeros(size)
        last = values[start : start + size]
        for n0, draws in rng.walk(draw, size, gen, horizon):
            steps = draws.shape[1]
            for j0 in range(0, steps, _SEG_STEPS):
                j1 = min(j0 + _SEG_STEPS, steps)
                seg = draws[:, j0:j1]
                m0 = n0 + j0
                m_hi = n0 + j1 - 1
                l1 = np.abs(seg).sum(axis=1, dtype=np.float64)
                if float((np.abs(running) + l1).max()) + abs(x) * m_hi < a * m0:
                    running += seg.sum(axis=1, dtype=np.float64)
                    continue
                cums = np.cumsum(seg, axis=1, dtype=np.float64)
                cums += running[:, None]
                running = cums[:, -1].copy()
                ns = np.arange(m0, m_hi + 1, dtype=float)
                dev = np.abs(cums - x * ns) >= a * ns
                hit = dev.any(axis=1)
                if hit.any():
                    lastpos = (j1 - j0) - 1 - np.argmax(dev[:, ::-1], axis=1)
                    np.copyto(last, m0 + lastpos, where=hit)
    censored = (values >= horizon / 2.0) & (values >= 1)
    return values, censored


def ref_deviation_profile(dist, n_max, reps, seed, n_small=64):
    endpoints = []
    e = n_small
    while e < n_max:
        endpoints.append(e)
        e *= 2
    endpoints = np.asarray(endpoints + [n_max], dtype=np.int64)
    small = np.zeros((reps, n_small))
    epvals = np.zeros((reps, len(endpoints)))
    n_walk = -(-n_max // rng.CHUNK) * rng.CHUNK
    draw = lambda gen, n: dist.sample_array(gen, n, np.float32)
    for start, size, gen in rng.blocks(reps, seed, rng.STREAM_SERIES, 0):
        running = np.zeros(size)
        for n0, draws in rng.walk(draw, size, gen, n_walk):
            steps = min(draws.shape[1], n_max - n0 + 1)
            draws = draws[:, :steps]
            if n0 == 1:
                cums_small = np.cumsum(draws[:, :n_small], axis=1, dtype=np.float64)
                small[start : start + size] = cums_small / np.arange(1, n_small + 1, dtype=float)
            pos = 0
            for k in np.nonzero((endpoints >= n0) & (endpoints < n0 + steps))[0]:
                j = int(endpoints[k]) - n0 + 1
                running = running + draws[:, pos:j].sum(axis=1, dtype=np.float64)
                epvals[start : start + size, k] = running / float(endpoints[k])
                pos = j
            if pos < steps:
                running = running + draws[:, pos:].sum(axis=1, dtype=np.float64)
    return endpoints, small, epvals


def ref_tail_prob_mean(dist, n, a, reps, seed):
    count = 0
    draw = lambda gen, k: dist.sample_array(gen, k, np.float32)
    for _start, size, gen in rng.blocks(reps, seed, rng.STREAM_TAILPROB):
        total = np.zeros(size)
        for _n0, draws in rng.walk(draw, size, gen, n):
            total += draws.sum(axis=1, dtype=np.float64)
        count += int(np.count_nonzero(np.abs(total) / n >= a))
    p = count / reps
    return TailProbEstimate(p, math.sqrt(p * (1.0 - p) / reps), False)


def ref_levy_maximal_check(dist, m, t, reps, seed):
    hit_max = 0
    hit_end = 0
    draw = lambda gen, k: dist.sample_array(gen, k, np.float32)
    for _start, size, gen in rng.blocks(reps, seed, rng.STREAM_LEVY):
        running = np.zeros(size)
        runmax = np.zeros(size)
        for _n0, draws in rng.walk(draw, size, gen, m):
            cums = np.cumsum(draws, axis=1, dtype=np.float64)
            cums += running[:, None]
            runmax = np.maximum(runmax, np.abs(cums).max(axis=1))
            running = cums[:, -1].copy()
        hit_max += int(np.count_nonzero(runmax >= t))
        hit_end += int(np.count_nonzero(np.abs(running) >= t))
    p_max, p_end = hit_max / reps, hit_end / reps
    se_max = math.sqrt(p_max * (1.0 - p_max) / reps)
    se_end = math.sqrt(p_end * (1.0 - p_end) / reps)
    return LevyReport(p_max, 2.0 * p_end, se_max, 2.0 * se_end, False)


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("dtype", sorted(DTYPES))
@pytest.mark.parametrize("law", sorted(LAWS))
def test_sample_array_matches_reference(law, dtype):
    dist, ftype = LAWS[law], DTYPES[dtype]
    gen, ref_gen = rng.substream(5, 1), rng.substream(5, 1)
    for n in SIZES:
        _same_bits(dist.sample_array(gen, n, ftype), ref_sample_array(dist, ref_gen, n, ftype))
    # The same generator state, the buffered 32-bit half of Philox included:
    # a float64 draw does not read that half, a float32 draw does.
    _same_bits(gen.random(3, dtype=np.float32), ref_gen.random(3, dtype=np.float32))
    _same_bits(gen.random(3), ref_gen.random(3))


class _Uniforms:
    """Stands in for a generator: ``random`` hands out fixed uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, n, dtype):
        assert n == self.u.size and dtype == self.u.dtype
        return self.u.copy()


@pytest.mark.parametrize("k", [0, 1, 2, 1000, 2**22 + 7, 2**23, 2**24 - 3, 2**24 - 2, 2**24 - 1])
@pytest.mark.parametrize("frac", [0.0, 0.3, 0.999])
def test_two_atom_cut_is_exact_on_the_float32_grid(k, frac):
    # A float32 uniform is j * 2^-24; the draws next to p0 = (k + frac) 2^-24
    # must fall on the side that the float64 comparison u < p0 puts them.
    p0 = (k + frac) * 2.0**-24
    dist = Discrete((-1.0, 2.0), (p0, 1.0 - p0))
    j = np.arange(k - 1, k + 3)
    u = (j[(j >= 0) & (j < 2**24)] * 2.0**-24).astype(np.float32)
    want = np.where(u.astype(np.float64) < p0, np.float32(-1.0), np.float32(2.0))
    _same_bits(dist.sample_array(_Uniforms(u), u.size, np.float32), want)


@pytest.mark.parametrize("reps", [REPS, 4096 + _TILE + 188])
@pytest.mark.parametrize("center", [0.0, 0.3])
@pytest.mark.parametrize("horizon", [2048, 2500])
@pytest.mark.parametrize(
    "law",
    [
        "gaussian-1",
        "gaussian-2.5",
        "uniform-1",
        "pareto2-1.5",
        "pareto2-1",
        "triangular",
        "rademacher",
        "bernoulli-0.75",
    ],
)
def test_last_exit_samples_matches_reference(law, horizon, center, reps):
    # The library scans tile by tile, the reference block by block; the
    # gaussian-2.5 and pareto2-1 draws have float64 sums that can round.
    dist = LAWS[law]
    for a in (0.25, 0.5, 1.0):
        cfg = PathConfig(horizon, reps, 3, center)
        batch = last_exit_samples(dist, a, cfg)
        values, censored = ref_last_exit_samples(dist, a, cfg)
        _same_bits(batch.values, values)
        _same_bits(batch.censored, censored)


@pytest.mark.parametrize("size", [4096, 700, 4])
@pytest.mark.parametrize(
    "law", ["gaussian-1", "uniform-3", "pareto2-1.5", "pareto2-1", "triangular", "bernoulli-tiny"]
)
def test_segment_l1_in_row_tiles_matches_whole_block(law, size):
    # The exclusion bound's per-path sum of |X| over a segment, summed in
    # row tiles of one reused float32 buffer, must give the bits of the sum
    # over the whole block: full segments, and the short last segment of a
    # 2500-step horizon (2048 + 256 + 196).
    draws = _f32(LAWS[law])(rng.substream(8, size), size * 2500).reshape(size, 2500)
    abs_buf = np.empty((min(size, _TILE), _SEG_STEPS), dtype=np.float32)
    l1 = np.empty(size)
    for chunk in (draws[:, :2048], draws[:, 2048:]):
        for j0 in range(0, chunk.shape[1], _SEG_STEPS):
            seg = chunk[:, j0 : j0 + _SEG_STEPS]
            w = seg.shape[1]
            for r0 in range(0, size, _TILE):
                rows, k = slice(r0, r0 + _TILE), min(_TILE, size - r0)
                np.abs(seg[rows], out=abs_buf[:k, :w]).sum(axis=1, dtype=np.float64, out=l1[rows])
            _same_bits(l1, np.abs(seg).sum(axis=1, dtype=np.float64))


@pytest.mark.parametrize("law", sorted(LAWS))
def test_path_draw_matches_one_sample_array_call(law):
    dist = LAWS[law]
    draw = _f32(dist)
    gen, ref_gen = rng.substream(6, 1), rng.substream(6, 1)
    # growing, then shrinking: later draws reuse the buffer of earlier ones
    for n in DRAW_SIZES + DRAW_SIZES[::-1]:
        _same_bits(draw(gen, n), dist.sample_array(ref_gen, n, np.float32))
    _same_bits(gen.random(3, dtype=np.float32), ref_gen.random(3, dtype=np.float32))
    _same_bits(gen.random(3), ref_gen.random(3))


@pytest.mark.parametrize("n_max", [4096, 5000])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_deviation_profile_matches_reference(law, n_max):
    dist = LAWS[law]
    prof = deviation_profile(dist, n_max, REPS, 4)
    endpoints, small, epvals = ref_deviation_profile(dist, n_max, REPS, 4)
    _same_bits(prof.endpoints, endpoints)
    _same_bits(prof.small_values, small)
    _same_bits(prof.endpoint_values, epvals)


# m = 300 ends inside the first tile's chunk, 2048 on a chunk edge, 2500
# inside the second chunk.
FIXED_N = (300, 2048, 2500)


@pytest.mark.parametrize("n", FIXED_N)
@pytest.mark.parametrize("law", sorted(LAWS))
def test_tail_prob_mean_matches_reference(law, n):
    dist = LAWS[law]
    # a level near one standard error of the mean keeps both outcomes common
    a = 1.0 / math.sqrt(n)
    got = tail_prob_mean(dist, n, a, REPS, 5)
    assert repr(got) == repr(ref_tail_prob_mean(dist, n, a, REPS, 5))


@pytest.mark.parametrize("m", FIXED_N)
@pytest.mark.parametrize("law", sorted(k for k, d in LAWS.items() if d.symmetric))
def test_levy_maximal_check_matches_reference(law, m):
    dist = LAWS[law]
    t = math.sqrt(m)
    got = levy_maximal_check(dist, m, t, REPS, 5)
    assert repr(got) == repr(ref_levy_maximal_check(dist, m, t, REPS, 5))
