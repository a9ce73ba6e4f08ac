"""Cesaro-mean path simulation: last-exit times, G-moments of the last-exit
time, the deviation series sum n^-1 G(n) P[|S_n/n| >= a], and the Levy
maximal-inequality audit, by Monte Carlo.  The series head is the first
``HEAD`` = 64 terms; for lattice laws it, and walks of up to
``exact.MAX_STEPS`` steps, are enumerated in ``exact``.

Every statistic is one loop over ``rng.paths``, which alone turns the
stream layout into path indices: replicate blocks on their own substreams,
consumed in step chunks with running sums only, so results are identical
for a fixed seed however workers schedule the blocks.  Draws fill one
float32 buffer in cache-sized pieces of ``rng.PIECE``.  Every walk holds one
tile of ``_TILE`` paths by one chunk; the last-exit scan adds buffers for one
tile by one segment (about 1.7 MB).  Beyond that a call holds its per-path
state and the sampler's temporaries for one piece.

The last-exit time over infinite time is truncated at the horizon: a
deviation landing in the final dyadic block [N/2, N] flags the replicate as
censored, and estimates refuse a clean verdict when the censor rate exceeds
``CENSOR_BOUND``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .distributions import Distribution
from .errors import DomainError, PreconditionError
from .exact import MAX_STEPS, check_threshold, dev_probs, exact_dev_prob, levy_sides
from .functions import ModerateFunction
from .report import DIVERGENT, FINITE, SERIES, Verdict

_SEG_STEPS = 256
_TILE = 512  # paths per tile of every walk
CENSOR_BOUND = 1e-3  # censor rate above which a moment estimate is flagged
HEAD = 64  # series terms n <= HEAD are summed one by one, the rest in dyadic blocks


@dataclass(frozen=True)
class PathConfig:
    """Simulation envelope: horizon N, replicate count, seed, deviation center."""

    horizon: int
    replicates: int
    seed: int = 0
    center: float = 0.0

    def __post_init__(self):
        for v in (self.horizon, self.replicates):
            _rng.check_size("horizon and replicates", v)
        if not math.isfinite(self.center):
            raise DomainError(f"the deviation center must be finite, got {self.center!r}")


@dataclass(frozen=True)
class LastExitBatch:
    values: np.ndarray
    censored: np.ndarray

    @property
    def censor_rate(self) -> float:
        return float(np.mean(self.censored))

    @property
    def horizon_warning(self) -> bool:  # the censor rate is too high for a clean moment
        return self.censor_rate > CENSOR_BOUND


@dataclass(frozen=True)
class EGEstimate:
    """Monte Carlo estimate of E[G(L_a)] with censoring accounting."""

    mean: float
    se: float
    censor_rate: float
    horizon_warning: bool


def check_level(a: float) -> None:
    """Refuse a deviation level that is not finite and positive."""
    if not 0 < a < math.inf:  # NaN passes no comparison
        raise DomainError(f"a must be finite and positive, got {a!r}")


def check_centered(dist: Distribution) -> None:
    """Refuse a law with a nonzero mean, whose deviations from 0 only grow."""
    if abs(dist.mean()) > 1e-9:
        raise PreconditionError(f"{dist.name} is not centered; supply the deviation center explicitly")


def check_profile(n_max: int, reps: int) -> None:
    """Refuse the sizes of a deviation profile that cannot run."""
    _rng.check_size("n_max", n_max, 2)
    _rng.check_size("the replicate count", reps)


def needs_profile(dist: Distribution, n_max: int) -> bool:
    """Whether ``estimate_series`` reads a deviation profile up to ``n_max``:
    it does unless the law is a finite lattice, whose terms up to ``HEAD``
    are enumerated exactly, and ``n_max <= HEAD``."""
    return n_max > HEAD or dist.lattice is None


def _f32(dist: Distribution):
    """The float32 sampler of ``dist`` as an ``rng.paths`` draw that fills one
    buffer, grown on demand and reused by every call, in pieces of
    ``rng.PIECE`` draws.  Generator fills are sequential, so the draws and the
    generator state after a call are those of one ``sample_array(gen, n,
    np.float32)`` call, while the sampler's temporaries stay cache-sized.
    A returned array is valid until the next call."""
    buf = np.empty(0, dtype=np.float32)

    def draw(gen, n):
        nonlocal buf
        if buf.size < n:
            buf = np.empty(n, dtype=np.float32)
        out = buf[:n]
        for i in range(0, n, _rng.PIECE):
            out[i : i + _rng.PIECE] = dist.sample_array(gen, min(_rng.PIECE, n - i), np.float32)
        return out

    return draw


def last_exit_samples(
    dist: Distribution, a: float, cfg: PathConfig, *, stream: int = 0
) -> LastExitBatch:
    """Last-exit times of U_n = S_n/n from cfg.center at level a, one per
    replicate, measured up to the horizon."""
    check_level(a)
    horizon, reps, x = cfg.horizon, cfg.replicates, cfg.center
    values, running = np.zeros(reps, dtype=np.int64), np.zeros(reps)
    # Scan buffers for one tile of paths by one segment.
    tile = min(reps, _TILE)
    l1_buf = np.empty(tile)
    abs_buf = np.empty((tile, _SEG_STEPS), dtype=np.float32)
    cums_buf = np.empty((tile, _SEG_STEPS))
    dev_buf = np.empty((tile, _SEG_STEPS), dtype=bool)
    key = _rng.STREAM_LASTEXIT, stream
    for paths, n0, draws in _rng.paths(_f32(dist), reps, horizon, cfg.seed, *key, rows=_TILE):
        run, last = running[paths], values[paths]
        k, steps = draws.shape
        # Per-segment exclusion: within a segment starting at m0,
        # |S_n - x n| <= |S_{m0-1}| + sum_seg|X_k| + |x| n; when that stays
        # below a*m0 the segment cannot contain a deviation and only the
        # carry is needed.  The |X| pass runs only if the carry alone leaves
        # room, which is the same decision, as fl(|r| + l) >= |r|.
        for j0 in range(0, steps, _SEG_STEPS):
            j1 = min(j0 + _SEG_STEPS, steps)
            seg, w = draws[:, j0:j1], j1 - j0
            m0, m_hi = n0 + j0, n0 + j1 - 1
            reach, level = abs(x) * m_hi, a * m0
            if float(np.abs(run).max()) + reach < level:
                l1 = np.abs(seg, out=abs_buf[:k, :w]).sum(axis=1, dtype=np.float64, out=l1_buf[:k])
                if float((np.abs(run) + l1).max()) + reach < level:
                    run += seg.sum(axis=1, dtype=np.float64)
                    continue
            ns = np.arange(m0, m_hi + 1, dtype=float)
            cums = np.cumsum(seg, axis=1, dtype=np.float64, out=cums_buf[:k, :w])
            cums += run[:, None]
            run[:] = cums[:, -1]
            # run holds the carry, so cums is free to overwrite
            if x != 0.0:
                cums -= x * ns
            dev = np.greater_equal(np.abs(cums, out=cums), a * ns, out=dev_buf[:k, :w])
            hit = dev.any(axis=1)
            if hit.any():
                lastpos = w - 1 - np.argmax(dev[:, ::-1], axis=1)
                np.copyto(last, m0 + lastpos, where=hit)
    censored = (values >= horizon / 2.0) & (values >= 1)
    return LastExitBatch(values, censored)


def estimate_EG_lastexit(
    dist: Distribution,
    g: ModerateFunction,
    a: float,
    cfg: PathConfig,
    *,
    batch: LastExitBatch | None = None,
    stream: int = 0,
) -> EGEstimate:
    """Monte Carlo mean of G(L_a) with standard error and censor rate.

    ``batch`` lets callers reuse one last-exit simulation across several G;
    the L samples do not depend on G.  A censor rate above ``CENSOR_BOUND``
    sets the horizon warning: the mean then understates the true moment.
    """
    if cfg.center == 0.0:
        check_centered(dist)
    if batch is None:
        batch = last_exit_samples(dist, a, cfg, stream=stream)
    vals = g.eval(batch.values.astype(float))
    reps = len(vals)
    mean = math.fsum(vals) / reps
    var = math.fsum((v - mean) ** 2 for v in vals) / max(reps - 1, 1)
    se = math.sqrt(var / reps)
    return EGEstimate(mean, se, batch.censor_rate, batch.horizon_warning)


# ---------------------------------------------------------------------------
# Deviation series S(X, G, a)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationProfile:
    """Per-path Cesaro means recorded at small n and at dyadic checkpoints.

    The profile is independent of G and of the level a, so one simulation
    serves every (G, a) evaluated afterwards.
    """

    dist_spec: str
    endpoints: np.ndarray
    small_values: np.ndarray  # (reps, min(HEAD, n_max)) U_n for n = 1, 2, ...
    endpoint_values: np.ndarray  # (reps, len(endpoints))
    n_max: int
    reps: int


def _series_endpoints(n_max: int) -> np.ndarray:
    """HEAD, 2 HEAD, 4 HEAD, ... below n_max, then n_max; none when n_max <= HEAD."""
    if n_max <= HEAD:
        return np.asarray([], dtype=np.int64)
    eps = []
    e = HEAD
    while e < n_max:
        eps.append(e)
        e *= 2
    eps.append(n_max)
    return np.asarray(eps, dtype=np.int64)


def deviation_profile(
    dist: Distribution,
    n_max: int,
    reps: int,
    seed: int = 0,
    *,
    stream: int = 0,
) -> DeviationProfile:
    """Simulate ``reps`` centered paths up to n_max, recording U_n for
    n <= HEAD and at dyadic checkpoints HEAD, 2 HEAD, ..., n_max."""
    check_profile(n_max, reps)
    head = min(HEAD, n_max)
    endpoints = _series_endpoints(n_max)
    small = np.zeros((reps, head))
    epvals = np.zeros((reps, len(endpoints)))
    running = np.zeros(reps)
    # Walk to n_max rounded up to whole chunks and read only the steps up to
    # n_max: the per-path layout, and hence every recorded value, is then a
    # prefix of the same run at a larger n_max.
    n_walk = -(-n_max // _rng.CHUNK) * _rng.CHUNK
    key = _rng.STREAM_SERIES, stream
    for paths, n0, draws in _rng.paths(_f32(dist), reps, n_walk, seed, *key, rows=_TILE):
        steps = min(draws.shape[1], n_max - n0 + 1)
        draws = draws[:, :steps]
        if n0 == 1:
            rows = small[paths]
            np.cumsum(draws[:, :head], axis=1, dtype=np.float64, out=rows)
            rows /= np.arange(1, head + 1, dtype=float)
        # Only checkpoint prefixes are needed; walk segment sums instead of
        # materializing the full cumsum.
        run = running[paths]
        pos = 0
        for k in np.nonzero((endpoints >= n0) & (endpoints < n0 + steps))[0]:
            j = int(endpoints[k]) - n0 + 1
            run += draws[:, pos:j].sum(axis=1, dtype=np.float64)
            epvals[paths, k] = run / float(endpoints[k])
            pos = j
        if pos < steps:
            run += draws[:, pos:].sum(axis=1, dtype=np.float64)
    return DeviationProfile(
        dist_spec=dist.spec_string(),
        endpoints=endpoints,
        small_values=small,
        endpoint_values=epvals,
        n_max=n_max,
        reps=reps,
    )


@dataclass(frozen=True)
class SeriesBlock:
    lo: int
    hi: int
    contribution: float
    se: float


@dataclass(frozen=True)
class SeriesEstimate:
    """Partial sums of the deviation series with per-block error bars.

    ``head`` covers n <= ``HEAD`` (exact for finite-support laws),
    ``blocks`` the dyadic ranges above it.  partial_sum = head + blocks and
    underestimates the full series: the tail beyond n_max is not included.
    """

    a: float
    n_max: int
    head: float
    head_exact: bool
    blocks: tuple
    partial_sum: float
    se: float
    verdict: Verdict


def _series_verdict(block_means, block_ses, head_terms, partial) -> Verdict:
    if len(block_means) == 0:
        if len(head_terms) >= 4:
            tail_terms = head_terms[-8:]
            ratios = [b / a for a, b in zip(tail_terms, tail_terms[1:]) if a > 0]
            if not ratios or max(ratios) <= 0.9:
                return SERIES[FINITE]
        return SERIES[None]
    floor = max(4.0 * block_ses[-1], 1e-12, 1e-9 * abs(partial))
    if block_means[-1] <= floor and (len(block_means) < 2 or block_means[-2] <= floor):
        return SERIES[FINITE]
    if len(block_means) >= 3:
        b1, b2, b3 = block_means[-3], block_means[-2], block_means[-1]
        if b3 >= b2 >= b1 and b3 > floor:
            return SERIES[DIVERGENT]
        if b3 <= 0.85 * b2 and b2 <= 0.85 * b1:
            return SERIES[FINITE]
    return SERIES[None]


def estimate_series(
    dist: Distribution,
    g: ModerateFunction,
    a: float,
    n_max: int,
    reps_per_block: int = 10_000,
    seed: int = 0,
    *,
    profile: DeviationProfile | None = None,
) -> SeriesEstimate:
    """Estimate sum_{n>=1} n^-1 G(n) P[|S_n/n| >= a] up to n_max.

    The summand is evaluated exactly (enumeration) or per-path for n up to
    ``HEAD``; each dyadic block above is bounded by the block sum of n^-1 G(n)
    times the average of the measured endpoint probabilities.  The verdict is
    evidence-grade, from the trend of the last block contributions.
    """
    check_level(a)
    _rng.check_size("n_max", n_max, 2)
    head_n = np.arange(1, min(HEAD, n_max) + 1, dtype=float)
    w_small = g.eval(head_n) / head_n

    head_exact = dist.lattice is not None
    if profile is not None:
        made = (profile.dist_spec, profile.n_max)
        want = (dist.spec_string(), n_max)
        if made != want:
            raise DomainError(f"a profile of (law, n_max) = {made} cannot serve {want}")
    elif needs_profile(dist, n_max):
        profile = deviation_profile(dist, n_max, reps_per_block, seed)
    per_path_small = None
    if head_exact:
        head_terms = [w * p for w, p in zip(w_small, dev_probs(dist, head_n.size, a))]
        head = math.fsum(head_terms)
    else:
        ind_small = np.abs(profile.small_values) >= a
        per_path_small = ind_small @ w_small
        head = float(np.mean(per_path_small))
        head_terms = list(w_small * ind_small.mean(axis=0))

    blocks: list[SeriesBlock] = []
    per_path_dyadic = None
    if n_max > HEAD:
        eps = profile.endpoints
        ind_ep = np.abs(profile.endpoint_values) >= a
        reps = profile.reps
        per_path_dyadic = np.zeros(reps)
        for k in range(len(eps) - 1):
            lo, hi = int(eps[k]), int(eps[k + 1])
            # Block k covers (e_k, e_{k+1}]: the head already owns n <= HEAD.
            ns = np.arange(lo + 1, hi + 1, dtype=float)
            w_sum = float(np.sum(g.eval(ns) / ns))
            terms = w_sum * 0.5 * (ind_ep[:, k] + ind_ep[:, k + 1])
            per_path_dyadic += terms
            m = float(np.mean(terms))
            s = float(np.std(terms)) / math.sqrt(reps)
            blocks.append(SeriesBlock(lo, hi, m, s))

    parts = [p for p in (per_path_small, per_path_dyadic) if p is not None]
    if parts:
        per_path = sum(parts)
        mc_mean = float(np.mean(per_path))
        se = float(np.std(per_path)) / math.sqrt(len(per_path))
        # An exact head is added on top of the simulated blocks; a simulated
        # head is already inside the per-path totals.
        partial = head + mc_mean if head_exact else mc_mean
    else:
        partial = head
        se = 0.0

    means, ses = [b.contribution for b in blocks], [b.se for b in blocks]
    verdict = _series_verdict(means, ses, head_terms, partial)
    return SeriesEstimate(
        a=a,
        n_max=n_max,
        head=head,
        head_exact=head_exact,
        blocks=tuple(blocks),
        partial_sum=partial,
        se=se,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Fixed-n tail audits: P[|S_n/n| >= a] and the Levy maximal inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailProbEstimate:
    p_hat: float
    se: float
    exact: bool


def tail_prob_mean(
    dist: Distribution, n: int, a: float, reps: int = 100_000, seed: int = 0
) -> TailProbEstimate:
    """P[|S_n/n| >= a]; for lattice laws with n <= ``exact.MAX_STEPS`` by
    exact enumeration in ``exact``, Monte Carlo otherwise."""
    _rng.check_size("n", n)
    _rng.check_size("the replicate count", reps)
    check_threshold("a", a)
    if a == 0:
        return TailProbEstimate(1.0, 0.0, True)
    if dist.lattice is not None and n <= MAX_STEPS:
        return TailProbEstimate(exact_dev_prob(dist, n, a), 0.0, True)
    total = np.zeros(reps)
    walk = _rng.paths(_f32(dist), reps, n, seed, _rng.STREAM_TAILPROB, rows=_TILE)
    for paths, _n0, draws in walk:
        total[paths] += draws.sum(axis=1, dtype=np.float64)
    p = int(np.count_nonzero(np.abs(total) / n >= a)) / reps
    return TailProbEstimate(p, math.sqrt(p * (1.0 - p) / reps), False)


@dataclass(frozen=True)
class LevyReport:
    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    exact: bool

    @property
    def holds(self) -> bool:
        slack = 4.0 * math.hypot(self.lhs_se, self.rhs_se)
        return self.lhs <= self.rhs + slack + 1e-12


def levy_maximal_check(
    dist: Distribution, m: int, t: float, reps: int = 100_000, seed: int = 0
) -> LevyReport:
    """Both sides of P[max_{n<=m} |S_n| >= t] <= 2 P[|S_m| >= t] for a
    symmetric law; for lattice laws with m <= ``exact.MAX_STEPS`` by exact
    enumeration in ``exact``, Monte Carlo otherwise."""
    if not dist.symmetric:
        raise PreconditionError("the maximal inequality needs a symmetric law")
    _rng.check_size("m", m)
    _rng.check_size("the replicate count", reps)
    check_threshold("t", t)
    if dist.lattice is not None and m <= MAX_STEPS:
        return LevyReport(*levy_sides(dist, m, t), 0.0, 0.0, True)

    running, runmax = np.zeros(reps), np.zeros(reps)
    # cumsum of a float32 tile into float64 would first cast the whole tile;
    # widening it into one reused buffer gives the same bits.
    buf = np.empty((min(reps, _TILE), min(m, _rng.CHUNK)))
    for paths, _n0, draws in _rng.paths(_f32(dist), reps, m, seed, _rng.STREAM_LEVY, rows=_TILE):
        cums = buf[: draws.shape[0], : draws.shape[1]]
        np.copyto(cums, draws)
        np.cumsum(cums, axis=1, out=cums)
        cums += running[paths, None]
        running[paths] = cums[:, -1]
        # running holds the carry, so cums is free to overwrite
        np.maximum(runmax[paths], np.abs(cums, out=cums).max(axis=1), out=runmax[paths])
    p_max = int(np.count_nonzero(runmax >= t)) / reps
    p_end = int(np.count_nonzero(np.abs(running) >= t)) / reps
    se_max = math.sqrt(p_max * (1.0 - p_max) / reps)
    se_end = math.sqrt(p_end * (1.0 - p_end) / reps)
    return LevyReport(p_max, 2.0 * p_end, se_max, 2.0 * se_end, False)
