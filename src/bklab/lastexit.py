"""Cesaro-mean path simulation: last-exit times, G-moments of the last-exit
time, the deviation series sum n^-1 G(n) P[|S_n/n| >= a], and the Levy
maximal-inequality audit.

Paths follow the stream layout of ``rng.blocks`` and ``rng.walk``: replicate
blocks on their own substreams, consumed in step chunks with running sums
only.  Results are therefore identical for a fixed seed no matter how many
workers schedule the blocks, and memory stays bounded by one chunk of one
block.

The last-exit time over infinite time is truncated at the horizon: a
deviation landing in the final dyadic block [N/2, N] flags the replicate as
censored, and estimates refuse a clean verdict when the censor rate exceeds
``CENSOR_BOUND``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .distributions import Distribution, lattice_sums
from .errors import DataError, DomainError, PreconditionError
from .functions import ModerateFunction
from .report import DIVERGENT, FINITE, SERIES, Verdict

_SEG_STEPS = 256
CENSOR_BOUND = 1e-3  # censor rate above which a moment estimate is flagged


@dataclass(frozen=True)
class PathConfig:
    """Simulation envelope: horizon N, replicate count, seed, deviation center."""

    horizon: int
    replicates: int
    seed: int = 0
    center: float = 0.0

    def __post_init__(self):
        if self.horizon < 1 or self.replicates < 1:
            raise DomainError("horizon and replicates must be >= 1")
        if not math.isfinite(self.center):
            raise DomainError(f"the deviation center must be finite, got {self.center!r}")


@dataclass(frozen=True)
class LastExitSample:
    """One path's last-exit statistic; value 0 means no deviation occurred."""

    value: int
    censored: bool


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
    replicates: int


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
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    _rng.blocks(reps, 0)  # checks reps at the call and draws nothing


def _f32(dist: Distribution):
    """The float32 sampler of ``dist`` as an ``rng.walk`` draw."""
    return lambda gen, n: dist.sample_array(gen, n, np.float32)


def last_exit_time(path, a: float, x: float = 0.0) -> LastExitSample:
    """Largest n <= N with |Y_n - x| >= a (0 if none), censored when that n
    falls in the final dyadic block [N/2, N]."""
    check_level(a)
    if not math.isfinite(x):
        raise DomainError(f"the deviation center must be finite, got {x!r}")
    arr = np.asarray(path, dtype=float)
    if arr.size == 0:
        raise DomainError("path must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise DataError("path contains non-finite entries")
    dev = np.abs(arr - x) >= a
    if not dev.any():
        return LastExitSample(0, False)
    value = int(np.nonzero(dev)[0][-1]) + 1
    return LastExitSample(value, value >= arr.size / 2)


def last_exit_samples(
    dist: Distribution, a: float, cfg: PathConfig, *, stream: int = 0
) -> LastExitBatch:
    """Last-exit times of U_n = S_n/n from cfg.center at level a, one per
    replicate, measured up to the horizon."""
    check_level(a)
    horizon, reps, x = cfg.horizon, cfg.replicates, cfg.center
    values = np.zeros(reps, dtype=np.int64)
    for start, size, gen in _rng.blocks(reps, cfg.seed, _rng.STREAM_LASTEXIT, stream):
        running = np.zeros(size)
        last = values[start : start + size]
        for n0, draws in _rng.walk(_f32(dist), size, gen, horizon):
            steps = draws.shape[1]
            # Per-segment exclusion: within a segment starting at m0,
            # |S_n - x n| <= |S_{m0-1}| + sum_seg|X_k| + |x| n; when that
            # stays below a*m0 the segment cannot contain a deviation and
            # only the carry is needed.
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
                # running holds a copy, so cums is free to overwrite
                if x != 0.0:
                    cums -= x * ns
                dev = np.abs(cums, out=cums) >= a * ns
                hit = dev.any(axis=1)
                if hit.any():
                    lastpos = (j1 - j0) - 1 - np.argmax(dev[:, ::-1], axis=1)
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
    return EGEstimate(mean, se, batch.censor_rate, batch.horizon_warning, reps)


# ---------------------------------------------------------------------------
# Exact small-n deviation probabilities for lattice laws
# ---------------------------------------------------------------------------


def _beyond(dist: Distribution, values: np.ndarray, level: float) -> np.ndarray:
    """Lattice positions with |s| >= level; one within 1e-9 lattice steps
    below the level counts as on it."""
    return np.abs(values) >= level - 1e-9 * dist.lattice[1]


def exact_dev_prob(dist: Distribution, n: int, a: float) -> float:
    """P[|S_n/n| >= a] by exact enumeration (finite-support lattice laws)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if dist.lattice is None:
        raise PreconditionError("exact enumeration needs a finite-support lattice law")
    values, masses = deque(lattice_sums(dist, n), maxlen=1).pop()
    return math.fsum(masses[_beyond(dist, values, a * n)])


@dataclass(frozen=True)
class TailProbEstimate:
    p_hat: float
    se: float
    exact: bool


def tail_prob_mean(
    dist: Distribution, n: int, a: float, reps: int = 100_000, seed: int = 0
) -> TailProbEstimate:
    """P[|S_n/n| >= a]; exact enumeration for lattice laws with n <= 20,
    Monte Carlo otherwise."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0 <= a < math.inf:
        raise DomainError(f"a must be finite and nonnegative, got {a!r}")
    if a == 0:
        return TailProbEstimate(1.0, 0.0, True)
    if dist.lattice is not None and n <= 20:
        return TailProbEstimate(exact_dev_prob(dist, n, a), 0.0, True)
    count = 0
    for _start, size, gen in _rng.blocks(reps, seed, _rng.STREAM_TAILPROB):
        total = np.zeros(size)
        for _n0, draws in _rng.walk(_f32(dist), size, gen, n):
            total += draws.sum(axis=1, dtype=np.float64)
        count += int(np.count_nonzero(np.abs(total) / n >= a))
    p = count / reps
    return TailProbEstimate(p, math.sqrt(p * (1.0 - p) / reps), False)


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
    n_small: int
    endpoints: np.ndarray
    small_values: np.ndarray  # (reps, n_small) U_n for n = 1..n_small
    endpoint_values: np.ndarray  # (reps, len(endpoints))
    n_max: int
    reps: int
    seed: int


def _series_endpoints(n_small: int, n_max: int) -> np.ndarray:
    eps = []
    e = n_small
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
    n_small: int = 64,
    stream: int = 0,
) -> DeviationProfile:
    """Simulate ``reps`` centered paths up to n_max, recording U_n for
    n <= n_small and at dyadic checkpoints n_small, 2 n_small, ..., n_max."""
    check_profile(n_max, reps)
    n_small = min(n_small, n_max)
    if n_small > _rng.CHUNK:
        raise DomainError("n_small must fit inside one step chunk")
    endpoints = _series_endpoints(n_small, n_max) if n_max > n_small else np.asarray([], dtype=np.int64)
    small = np.zeros((reps, n_small))
    epvals = np.zeros((reps, len(endpoints)))
    # Walk to n_max rounded up to whole chunks and read only the steps up to
    # n_max: the per-path layout, and hence every recorded value, is then a
    # prefix of the same run at a larger n_max.
    n_walk = -(-n_max // _rng.CHUNK) * _rng.CHUNK
    for start, size, gen in _rng.blocks(reps, seed, _rng.STREAM_SERIES, stream):
        running = np.zeros(size)
        for n0, draws in _rng.walk(_f32(dist), size, gen, n_walk):
            steps = min(draws.shape[1], n_max - n0 + 1)
            draws = draws[:, :steps]
            if n0 == 1:
                cums_small = np.cumsum(draws[:, :n_small], axis=1, dtype=np.float64)
                small[start : start + size] = cums_small / np.arange(1, n_small + 1, dtype=float)
            # Only checkpoint prefixes are needed; walk segment sums instead
            # of materializing the full cumsum.
            pos = 0
            for k in np.nonzero((endpoints >= n0) & (endpoints < n0 + steps))[0]:
                j = int(endpoints[k]) - n0 + 1
                running = running + draws[:, pos:j].sum(axis=1, dtype=np.float64)
                epvals[start : start + size, k] = running / float(endpoints[k])
                pos = j
            if pos < steps:
                running = running + draws[:, pos:].sum(axis=1, dtype=np.float64)
    return DeviationProfile(
        dist_spec=dist.spec_string(),
        n_small=n_small,
        endpoints=endpoints,
        small_values=small,
        endpoint_values=epvals,
        n_max=n_max,
        reps=reps,
        seed=seed,
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

    ``head`` covers n <= n_small (exact for finite-support laws),
    ``blocks`` the dyadic ranges above it.  partial_sum = head + blocks and
    underestimates the full series: the tail beyond n_max is not included.
    """

    a: float
    n_max: int
    head: float
    head_se: float
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
    n_small: int = 64,
    profile: DeviationProfile | None = None,
) -> SeriesEstimate:
    """Estimate sum_{n>=1} n^-1 G(n) P[|S_n/n| >= a] up to n_max.

    The summand is evaluated exactly (enumeration) or per-path for n up to
    n_small; each dyadic block above is bounded by the block sum of n^-1 G(n)
    times the average of the measured endpoint probabilities.  The verdict is
    evidence-grade, from the trend of the last block contributions.
    """
    check_level(a)
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    n_small = min(n_small, n_max)
    head_n = np.arange(1, n_small + 1, dtype=float)
    w_small = g.eval(head_n) / head_n

    head_exact = dist.lattice is not None
    if profile is None and (n_max > n_small or not head_exact):
        profile = deviation_profile(dist, n_max, reps_per_block, seed, n_small=n_small)
    per_path_small = None
    if head_exact:
        probs = [
            math.fsum(masses[_beyond(dist, values, a * n)])
            for n, (values, masses) in enumerate(lattice_sums(dist, n_small), start=1)
        ]
        head_terms = [w * p for w, p in zip(w_small, probs)]
        head = math.fsum(head_terms)
        head_se = 0.0
    else:
        ind_small = np.abs(profile.small_values[:, :n_small]) >= a
        per_path_small = ind_small @ w_small
        head = float(np.mean(per_path_small))
        head_se = float(np.std(per_path_small)) / math.sqrt(profile.reps)
        head_terms = list(w_small * ind_small.mean(axis=0))

    blocks: list[SeriesBlock] = []
    per_path_dyadic = None
    if n_max > n_small:
        if profile.n_max != n_max:
            raise DomainError("profile horizon does not match n_max")
        eps = profile.endpoints
        ind_ep = np.abs(profile.endpoint_values) >= a
        reps = profile.reps
        per_path_dyadic = np.zeros(reps)
        for k in range(len(eps) - 1):
            lo, hi = int(eps[k]), int(eps[k + 1])
            # Block k covers (e_k, e_{k+1}]: the head already owns n <= n_small.
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
        head_se=head_se,
        head_exact=head_exact,
        blocks=tuple(blocks),
        partial_sum=partial,
        se=se,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Levy maximal inequality
# ---------------------------------------------------------------------------


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
    symmetric law; exact enumeration for lattice laws with m <= 20."""
    if not dist.symmetric:
        raise PreconditionError("the maximal inequality needs a symmetric law")
    if m < 1:
        raise DomainError("m must be >= 1")
    if dist.lattice is not None and m <= 20:
        # A path leaves the walk once |S_n| >= t; the mass that left is the lhs.
        left = []
        for values, alive in lattice_sums(dist, m):
            out = _beyond(dist, values, t)
            left.extend(alive[out])
            alive[out] = 0.0
        rhs = 2.0 * exact_dev_prob(dist, m, t / m)
        return LevyReport(math.fsum(left), rhs, 0.0, 0.0, True)

    hit_max = 0
    hit_end = 0
    for _start, size, gen in _rng.blocks(reps, seed, _rng.STREAM_LEVY):
        running = np.zeros(size)
        runmax = np.zeros(size)
        for _n0, draws in _rng.walk(_f32(dist), size, gen, m):
            cums = np.cumsum(draws, axis=1, dtype=np.float64)
            cums += running[:, None]
            runmax = np.maximum(runmax, np.abs(cums).max(axis=1))
            running = cums[:, -1].copy()
        hit_max += int(np.count_nonzero(runmax >= t))
        hit_end += int(np.count_nonzero(np.abs(running) >= t))
    p_max = hit_max / reps
    p_end = hit_end / reps
    return LevyReport(
        p_max,
        2.0 * p_end,
        math.sqrt(p_max * (1.0 - p_max) / reps),
        2.0 * math.sqrt(p_end * (1.0 - p_end) / reps),
        False,
    )
