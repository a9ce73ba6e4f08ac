"""Wald's multi-hypothesis sequential test on i.i.d. observation streams.

The state is the per-hypothesis log likelihood ratio log R^i_n of a
reference law P against the candidate P_i; hypothesis i is rejected the
first time R^i_n reaches its level c_i.  The test stops once all but one
candidate are rejected and decides for the hypothesis whose rejecting time
is largest (or still pending), with ties broken toward the smallest index.

The reference defaults to the uniform mixture of the candidates, which is
locally equivalent to each of them and keeps the log ratios bounded below;
it can be overridden.  All arithmetic is in log space.  A run is strictly
sequential in n (the stopping rule is adapted, no lookahead); replicated
runs follow the stream layout of ``rng.blocks`` and ``rng.walk``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from . import rng as _rng
from .errors import ConfigurationError, DataError, DomainError
from .functions import ModerateFunction
from .lastexit import CENSOR_BOUND

_RHO_UNSET = 0  # sentinel inside the batch arrays; public records use None
_HORIZON_FACTOR = 6.0  # a sweep row runs for 6 n* + 64 steps,
_MIN_HORIZON = 256  # but at least 256


@dataclass(frozen=True, eq=False)
class HypothesisSet:
    """Finitely many candidate laws on a shared finite alphabet.

    ``masses[i][k]`` is P_i of alphabet symbol k.  With ``strict`` every
    candidate must be positive wherever any other is (mutual local
    equivalence); with strict=False a zero mass produces an infinite
    log-ratio at observation time, i.e. an immediate rejection.
    """

    alphabet: tuple
    masses: tuple
    reference: tuple | None = None
    strict: bool = True

    def __post_init__(self):
        m = len(self.masses)
        if m < 2:
            raise ConfigurationError("need at least 2 candidate laws")
        k = len(self.alphabet)
        for row in self.masses:
            if len(row) != k:
                raise ConfigurationError("mass rows must match the alphabet length")
            arr = np.asarray(row, dtype=float)
            if np.any(arr < 0) or abs(float(arr.sum()) - 1.0) > 1e-12:
                raise ConfigurationError("masses must be nonnegative and sum to 1")
        mat = np.asarray(self.masses, dtype=float)
        union = mat.sum(axis=0) > 0
        if self.strict and np.any((mat[:, union] <= 0)):
            raise ConfigurationError(
                "candidates are not mutually locally equivalent on the alphabet; "
                "pass strict=False to allow immediate rejections instead"
            )
        if self.reference is not None:
            ref = np.asarray(self.reference, dtype=float)
            if len(ref) != k or np.any(ref < 0) or abs(float(ref.sum()) - 1.0) > 1e-12:
                raise ConfigurationError("reference must be a mass vector on the alphabet")
            if np.any((ref <= 0) & union):
                raise ConfigurationError("reference must be positive wherever some P_i is")

    @property
    def m(self) -> int:
        return len(self.masses)

    def check_index(self, i) -> None:
        """Refuse ``i`` unless it is an integer naming a hypothesis, 0 <= i < m."""
        if not isinstance(i, (int, np.integer)) or not 0 <= i < self.m:
            raise ConfigurationError(f"the hypothesis index must be 0 .. {self.m - 1}, got {i!r}")

    @cached_property
    def _masses(self) -> np.ndarray:
        return np.asarray(self.masses, dtype=float)

    @cached_property
    def _reference(self) -> np.ndarray:
        if self.reference is not None:
            return np.asarray(self.reference, dtype=float)
        return self._masses.mean(axis=0)

    @cached_property
    def _increments(self) -> np.ndarray:
        """(m, K) table of log p(y) - log p_i(y); +inf marks zero candidate mass."""
        with np.errstate(divide="ignore"):
            log_ref = np.log(self._reference)
            log_p = np.log(self._masses)
        inc = log_ref[None, :] - log_p
        inc[:, self._reference <= 0] = np.nan  # outside every support
        return inc

    @cached_property
    def _index(self) -> dict:
        return {float(v): k for k, v in enumerate(self.alphabet)}

    @cached_property
    def _cums(self) -> np.ndarray:
        return np.cumsum(self._masses, axis=1)

    def index_of(self, y) -> int:
        k = self._index.get(float(y))
        if k is None or self._reference[k] <= 0:
            raise DataError(f"observation {y!r} lies outside every candidate support")
        return k

    def kl(self, i: int, j: int) -> float:
        """KL(P_i || P_j), exact on the alphabet."""
        p, q = self._masses[i], self._masses[j]
        mask = p > 0
        if np.any(q[mask] <= 0):
            return math.inf
        return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))

    @cached_property
    def pairwise_kl(self) -> np.ndarray:
        m = self.m
        out = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                if i != j:
                    out[i, j] = self.kl(i, j)
        return out

    def kl_adjusted(self, i: int, j: int) -> float:
        """Drift of log R^j under P_i: E_i[log p(Y) - log p_j(Y)].

        For the uniform mixture reference this equals KL(P_i || P_j) minus
        KL(P_i || P), an additive term bounded by log m.
        """
        p = self._masses[i]
        mask = p > 0
        inc = self._increments[j]
        return float(np.sum(p[mask] * inc[mask]))

    def sample_indices(self, gen: np.random.Generator, i: int, n: int) -> np.ndarray:
        u = gen.random(n)
        return np.minimum(
            np.searchsorted(self._cums[i], u, side="right"), len(self.alphabet) - 1
        )


@dataclass(frozen=True)
class LevelVector:
    """Per-hypothesis rejection levels, each > 1; +inf means never reject."""

    values: tuple

    def __post_init__(self):
        if any(not v > 1.0 for v in self.values):
            raise ConfigurationError("every level must exceed 1")

    def log(self) -> np.ndarray:
        return np.log(np.asarray(self.values, dtype=float))


def as_levels(levels, m: int) -> LevelVector:
    if isinstance(levels, LevelVector):
        lv = levels
    elif np.isscalar(levels):
        lv = LevelVector(tuple([float(levels)] * m))
    else:
        lv = LevelVector(tuple(float(v) for v in levels))
    if len(lv.values) != m:
        raise ConfigurationError(f"expected {m} levels, got {len(lv.values)}")
    return lv


@dataclass(frozen=True)
class DecisionRecord:
    """One run: stopping step tau, decision index, per-hypothesis rejecting
    steps (None = not yet at tau / horizon), and the log ratios at tau."""

    tau: int | None
    censored: bool
    decision: int | None
    rho: tuple
    log_ratios_at_tau: tuple

    def check_coherence(self) -> bool:
        if self.censored or self.decision is None:
            return self.censored
        keys = [math.inf if r is None else r for r in self.rho]
        return keys[self.decision] == max(keys)


def log_ratio_update(state, y, hyp: HypothesisSet) -> np.ndarray:
    """Advance every log R^i by one observation; infinite entries encode the
    immediate rejection of a candidate with zero mass at y."""
    k = hyp.index_of(y)
    inc = hyp._increments[:, k]
    if np.any(np.isnan(inc)):
        raise DataError(f"observation {y!r} lies outside every candidate support")
    return np.asarray(state, dtype=float) + inc


def run_test(hyp: HypothesisSet, levels, stream, horizon: int) -> DecisionRecord:
    """Consume observations until the test stops or the horizon is hit.

    The stop happens at the first n where all but one candidate are rejected;
    that n equals min_i max_{j != i} rho_j with pending rejections read as
    +inf.  A horizon hit returns a censored record with the partial rho.
    """
    if hyp.m < 2:
        raise ConfigurationError("the min-max stopping rule needs m >= 2")
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    logc = as_levels(levels, hyp.m).log()
    state = np.zeros(hyp.m)
    rho: list[int | None] = [None] * hyp.m
    n = 0
    for y in islice(stream, horizon):
        n += 1
        state = log_ratio_update(state, y, hyp)
        for i in range(hyp.m):
            if rho[i] is None and state[i] >= logc[i]:
                rho[i] = n
        if sum(r is not None for r in rho) >= hyp.m - 1:
            keys = [math.inf if r is None else r for r in rho]
            best = max(range(hyp.m), key=lambda i: (keys[i], -i))
            return DecisionRecord(n, False, best, tuple(rho), tuple(float(s) for s in state))
    return DecisionRecord(None, True, None, tuple(rho), tuple(float(s) for s in state))


# ---------------------------------------------------------------------------
# Replicated runs (finite-alphabet fast path)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchRuns:
    tau: np.ndarray  # int64, -1 when censored
    decision: np.ndarray  # int64, -1 when censored
    censored: np.ndarray


def simulate_runs(
    hyp: HypothesisSet,
    levels,
    true_index: int,
    reps: int,
    horizon: int,
    seed: int,
    *,
    stream: int = 0,
) -> BatchRuns:
    """Replicated Wald runs under P_true; one substream per replicate block,
    draws taken for every column each step so results do not depend on which
    replicates have already stopped."""
    hyp.check_index(true_index)
    logc = as_levels(levels, hyp.m).log()
    m = hyp.m
    inc = hyp._increments
    if np.any(np.isnan(inc[:, hyp._masses[true_index] > 0])):
        raise DataError("the true law puts mass outside every candidate support")
    draw = lambda gen, n: hyp.sample_indices(gen, true_index, n)
    layout = _rng.blocks(reps, seed, _rng.STREAM_SPRT, stream)  # checks reps before np.full
    tau = np.full(reps, -1, dtype=np.int64)
    decision = np.full(reps, -1, dtype=np.int64)
    for start, size, gen in layout:
        log_r = np.zeros((m, size))
        rho = np.zeros((m, size), dtype=np.int64)
        done = np.zeros(size, dtype=bool)
        tau_blk = tau[start : start + size]
        dec_blk = decision[start : start + size]
        for n, ys in _rng.walk(draw, size, gen, horizon, chunk=1):
            log_r += inc[:, ys[:, 0]]
            crossed = (log_r >= logc[:, None]) & (rho == _RHO_UNSET) & (~done)[None, :]
            if crossed.any():
                rho[crossed] = n
            newly = (~done) & ((rho > 0).sum(axis=0) >= m - 1)
            if newly.any():
                cols = np.nonzero(newly)[0]
                tau_blk[cols] = n
                masked = np.where(rho[:, cols] == _RHO_UNSET, np.inf, rho[:, cols])
                dec_blk[cols] = np.argmax(masked, axis=0)
                done |= newly
            if done.all():
                break
    return BatchRuns(tau=tau, decision=decision, censored=tau < 0)


@dataclass(frozen=True)
class ErrorEstimate:
    error_rate: float
    se: float
    censor_rate: float


def estimate_errors(
    hyp: HypothesisSet,
    levels,
    true_index: int,
    reps: int,
    horizon: int,
    seed: int = 0,
) -> ErrorEstimate:
    """Fraction of non-censored runs under P_true deciding for a wrong
    hypothesis, with binomial standard error; NaN when every run censors."""
    runs = simulate_runs(hyp, levels, true_index, reps, horizon, seed)
    alive = ~runs.censored
    n_alive = int(alive.sum())
    censor_rate = 1.0 - n_alive / reps
    if n_alive == 0:
        return ErrorEstimate(math.nan, math.nan, 1.0)
    wrong = float(np.mean(runs.decision[alive] != true_index))
    se = math.sqrt(wrong * (1.0 - wrong) / n_alive)
    return ErrorEstimate(wrong, se, censor_rate)


@dataclass(frozen=True)
class GMomentEstimate:
    mean: float
    se: float
    censor_rate: float
    degraded_confidence: bool


def estimate_G_moment(
    hyp: HypothesisSet,
    levels,
    true_index: int,
    g: ModerateFunction,
    reps: int,
    horizon: int,
    seed: int = 0,
) -> GMomentEstimate:
    """Monte Carlo E_true[G(tau)] over non-censored runs; the estimate is
    flagged when the censor rate exceeds ``CENSOR_BOUND``."""
    runs = simulate_runs(hyp, levels, true_index, reps, horizon, seed)
    alive = ~runs.censored
    censor_rate = 1.0 - float(alive.mean())
    if not alive.any():
        return GMomentEstimate(math.nan, math.nan, 1.0, True)
    vals = g.eval(runs.tau[alive].astype(float))
    mean = math.fsum(vals) / len(vals)
    se = float(np.std(vals)) / math.sqrt(len(vals))
    return GMomentEstimate(mean, se, censor_rate, censor_rate > CENSOR_BOUND)


def rejection_rate(
    hyp: HypothesisSet,
    c_i: float,
    i: int,
    reps: int,
    horizon: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Empirical P_i[rho_i <= horizon]: the chance the mean-one ratio R^i
    ever reaches c_i under its own law, which Ville's inequality caps at 1/c_i."""
    hyp.check_index(i)
    if not c_i > 1.0:
        raise ConfigurationError("the level must exceed 1")
    logc = math.log(c_i)
    inc_i = hyp._increments[i]
    draw = lambda gen, n: inc_i[hyp.sample_indices(gen, i, n)]
    crossed_total = 0
    for _start, size, gen in _rng.blocks(reps, seed, _rng.STREAM_SPRT_REJECT):
        carry = np.zeros(size)
        crossed = np.zeros(size, dtype=bool)
        for _n0, incs in _rng.walk(draw, size, gen, horizon, chunk=1024):
            cums = np.cumsum(incs, axis=1)
            cums += carry[:, None]
            crossed |= cums.max(axis=1) >= logc
            carry = cums[:, -1].copy()
        crossed_total += int(np.count_nonzero(crossed))
    p = crossed_total / reps
    return p, math.sqrt(p * (1.0 - p) / reps)


@dataclass(frozen=True)
class SweepRow:
    target_error: float
    c: float
    mean_G_tau: float
    reference_G: float
    ratio: float
    censor_rate: float = 0.0


def optimality_sweep(
    hyp: HypothesisSet,
    target_errors,
    true_index: int,
    g: ModerateFunction,
    reps: int,
    seed: int = 0,
) -> list[SweepRow]:
    """For each target error a set c = 1/a, run the test under P_true and
    compare E[G(tau_c)] against G(n*) with n* = max_{j != i} log c / drift of
    log R^j under P_i.

    The reference is a first-order surrogate; the contract of the sweep is
    the trend of the ratio column as the target error shrinks, and the
    acceptance band around 1 is engineering judgment, not a theorem.
    """
    hyp.check_index(true_index)
    targets = [float(a) for a in target_errors]
    if any(not (0 < a < 1) for a in targets):
        raise ConfigurationError("target errors must lie in (0, 1)")
    if not all(b < a for a, b in zip(targets, targets[1:])):
        raise ConfigurationError("target errors must be strictly decreasing")
    drifts = []
    for j in range(hyp.m):
        if j == true_index:
            continue
        d = hyp.kl_adjusted(true_index, j)
        if d <= 0:
            raise ConfigurationError(
                f"drift of log R^{j} under P_{true_index} is {d:.3g} <= 0; "
                "the reference law sits too close to that candidate"
            )
        drifts.append(d)
    rows = []
    for row_idx, a_err in enumerate(targets):
        c = 1.0 / a_err
        n_star = max(math.log(c) / d for d in drifts)
        horizon = max(_MIN_HORIZON, int(_HORIZON_FACTOR * n_star) + 64)
        est = estimate_G_moment(
            hyp,
            c,
            true_index,
            g,
            reps,
            horizon,
            _rng.derive_seed(seed, 61, row_idx),
        )
        ref = g.eval(n_star)
        rows.append(
            SweepRow(
                target_error=a_err,
                c=c,
                mean_G_tau=est.mean,
                reference_G=ref,
                ratio=est.mean / ref,
                censor_rate=est.censor_rate,
            )
        )
    return rows
