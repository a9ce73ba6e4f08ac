"""Wald's multi-hypothesis sequential test on i.i.d. observation streams.

The state is the per-hypothesis log likelihood ratio log R^i_n of a
reference law P against the candidate P_i.  Hypothesis i is rejected at its
first passage rho_i, the first n at which R^i_n reaches its level c_i, and
rho_i does not depend on when the test stops.  So the test stops at the
(m-1)-th smallest passage, tau = min_i max_{j != i} rho_j, and decides for
the hypothesis whose passage is largest or still pending, with ties broken
toward the smallest index.  ``run_test`` and ``simulate_runs`` share this
rule: ``_passages`` and then ``_decide``.  ``_passages`` reads steps in
chunks, step-major, and works on the runs that are still live alone: per
chunk it cumulates their log ratios down the steps, takes each new first
passage from the chunk, and drops the runs that have stopped.
``simulate_runs`` reads 8 steps per chunk, ``run_test`` one observation.

The reference defaults to the uniform mixture of the candidates, which is
locally equivalent to each of them and keeps the log ratios bounded below;
it can be overridden.  All arithmetic is in log space, with the adds of a
step-by-step walk in its order, so chunking moves no bit.  A run is
strictly sequential in n (no observation after tau is read); replicated
runs follow the stream layout of ``rng``, block by block in
``simulate_runs``, which draws every run's symbol at every step it reads.

Ville's bound P_i[sup_n R^i_n >= c] <= 1/c is a statement about one number
per path, its peak of log R^i, and the walk that finds it does not depend
on c.  ``rejection_rate`` keeps the per-path peaks of its latest walk per
hypothesis index on the ``HypothesisSet``, so a level sweep on one seed
costs one walk, one loop over ``rng.paths`` that draws each 1024-step chunk
in tiles of about ``rng.PIECE`` draws, so its memory is one tile's
uniforms, indices and increments, not the chunk's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from . import rng as _rng
from .errors import ConfigurationError, DataError
from .functions import ModerateFunction

_HORIZON_FACTOR = 6.0  # a sweep row runs for 6 n* + 64 steps,
_MIN_HORIZON = 256  # but at least 256
_CHUNK = 8  # steps per chunk of ``simulate_runs``; 16 saved little and held twice the memory


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
        if not all(math.isfinite(v) for v in self.alphabet):
            # no observation read from a stream could ever equal a NaN symbol
            raise ConfigurationError(f"alphabet symbols must be finite, got {list(self.alphabet)}")
        if len({float(v) for v in self.alphabet}) != k:
            raise ConfigurationError("alphabet symbols must be distinct")
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
        # a bool is an int, but True is no hypothesis name
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < self.m:
            raise ConfigurationError(f"the hypothesis index must be 0 .. {self.m - 1}, got {i!r}")

    @cached_property
    def _peak_memo(self) -> dict:
        """``i -> ((reps, horizon, seed), peaks)`` of ``_peaks``' latest walk."""
        return {}

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
        with np.errstate(divide="ignore", invalid="ignore"):
            inc = np.log(self._reference)[None, :] - np.log(self._masses)
        inc[:, self._reference <= 0] = np.nan  # outside every support
        return inc

    @cached_property
    def _index(self) -> dict:
        return {float(v): k for k, v in enumerate(self.alphabet)}

    @cached_property
    def _cums(self) -> np.ndarray:
        return np.cumsum(self._masses, axis=1)

    @cached_property
    def _cuts(self) -> np.ndarray:
        """The thresholds of ``sample_indices``: ``_cums`` with its last column,
        which is never counted, set to +inf, so a one-symbol alphabet draws
        index 0 even when its mass rounds to a little below 1."""
        cuts = self._cums.copy()
        cuts[:, -1] = np.inf
        return cuts

    def index_of(self, y) -> int:
        k = self._index.get(float(y))
        if k is None or self._reference[k] <= 0:
            raise DataError(f"observation {y!r} lies outside every candidate support")
        return k

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
        """``n`` symbol indices drawn from P_i, each from one ``gen.random``
        double u, so the draws follow the stream layout of ``rng``.

        The index of u is the number of cumulative masses ``cums[k] <= u`` over
        k < K-1, counted with one comparison per threshold.  ``cums`` does not
        decrease, so this is ``searchsorted(cums, u, side="right")`` clipped at
        K-1, bit for bit.
        """
        u = gen.random(n)
        cuts = self._cuts[i]
        idx = (u >= cuts[0]).astype(np.intp)
        for c in cuts[1:-1]:
            idx += u >= c
        return idx


def _log_levels(levels, m: int) -> np.ndarray:
    """log c_i of the ``m`` per-hypothesis levels, each > 1 (+inf rejects
    only on a symbol outside the candidate's support, where log R^i = +inf);
    a scalar level, a 0-d array included, serves every hypothesis."""
    values = [float(levels)] * m if np.ndim(levels) == 0 else [float(v) for v in levels]
    if any(not v > 1.0 for v in values):
        raise ConfigurationError("every level must exceed 1")
    if len(values) != m:
        raise ConfigurationError(f"expected {m} levels, got {len(values)}")
    return np.log(np.asarray(values, dtype=float))


@dataclass(frozen=True)
class DecisionRecord:
    """One run: stopping step tau, decision index, per-hypothesis rejecting
    steps (None = not yet at tau / horizon), and the log ratios at tau."""

    tau: int | None
    censored: bool
    decision: int | None
    rho: tuple
    log_ratios_at_tau: tuple


def _passages(inc, logc, chunks, runs: int):
    """First passages ``rho`` (m, runs) of log R^i over ``logc[i]``, 0 while
    none, and the log ratios at the last step read.  ``chunks`` gives
    ``(n0, ys)`` per chunk of steps, step-major: ``ys[j, r]`` is the symbol
    index of step ``n0 + j`` of run ``r``.  A run that has m - 1 passages,
    i.e. has stopped, leaves the live set after its chunk, and reading stops
    once no run is live.

    A chunk works on the live runs alone.  Their log ratios are added to the
    chunk's first step and cumulated down the steps, one add per step in the
    order of a step-by-step walk, so every log ratio has its bits; a
    hypothesis with no passage yet takes its first crossing in the chunk."""
    m = len(logc)
    rho = np.zeros((m, runs), dtype=np.int64)
    log_r = np.zeros((m, runs))
    live, r, carry = np.arange(runs), rho.copy(), log_r.copy()  # r, carry: live runs
    for n0, ys in chunks:
        # one chunk is held at a time: each array is freed before the next
        # is made, and before the next chunk is drawn
        ys = ys.take(live, axis=1)
        cums = np.take(inc, ys, axis=1)  # (m, steps, live)
        del ys
        cums[:, 0] += carry
        for j in range(1, cums.shape[1]):  # np.cumsum down an inner axis was ~10x slower
            cums[:, j] += cums[:, j - 1]
        carry = cums[:, -1].copy()
        h, k = np.nonzero((cums.max(axis=1) >= logc[:, None]) & (r == 0))
        if h.size:
            r[h, k] = n0 + np.argmax(cums[h, :, k] >= logc[h, None], axis=1)
            stop = np.count_nonzero(r, axis=0) >= m - 1
            if stop.any():
                rho[:, live[stop]], log_r[:, live[stop]] = r[:, stop], carry[:, stop]
                live, r, carry = live[~stop], r[:, ~stop], carry[:, ~stop]
                if not live.size:
                    break
        del cums
    rho[:, live], log_r[:, live] = r, carry
    return rho, log_r


def _decide(rho):
    """``(tau, decision)`` per run from its first passages: tau is the (m-1)-th
    smallest passage and the decision the hypothesis whose passage is largest,
    a pending one counting as +inf, ties to the smaller index; both are -1 for
    a run that has not stopped.  Only the largest passage can come after tau,
    so it decides as it would while pending."""
    key = np.where(rho > 0, rho, np.inf)
    tau = np.sort(key, axis=0)[len(rho) - 2]
    stopped = tau < np.inf
    decision = np.argmax(key, axis=0)
    return np.where(stopped, tau, -1).astype(np.int64), np.where(stopped, decision, -1)


def run_test(hyp: HypothesisSet, levels, stream, horizon: int) -> DecisionRecord:
    """Consume observations until the test stops (reading none after tau) or
    the horizon or the stream ends, which returns a censored record with the
    partial rho.  The log ratios are those at the last observation read."""
    _rng.check_size("horizon", horizon)
    logc = _log_levels(levels, hyp.m)
    obs = enumerate(islice(stream, horizon), 1)
    chunks = ((n, np.array([[hyp.index_of(y)]])) for n, y in obs)  # one observation each
    rho, log_r = _passages(hyp._increments, logc, chunks, 1)
    (tau,), (decision,) = _decide(rho)
    tau, decision = (int(tau), int(decision)) if tau >= 0 else (None, None)
    rho = tuple(int(r) if r else None for r in rho[:, 0])
    return DecisionRecord(tau, tau is None, decision, rho, tuple(float(s) for s in log_r[:, 0]))


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
) -> BatchRuns:
    """Replicated Wald runs under P_true; one substream per replicate block.

    A block is read in chunks of 8 steps, each one ``sample_indices`` call
    of 8 steps of every run laid out step-major (``rng.step_major``), the
    draws of one call per step.  Every run's symbol is drawn, so results do
    not depend on which runs have already stopped; only the runs that are
    still live are worked on, and no chunk of a block is read once all of
    its runs have stopped."""
    hyp.check_index(true_index)
    _rng.check_size("the replicate count", reps)
    _rng.check_size("horizon", horizon)
    logc = _log_levels(levels, hyp.m)
    draw = lambda gen, n: hyp.sample_indices(gen, true_index, n)
    tau = np.full(reps, -1, dtype=np.int64)
    decision = np.full(reps, -1, dtype=np.int64)
    # Block by block, not by ``rng.paths``: ``_passages`` stops reading a
    # block once all its runs have stopped; ``paths`` would keep drawing.
    for start, size, gen in _rng.blocks(reps, seed, _rng.STREAM_SPRT, 0):
        chunks = _rng.step_major(draw, size, gen, horizon, _CHUNK)
        rho, _ = _passages(hyp._increments, logc, chunks, size)
        tau[start : start + size], decision[start : start + size] = _decide(rho)
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


def estimate_G_moment(
    hyp: HypothesisSet,
    levels,
    true_index: int,
    g: ModerateFunction,
    reps: int,
    horizon: int,
    seed: int = 0,
) -> GMomentEstimate:
    """Monte Carlo E_true[G(tau)] over non-censored runs, with its standard
    error and the censor rate; NaN when every run censors."""
    runs = simulate_runs(hyp, levels, true_index, reps, horizon, seed)
    alive = ~runs.censored
    censor_rate = 1.0 - float(alive.mean())
    if not alive.any():
        return GMomentEstimate(math.nan, math.nan, 1.0)
    vals = g.eval(runs.tau[alive].astype(float))
    mean = math.fsum(vals) / len(vals)
    se = float(np.std(vals)) / math.sqrt(len(vals))
    return GMomentEstimate(mean, se, censor_rate)


def _peaks(hyp: HypothesisSet, i: int, reps: int, horizon: int, seed: int) -> np.ndarray:
    """Each path's sup_{n <= horizon} log R^i_n under P_i, read-only.  The
    latest walk is kept per hypothesis index, so calls that differ only in
    the level reuse it.

    ``rng.paths`` draws each 1024-step chunk in tiles of about ``rng.PIECE``
    draws, so the walk holds one tile's uniforms, indices and increments
    instead of three chunk-sized arrays, plus a peak and a carry per path.
    The tiles take the draws of the whole chunk, and every later step works
    one path at a time, so the peaks have the bits of a whole-chunk walk."""
    key = (reps, horizon, seed)
    held = hyp._peak_memo.get(i)
    if held is not None and held[0] == key:
        return held[1]
    inc_i = hyp._increments[i]
    draw = lambda gen, n: inc_i[hyp.sample_indices(gen, i, n)]
    peaks, carry = np.full(reps, -np.inf), np.zeros(reps)
    tile = max(1, _rng.PIECE // min(1024, horizon))  # paths per draw
    walk = _rng.paths(draw, reps, horizon, seed, _rng.STREAM_SPRT_REJECT, chunk=1024, rows=tile)
    for paths, _n0, incs in walk:
        # The carry is added after the max, and gives the same bits as
        # adding it to every partial sum first: the increments under P_i
        # are finite and x -> fl(x + carry) is monotone under
        # round-to-nearest, so max_j fl(c_j + carry) == fl(max_j c_j + carry).
        # Keeping the peak over chunks instead of OR-ing each chunk's
        # crossing gives the same bits as well: v_k >= t for some k is
        # max_k v_k >= t, and finite increments leave no NaN to tell them apart.
        cums = np.cumsum(incs, axis=1, out=incs)
        p, c = peaks[paths], carry[paths]
        np.maximum(p, cums.max(axis=1) + c, out=p)
        c += cums[:, -1]
    peaks.flags.writeable = False
    hyp._peak_memo[i] = (key, peaks)
    return peaks


def rejection_rate(
    hyp: HypothesisSet,
    c_i: float,
    i: int,
    reps: int,
    horizon: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Empirical P_i[rho_i <= horizon]: the chance the mean-one ratio R^i
    ever reaches c_i under its own law, which Ville's inequality caps at 1/c_i.

    The walk does not depend on c_i: each path's peak of log R^i is kept
    per hypothesis index (the latest reps, horizon and seed), so a sweep of
    levels on one seed costs one walk."""
    hyp.check_index(i)
    if not c_i > 1.0:
        raise ConfigurationError("the level must exceed 1")
    _rng.check_size("the replicate count", reps)
    _rng.check_size("horizon", horizon)
    p = int(np.count_nonzero(_peaks(hyp, i, reps, horizon, seed) >= math.log(c_i))) / reps
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
    if not targets:
        raise ConfigurationError("the sweep needs at least one target error")
    if any(not (0 < a < 1 and math.isfinite(1.0 / a)) for a in targets):
        raise ConfigurationError("target errors must lie in (0, 1), with a finite c = 1/a")
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
