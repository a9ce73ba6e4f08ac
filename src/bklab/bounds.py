"""Two-sided numeric audits of the effective bounds linking the moment
functional E[|X| G(|X|)], the deviation series, and the last-exit moment,
plus the symmetrization transfer and the exact combinatorics used by the
truncated-moment expansion.

Each audit computes its left and right side with Monte Carlo confidence
accounting.  LHS and RHS estimators always run on independent substreams;
holds_within counts the standard errors by which the inequality holds
(negative when violated), capped when a side is deterministic.

The series-based audits compare against a *partial sum*, which underestimates
the full series: for the last-exit bound this makes "holds" the strict,
meaningful direction, and a failure there is definitive evidence against
implementation correctness while success stays evidence-grade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import rng as _rng
from .distributions import (
    Distribution,
    abs_mean,
    moment_xg,
    symmetrize,
    truncation_threshold,
)
from .errors import ConditionViolationError, DomainError, PreconditionError
from .functions import P_MAX, GridSpec, ModerateFunction, check_tail_condition, h_scaling_constant
from .lastexit import (
    DeviationProfile,
    PathConfig,
    check_centered,
    deviation_profile,
    estimate_EG_lastexit,
    estimate_series,
)
from .report import FINITE

HOLDS_CAP = 1e6

H_GRID = GridSpec(1.0, 1e4, 25)


@dataclass(frozen=True)
class BoundReport:
    """One inequality audit: lhs <= rhs with standard errors per side."""

    name: str
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    seed: int
    details: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def combined_se(self) -> float:
        return math.hypot(self.lhs_se, self.rhs_se)

    @property
    def holds_within(self) -> float:
        se = self.combined_se
        if se == 0.0:
            return HOLDS_CAP if self.slack >= 0 else -HOLDS_CAP
        return float(np.clip(self.slack / se, -HOLDS_CAP, HOLDS_CAP))

    @property
    def passed(self) -> bool:
        return self.holds_within >= -4.0


def _require_doubling(g: ModerateFunction) -> float:
    if g.claimed_doubling is None:
        raise PreconditionError(
            f"{g.spec_string()} carries no global doubling constant; "
            "the bound needs G(2t) <= c G(t) for every t"
        )
    return g.claimed_doubling


def prop1_check(
    dist: Distribution,
    g: ModerateFunction,
    alpha: float = 0.5,
    cfg: PathConfig | None = None,
    *,
    eg_batch=None,
) -> BoundReport:
    """Audit E[|X| G(|X|)] <= 4 c^2 { t G(t) + alpha^-1 E[G(L_1/2)] } with t
    the truncation threshold for alpha and c the doubling constant of G."""
    cfg = cfg or PathConfig(horizon=2**14, replicates=10_000, seed=0)
    c = _require_doubling(g)
    lhs_est = moment_xg(dist, g)
    if lhs_est.verdict.kind != FINITE:
        raise PreconditionError(f"E[|X| G(|X|)] diverges for {dist.spec_string()}")
    t = truncation_threshold(dist, alpha)
    eg = estimate_EG_lastexit(dist, g, 0.5, cfg, batch=eg_batch, stream=11)
    rhs = 4.0 * c * c * (t * g.eval(t) + eg.mean / alpha)
    rhs_se = 4.0 * c * c * eg.se / alpha
    return BoundReport(
        name="prop1",
        lhs=lhs_est.value,
        lhs_se=lhs_est.se,
        rhs=rhs,
        rhs_se=rhs_se,
        seed=cfg.seed,
        details={
            "dist": dist.spec_string(),
            "g": g.spec_string(),
            "alpha": alpha,
            "t": t,
            "c": c,
            "eg_mean": eg.mean,
            "censor_rate": eg.censor_rate,
            "degraded_confidence": eg.horizon_warning,
        },
    )


def default_p(g: ModerateFunction) -> int:
    """Smallest integer p >= 1 passing the numeric tail-integrability test."""
    try:
        check_tail_condition(g, 1)  # a failure reports the smallest p that passes
        return 1
    except ConditionViolationError as err:
        if err.smallest_admissible_p is None:
            raise PreconditionError(
                f"no p <= {P_MAX} makes G(t)/t^(p+1) integrable for {g.spec_string()}"
            ) from None
        return err.smallest_admissible_p


def prop2_check(
    dist: Distribution,
    g: ModerateFunction,
    p: int | None = None,
    *,
    n_max: int = 2**14,
    reps_per_block: int = 10_000,
    seed: int = 0,
    profile: DeviationProfile | None = None,
) -> BoundReport:
    """Audit S(X, G, 1) <= E[|X| G(|X|)] + 2^-p (2p)! E[1+|X|]^(p-1) E[|X| H(|X|)]
    for a symmetric law, with H = c_H G scaled so H dominates the tail-sum
    majorant.  The LHS is the series partial sum, a lower bound of the series."""
    if not dist.symmetric:
        raise PreconditionError("the series bound needs a symmetric law")
    if p is None:
        p = default_p(g)
    check_tail_condition(g, p)
    c_h = h_scaling_constant(g, p, H_GRID)
    m_xg = moment_xg(dist, g)
    if m_xg.verdict.kind != FINITE:
        raise PreconditionError(f"E[|X| G(|X|)] diverges for {dist.spec_string()}")
    m_abs = abs_mean(dist)
    # Exact integer factorial, converted to float only in the final assembly.
    factor = float(math.factorial(2 * p)) / 2.0**p
    k_p = m_xg.value + factor * (1.0 + m_abs.value) ** (p - 1) * (c_h * m_xg.value)
    series = estimate_series(
        dist, g, 1.0, n_max, reps_per_block, seed=_rng.derive_seed(seed, 21), profile=profile
    )
    return BoundReport(
        name="prop2",
        lhs=series.partial_sum,
        lhs_se=series.se,
        rhs=k_p,
        rhs_se=0.0,
        seed=seed,
        details={
            "dist": dist.spec_string(),
            "g": g.spec_string(),
            "p": p,
            "h_scale": c_h,
            "moment_xg": m_xg.value,
            "abs_mean": m_abs.value,
            "series_verdict": series.verdict,
        },
    )


def prop3_check(
    dist: Distribution,
    g: ModerateFunction,
    cfg: PathConfig | None = None,
    *,
    n_max: int = 2**14,
    reps_per_block: int = 10_000,
    eg_batch=None,
    profile: DeviationProfile | None = None,
) -> BoundReport:
    """Audit E[G(L_1)] <= G(0) + 12 S(X, G, 1/8) for a symmetric law.

    The RHS series is a partial sum and so an underestimate: lhs <= rhs is
    the strict direction of this audit and is recorded as such.
    """
    if not dist.symmetric:
        raise PreconditionError("the last-exit bound needs a symmetric law")
    cfg = cfg or PathConfig(horizon=2**14, replicates=10_000, seed=0)
    eg = estimate_EG_lastexit(dist, g, 1.0, cfg, batch=eg_batch, stream=31)
    series = estimate_series(
        dist,
        g,
        1.0 / 8.0,
        n_max,
        reps_per_block,
        seed=_rng.derive_seed(cfg.seed, 32),
        profile=profile,
    )
    rhs = g.eval(0.0) + 12.0 * series.partial_sum
    return BoundReport(
        name="prop3",
        lhs=eg.mean,
        lhs_se=eg.se,
        rhs=rhs,
        rhs_se=12.0 * series.se,
        seed=cfg.seed,
        details={
            "dist": dist.spec_string(),
            "g": g.spec_string(),
            "censor_rate": eg.censor_rate,
            "degraded_confidence": eg.horizon_warning,
            "series_verdict": series.verdict,
            "rhs_is_partial_sum_underestimate": True,
        },
    )


def sym_transfer_check(
    dist: Distribution,
    g: ModerateFunction,
    cfg: PathConfig | None = None,
    *,
    a: float = 1.0,
) -> list[BoundReport]:
    """Audit the symmetrization transfers on independent substreams:

    (i)   E[|X*| G(|X*|)] <= 4c E[|X| G(|X|)]
    (ii)  E[G(L*_{2a})]  <= 2 E[G(L_a)]
    (iii) P[|U_n| >= a] <= 2 P[|U*_n| >= a/2] <= 4 P[|U_n| >= a/4] at dyadic n,
          asserted from the first checkpoint n0 where the empirical median of
          U_n sits below a/4.

    Every side measures deviations from 0, the center of X* = X - X', so the
    law must be centered and ``cfg.center`` must be 0.
    """
    cfg = cfg or PathConfig(horizon=2**12, replicates=10_000, seed=0)
    if cfg.center != 0.0:
        raise DomainError(
            f"the symmetrization transfer measures deviations from 0, got center {cfg.center!r}"
        )
    check_centered(dist)
    c = _require_doubling(g)
    star = symmetrize(dist)
    seed = cfg.seed
    reports: list[BoundReport] = []

    m_star = moment_xg(star, g, seed=_rng.derive_seed(seed, 41))
    m_plain = moment_xg(dist, g, seed=_rng.derive_seed(seed, 42))
    m_doubled = moment_xg(dist, g, arg_scale=2.0) if dist.atoms() is not None else None
    reports.append(
        BoundReport(
            name="sym-moment",
            lhs=m_star.value,
            lhs_se=m_star.se,
            rhs=4.0 * c * m_plain.value,
            rhs_se=4.0 * c * m_plain.se,
            seed=seed,
            details={
                "dist": dist.spec_string(),
                "g": g.spec_string(),
                "c": c,
                "middle_4_E_xg2x": None if m_doubled is None else 4.0 * m_doubled.value,
            },
        )
    )

    cfg_star = PathConfig(cfg.horizon, cfg.replicates, _rng.derive_seed(seed, 43))
    cfg_plain = PathConfig(cfg.horizon, cfg.replicates, _rng.derive_seed(seed, 44))
    eg_star = estimate_EG_lastexit(star, g, 2.0 * a, cfg_star, stream=45)
    eg_plain = estimate_EG_lastexit(dist, g, a, cfg_plain, stream=46)
    reports.append(
        BoundReport(
            name="sym-lastexit",
            lhs=eg_star.mean,
            lhs_se=eg_star.se,
            rhs=2.0 * eg_plain.mean,
            rhs_se=2.0 * eg_plain.se,
            seed=seed,
            details={
                "dist": dist.spec_string(),
                "g": g.spec_string(),
                "a": a,
                "censor_rates": [eg_star.censor_rate, eg_plain.censor_rate],
            },
        )
    )

    prof_plain = deviation_profile(
        dist, cfg.horizon, cfg.replicates, _rng.derive_seed(seed, 47), stream=48
    )
    prof_star = deviation_profile(
        star, cfg.horizon, cfg.replicates, _rng.derive_seed(seed, 49), stream=50
    )
    eps = prof_plain.endpoints
    reps = prof_plain.reps
    med_per_n = np.abs(np.median(prof_plain.endpoint_values, axis=0))
    n0 = None
    for k, n in enumerate(eps):
        if med_per_n[k] < a / 4.0:
            n0 = int(n)
            start_k = k
            break
    if n0 is not None:
        se = 1.0 / math.sqrt(reps)
        for k in range(start_k, len(eps)):
            p1 = float(np.mean(np.abs(prof_plain.endpoint_values[:, k]) >= a))
            p2 = float(np.mean(np.abs(prof_star.endpoint_values[:, k]) >= a / 2.0))
            p3 = float(np.mean(np.abs(prof_plain.endpoint_values[:, k]) >= a / 4.0))
            reports.append(
                BoundReport(
                    name=f"sym-deviation-lower:n={int(eps[k])}",
                    lhs=p1,
                    lhs_se=se,
                    rhs=2.0 * p2,
                    rhs_se=2.0 * se,
                    seed=seed,
                    details={"n0": n0},
                )
            )
            reports.append(
                BoundReport(
                    name=f"sym-deviation-upper:n={int(eps[k])}",
                    lhs=2.0 * p2,
                    lhs_se=2.0 * se,
                    rhs=4.0 * p3,
                    rhs_se=4.0 * se,
                    seed=seed,
                    details={"n0": n0},
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Exact combinatorics
# ---------------------------------------------------------------------------


def enumerate_compositions(p: int, q: int):
    """All integer sequences of length q, entries >= 1, summing to p; none
    when p or q is 0, or q > p."""
    _rng.check_size("p", p, 0)
    _rng.check_size("q", q, 0)
    if q < 1 or p < 1:
        return iter(())
    return (
        tuple(hi - lo for lo, hi in zip((0, *cuts), (*cuts, p)))
        for cuts in combinations(range(1, p), q - 1)
    )


def count_compositions(p: int, q: int) -> int:
    """Number of length-q positive integer sequences with sum p: C(p-1, q-1).

    q > p returns 0 (empty-set convention).
    """
    _rng.check_size("p", p)
    _rng.check_size("q", q)
    if p > 40 or q > 40:
        raise DomainError("need 1 <= q, p <= 40")
    if q > p:
        return 0
    return math.comb(p - 1, q - 1)


def multinomial(p: int, parts) -> int:
    """Exact multinomial coefficient p! / prod(parts_i!) in big integers."""
    _rng.check_size("p", p, 0)
    parts = tuple(parts)
    for x in parts:
        _rng.check_size("every part", x, 0)
    if sum(parts) != p:
        raise DomainError(f"parts sum to {sum(parts)}, expected {p}")
    out = math.factorial(p)
    for x in parts:
        out //= math.factorial(x)
    return out
