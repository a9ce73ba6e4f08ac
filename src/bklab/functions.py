"""Nondecreasing growth functions and their dominated-variation audits.

A positive nondecreasing unbounded function G is *moderate* when its
doubling ratio G(2t)/G(t) is bounded.  Power and power-log families are
moderate, exponentials are not.  Moderation cannot be decided from finitely
many evaluations, so every numeric verdict here is evidence-grade; the
analytic flags carried by the built-in families are authoritative.

The built-in power family is (1+t)^r rather than t^r so that G(0) = 1 > 0:
several downstream bounds evaluate G at zero and need strict positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import (
    ConditionViolationError,
    DomainError,
    PreconditionError,
    SearchExhaustedError,
)
from .report import DIVERGENT, DOUBLING, FINITE, MODERATION, Verdict

P_MAX = 12  # largest exponent p that the tail-integrability scans try
_H_REL_TOL = 1e-9  # h_majorant stops summing below this share of the total
_SEARCH_RATIO = 1.01  # step of the counterexample search grid


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid on [t_min, t_max] with linear or geometric spacing."""

    t_min: float
    t_max: float
    points: int = 201
    spacing: str = "geometric"

    def __post_init__(self):
        for name, t in (("t_min", self.t_min), ("t_max", self.t_max)):
            if not math.isfinite(t):
                raise DomainError(f"{name} must be finite, got {t!r}")
        if not (self.t_min < self.t_max):
            raise DomainError(f"t_min must be < t_max, got {self.t_min} >= {self.t_max}")
        if self.points < 2:
            raise DomainError("a grid needs at least 2 points")
        if self.spacing not in ("linear", "geometric"):
            raise DomainError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "geometric" and self.t_min <= 0:
            raise DomainError("geometric spacing requires t_min > 0")
        if self.t_min < 0:
            raise DomainError("t_min must be nonnegative")

    def values(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.linspace(self.t_min, self.t_max, self.points)
        return np.geomspace(self.t_min, self.t_max, self.points)


@dataclass(frozen=True, eq=False)
class ModerateFunction:
    """An evaluable growth function with its analytic metadata.

    ``claimed_doubling`` is a constant c with G(2t) <= c*G(t) for all t >= 0,
    when one is known; ``claimed_moderate`` and ``unbounded`` are analytic
    flags for the family.  ``_log_fn`` evaluates log G without overflow and
    is what all moderation audits use internally.
    """

    name: str
    params: dict = field(default_factory=dict)
    _fn: Callable = None
    _log_fn: Callable = None
    claimed_doubling: float | None = None
    claimed_moderate: bool = False
    unbounded: bool = True

    def eval(self, t):
        """G(t) for scalar or array t >= 0; exact for the built-in families."""
        arr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{self.name}: non-finite argument")
        if np.any(arr < 0):
            raise DomainError(f"{self.name}: negative argument")
        out = self._fn(arr)
        if arr.ndim == 0:
            return float(out)
        return out

    def log_eval(self, t):
        """log G(t), overflow-safe for the built-in families."""
        arr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise DomainError(f"{self.name}: argument outside [0, inf)")
        if self._log_fn is not None:
            out = self._log_fn(arr)
        else:
            with np.errstate(divide="ignore"):
                out = np.log(self._fn(arr))
        if arr.ndim == 0:
            return float(out)
        return out

    __call__ = eval

    def spec_string(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}:{inner}"

    def __repr__(self):
        return f"ModerateFunction({self.spec_string()!r})"


def power(r: float) -> ModerateFunction:
    """G(t) = (1+t)^r.  Moderate with doubling constant exactly 2^r."""
    if r < 0:
        raise DomainError("power family needs r >= 0 to be nondecreasing")
    return ModerateFunction(
        name="power",
        params={"r": float(r)},
        _fn=lambda t: (1.0 + t) ** r,
        _log_fn=lambda t: r * np.log1p(t),
        claimed_doubling=2.0**r,
        claimed_moderate=True,
        unbounded=r > 0,
    )


def powlog(r: float, s: float) -> ModerateFunction:
    """G(t) = (1+t)^r * log(e+t)^s.  Moderate for r, s >= 0."""
    if r < 0 or s < 0:
        raise DomainError("powlog family needs r, s >= 0 to be nondecreasing")
    return ModerateFunction(
        name="powlog",
        params={"r": float(r), "s": float(s)},
        _fn=lambda t: (1.0 + t) ** r * np.log(math.e + t) ** s,
        _log_fn=lambda t: r * np.log1p(t) + s * np.log(np.log(math.e + t)),
        # log(e+2t) <= log 2 + log(e+t) and log(e+t) >= 1 give the log factor.
        claimed_doubling=2.0**r * (1.0 + math.log(2.0)) ** s,
        claimed_moderate=True,
        unbounded=(r > 0 or s > 0),
    )


def exponential(b: float) -> ModerateFunction:
    """G(t) = exp(b*t) with b > 0.  Not moderate: the doubling ratio is exp(b*t)."""
    if b <= 0:
        raise DomainError("exp family needs b > 0")
    return ModerateFunction(
        name="exp",
        params={"b": float(b)},
        _fn=lambda t: np.exp(b * t),
        _log_fn=lambda t: b * t,
        claimed_doubling=None,
        claimed_moderate=False,
        unbounded=True,
    )


def custom(
    name: str,
    fn: Callable,
    *,
    log_fn: Callable | None = None,
    claimed_doubling: float | None = None,
    claimed_moderate: bool = False,
    unbounded: bool = True,
) -> ModerateFunction:
    """Wrap a user-supplied nondecreasing function; flags are the caller's claim."""
    return ModerateFunction(
        name=name,
        params={},
        _fn=fn,
        _log_fn=log_fn,
        claimed_doubling=claimed_doubling,
        claimed_moderate=claimed_moderate,
        unbounded=unbounded,
    )


def parse_function_spec(text: str) -> ModerateFunction:
    """Build a function from a CLI spec like ``power:r=2`` or ``exp:b=0.5``."""
    head, _, rest = text.strip().partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            if not _:
                raise DomainError(f"bad function spec item {item!r}")
            kwargs[k.strip()] = float(v)
    try:
        if head == "power":
            return power(kwargs.get("r", 1.0))
        if head == "powlog":
            return powlog(kwargs.get("r", 1.0), kwargs.get("s", 1.0))
        if head == "exp":
            return exponential(kwargs.get("b", 1.0))
        if head == "const":
            return power(0.0)
    except TypeError as exc:
        raise DomainError(f"bad parameters for {head!r}: {exc}") from exc
    raise DomainError(f"unknown function family {head!r}")


DEFAULT_AUDIT_GRID = GridSpec(1e-2, 1e6, 321, "geometric")


def audit_function(g: ModerateFunction, grid: GridSpec | None = None) -> dict:
    """Check the basic invariants of G on a grid: positivity, monotonicity,
    growth to infinity (when claimed), and the claimed doubling constant."""
    grid = grid or DEFAULT_AUDIT_GRID
    ts = grid.values()
    vals = g.eval(ts)
    report = {
        "name": g.spec_string(),
        "positive": bool(np.all(vals > 0)) and g.eval(0.0) > 0,
        "nondecreasing": bool(np.all(np.diff(vals) >= -1e-12 * np.abs(vals[:-1]))),
    }
    if g.unbounded:
        # On a diverging grid the log of G must keep climbing.
        lg = g.log_eval(ts)
        report["diverges"] = bool(lg[-1] > lg[0] + 1.0) or bool(lg[-1] > 50)
    else:
        report["diverges"] = False
    if g.claimed_moderate and g.claimed_doubling is not None:
        lr = g.log_eval(2.0 * ts) - g.log_eval(ts)
        report["doubling_ok"] = bool(np.all(lr <= math.log(g.claimed_doubling) + 1e-9))
    else:
        report["doubling_ok"] = None
    return report


@dataclass(frozen=True)
class DoublingReport:
    grid_max: float
    log_grid_max: float
    analytic_sup: float | None
    verdict: Verdict


def _decade_log_ratios(g: ModerateFunction, ts: np.ndarray) -> np.ndarray:
    """Max of log[G(2t)/G(t)] per decade of t, for decades present in ts."""
    lr = g.log_eval(2.0 * ts) - g.log_eval(ts)
    decades = np.floor(np.log10(ts)).astype(int)
    out = []
    for d in np.unique(decades):
        out.append(lr[decades == d].max())
    return np.asarray(out)


def doubling_ratio_sup(
    g: ModerateFunction,
    grid: GridSpec | None = None,
    growth_threshold: float = 1.5,
) -> DoublingReport:
    """Grid maximum of G(2t)/G(t), plus the exact supremum 2^r for the power
    family.  The verdict flags unbounded growth when the per-decade maximum
    of the ratio still increases by >= growth_threshold at the end of the grid."""
    if not 1 < growth_threshold < math.inf:  # also rejects NaN
        raise DomainError(f"growth_threshold must exceed 1 and be finite, got {growth_threshold!r}")
    grid = grid or DEFAULT_AUDIT_GRID
    ts = grid.values()
    ts = ts[ts > 0]
    if ts.size < 2:
        raise DomainError("doubling audit needs positive grid points")
    lr = g.log_eval(2.0 * ts) - g.log_eval(ts)
    log_max = float(lr.max())
    grid_max = math.exp(log_max) if log_max < 700 else math.inf

    per_decade = _decade_log_ratios(g, ts)
    if per_decade.size >= 2:
        growing = per_decade[-1] - per_decade[-2] >= math.log(growth_threshold)
    else:
        growing = lr[-1] - lr[0] >= math.log(growth_threshold)
    verdict = DOUBLING[DIVERGENT if growing else FINITE]

    analytic = None
    if g.name == "power":
        analytic = 2.0 ** g.params["r"]
    elif g.name == "exp":
        analytic = math.inf
    return DoublingReport(grid_max, log_max, analytic, verdict)


def is_moderate_numeric(
    g: ModerateFunction,
    grid: GridSpec | None = None,
    growth_threshold: float = 1.5,
) -> Verdict:
    """Evidence verdict on moderation from the trend of the doubling ratio
    across grid decades.  Numerical evidence only, never a proof."""
    return MODERATION[doubling_ratio_sup(g, grid, growth_threshold).verdict.kind]


_TAIL_OCTAVES = 26
_TAIL_MARGIN = -1e-3  # per-octave decrease required of log[G(k) k^-p]


def _tail_condition_holds(g: ModerateFunction, p: int, start: float = 64.0) -> bool:
    """Numeric ratio test for the integrability of G(t)/t^(p+1) on (1, inf).

    Works on v(k) = log G(k) - p log k over octaves k = start * 2^j: the tail
    sum behaves like sum_j exp(v(2^j)), so v must decrease at a definite rate.
    """
    ks = start * 2.0 ** np.arange(_TAIL_OCTAVES)
    with np.errstate(over="ignore"):
        v = g.log_eval(ks) - p * np.log(ks)
    diffs = np.diff(v)
    tail = diffs[len(diffs) // 2 :]
    return bool(np.all(tail <= _TAIL_MARGIN))


def check_tail_condition(g: ModerateFunction, p: int) -> None:
    """Raise ConditionViolationError when G(t)/t^(p+1) fails the numeric
    integrability test, reporting the smallest exponent that would pass."""
    if p < 1 or p != int(p):
        raise DomainError("p must be a positive integer")
    if _tail_condition_holds(g, int(p)):
        return
    smallest = None
    for q in range(int(p) + 1, P_MAX + 1):
        if _tail_condition_holds(g, q):
            smallest = q
            break
    raise ConditionViolationError(
        f"G(t)/t^{p + 1} is not integrable on (1,+inf) for {g.spec_string()}: "
        f"the tail sum of G(k) k^-({p + 1}) shows no decay"
        + (f"; smallest admissible p is {smallest}" if smallest else ""),
        smallest_admissible_p=smallest,
    )


def h_majorant(g: ModerateFunction, p: int, n: int) -> float:
    """n^p * sum_{k>=n} G(k) k^-(p+1) by direct summation plus an integral
    bracket on the remainder of the (decreasing) summand."""
    if n < 1 or n != int(n):
        raise DomainError("n must be a positive integer")
    n = int(n)
    check_tail_condition(g, p)

    def summand(x):
        # log-safe: G(x) and x^(p+1) can separately overflow long before
        # their ratio does.
        return np.exp(g.log_eval(x) - (p + 1) * np.log(np.asarray(x, dtype=float)))

    total = 0.0
    lo = n
    hi = max(2 * n, n + 1024)
    while True:
        ks = np.arange(lo, hi, dtype=float)
        total += float(np.sum(summand(ks)))
        g_hi = float(summand(float(hi)))
        if g_hi <= 2.0 * _H_REL_TOL * total and hi >= 4 * n:
            break
        lo, hi = hi, 2 * hi
        if hi > 1 << 40:  # decay was validated, this should be unreachable
            raise PreconditionError("h_majorant summation failed to converge")
    # Remainder R = sum_{k >= hi} of a decreasing summand satisfies
    # I <= R <= I + g(hi) with I the integral from hi to infinity, computed
    # on a finite interval via x = hi/u (quad is unreliable on far tails).
    K = float(hi)
    integral, _ = quad(lambda u: K * float(summand(K / u)) / (u * u), 0.0, 1.0, limit=200)
    total += integral + 0.5 * g_hi
    return float(n) ** p * total


def h_scaling_constant(g: ModerateFunction, p: int, grid: GridSpec) -> float:
    """max over grid n of h_majorant(G, p, n) / G(n); with this constant c,
    H = c*G dominates the tail-sum majorant on the whole grid."""
    ns = np.unique(np.clip(np.round(grid.values()), 1, None).astype(np.int64))
    best = 0.0
    for n in ns:
        best = max(best, h_majorant(g, p, int(n)) / g.eval(float(n)))
    return best


def counterexample_sequence(
    g: ModerateFunction,
    count: int,
    search_limit: float,
    *,
    t_start: float = 1e-3,
) -> np.ndarray:
    """Strictly increasing t_1 < ... < t_count with G(2 t_n) >= n G(t_n),
    each t_n minimal on the geometric search grid subject to strict increase.

    Intended for non-moderate G; for a moderate G the search fails at some n
    and raises SearchExhaustedError carrying the last index achieved.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if search_limit <= t_start:
        raise DomainError("search_limit must exceed t_start")
    npts = int(math.ceil(math.log(search_limit / t_start) / math.log(_SEARCH_RATIO))) + 1
    if npts > 50_000_000:
        raise DomainError("search grid too fine for the given limit")
    ts_grid = t_start * _SEARCH_RATIO ** np.arange(npts)
    ts_grid = ts_grid[ts_grid <= search_limit]
    with np.errstate(over="ignore"):
        lr = g.log_eval(2.0 * ts_grid) - g.log_eval(ts_grid)

    out = np.empty(count)
    idx = 0
    for n in range(1, count + 1):
        need = math.log(n)
        hits = np.nonzero(lr[idx:] >= need)[0]
        if hits.size == 0:
            raise SearchExhaustedError(
                f"no t with G(2t) >= {n} G(t) up to {search_limit:g} "
                f"(evidence that {g.spec_string()} is moderate on this range)",
                achieved=n - 1,
                partial=out[: n - 1].copy(),
            )
        j = idx + int(hits[0])
        out[n - 1] = ts_grid[j]
        idx = j + 1
    return out


def doubling_witness_exp(b: float, count: int) -> np.ndarray:
    """t_n = log(n+1)/b, the natural witness sequence for G(t) = exp(b t):
    G(2 t_n)/G(t_n) = n+1 >= n, strictly increasing, and t_1 > 0.

    Tracks log n instead of walking the generic geometric grid, which cannot
    resolve the ~1/n spacing the sequence needs once n is large.
    """
    if b <= 0 or count < 1:
        raise DomainError("need b > 0 and count >= 1")
    return np.log(np.arange(1, count + 1, dtype=float) + 1.0) / b
