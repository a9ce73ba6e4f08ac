"""Nondecreasing growth functions and their dominated-variation audits.

A positive nondecreasing unbounded function G is *moderate* when its
doubling ratio G(2t)/G(t) is bounded.  Power and power-log families are
moderate, exponentials are not.  Moderation cannot be decided from finitely
many evaluations, so every numeric verdict here is evidence-grade; the
doubling constant carried by a built-in family is authoritative.

The built-in power family is (1+t)^r rather than t^r so that G(0) = 1 > 0:
several downstream bounds evaluate G at zero and need strict positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConditionViolationError, DomainError, PreconditionError
from .quadrature import doubling_edges, geometric_tail, panel_integrals
from .report import DIVERGENT, DOUBLING, FINITE, Verdict
from .rng import check_size

P_MAX = 12  # largest exponent p that the tail-integrability scans try
_H_REL_TOL = 1e-9  # h_majorant's bound on its remainder error, as a share of the sum


def spec_number(x: float) -> str:
    """``x`` for a spec string: short ``:g`` form when it reads back as
    ``x``, else the shortest form that does."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


@dataclass(frozen=True)
class GridSpec:
    """Geometric evaluation grid of ``points`` points on [t_min, t_max]."""

    t_min: float
    t_max: float
    points: int = 201

    def __post_init__(self):
        for name, t in (("t_min", self.t_min), ("t_max", self.t_max)):
            if not math.isfinite(t):
                raise DomainError(f"{name} must be finite, got {t!r}")
        if not (self.t_min < self.t_max):
            raise DomainError(f"t_min must be < t_max, got {self.t_min} >= {self.t_max}")
        check_size("points", self.points, 2)
        if self.t_min <= 0:
            raise DomainError("geometric spacing requires t_min > 0")

    def values(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.points)


@dataclass(frozen=True, eq=False)
class ModerateFunction:
    """An evaluable growth function with its analytic metadata.

    ``_fn`` evaluates G and ``_log_fn`` evaluates log G without overflow,
    which is what all moderation audits use.  ``claimed_doubling`` is a
    constant c with G(2t) <= c*G(t) for all t >= 0, when one is known.
    """

    name: str
    params: dict
    _fn: Callable
    _log_fn: Callable
    claimed_doubling: float | None = None

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
        out = self._log_fn(arr)
        if arr.ndim == 0:
            return float(out)
        return out

    __call__ = eval

    def spec_string(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={spec_number(v)}" for k, v in self.params.items())
        return f"{self.name}:{inner}"

    def __repr__(self):
        return f"ModerateFunction({self.spec_string()!r})"


def power(r: float) -> ModerateFunction:
    """G(t) = (1+t)^r.  Moderate with doubling constant exactly 2^r."""
    if not 0 <= r < math.inf:  # NaN passes no comparison
        raise DomainError(f"power family needs a finite r >= 0, got {r!r}")
    return ModerateFunction(
        name="power",
        params={"r": float(r)},
        _fn=lambda t: (1.0 + t) ** r,
        _log_fn=lambda t: r * np.log1p(t),
        claimed_doubling=2.0**r,
    )


def powlog(r: float, s: float) -> ModerateFunction:
    """G(t) = (1+t)^r * log(e+t)^s.  Moderate for r, s >= 0."""
    if not (0 <= r < math.inf and 0 <= s < math.inf):
        raise DomainError(f"powlog family needs finite r, s >= 0, got {r!r} and {s!r}")
    return ModerateFunction(
        name="powlog",
        params={"r": float(r), "s": float(s)},
        _fn=lambda t: (1.0 + t) ** r * np.log(math.e + t) ** s,
        _log_fn=lambda t: r * np.log1p(t) + s * np.log(np.log(math.e + t)),
        # log(e+2t) <= log 2 + log(e+t) and log(e+t) >= 1 give the log factor.
        claimed_doubling=2.0**r * (1.0 + math.log(2.0)) ** s,
    )


def exponential(b: float) -> ModerateFunction:
    """G(t) = exp(b*t) with b > 0.  Not moderate: the doubling ratio is exp(b*t)."""
    if not 0 < b < math.inf:
        raise DomainError(f"exp family needs a finite b > 0, got {b!r}")
    return ModerateFunction(
        name="exp",
        params={"b": float(b)},
        _fn=lambda t: np.exp(b * t),
        _log_fn=lambda t: b * t,
    )


REQUIRED = object()  # a parse_spec default for a key the spec must give


def parse_spec(text: str, families: dict, what: str):
    """Build the object a ``kind:key=value,...`` spec names.

    ``families[kind]`` is ``(build, {key: default})``; ``build`` takes the
    values of the keys in that order.  A given value is read as the type of
    its default (float for a ``REQUIRED`` key).  ``what`` names the kinds in
    messages ("function family").  An unknown kind or key, an item without
    "=", a repeated or missing key, or a value that does not read raises
    DomainError."""
    if not isinstance(text, str):
        raise DomainError(f"a {what.split()[0]} spec must be a string, got {text!r}")
    head, _, rest = text.strip().partition(":")
    if head not in families:
        raise DomainError(f"unknown {what} {head!r}")
    build, defaults = families[head]
    bad = f"bad {what.split()[0]} spec item"
    given = {}
    for item in rest.split(",") if rest else ():
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq:
            raise DomainError(f"{bad} {item!r}, expected key=value")
        if key not in defaults:
            raise DomainError(f"{bad} {item!r}: {head} takes no key {key!r}")
        if key in given:
            raise DomainError(f"{bad} {item!r}: {key} is given twice")
        default = defaults[key]
        read = float if default is REQUIRED else type(default)
        try:
            given[key] = read(value)
        except ValueError:
            raise DomainError(f"{bad} {item!r}: {key} must read as {read.__name__}") from None
    missing = [key for key, default in defaults.items() if default is REQUIRED and key not in given]
    if missing:
        raise DomainError(f"{what} {head!r} needs {', '.join(missing)}, got {text.strip()!r}")
    return build(*(given.get(key, default) for key, default in defaults.items()))


_FAMILIES = {
    "power": (power, {"r": 1.0}),
    "powlog": (powlog, {"r": 1.0, "s": 1.0}),
    "exp": (exponential, {"b": 1.0}),
    "const": (lambda: power(0.0), {}),
}


def parse_function_spec(text: str) -> ModerateFunction:
    """Build a function from a CLI spec like ``power:r=2`` or ``exp:b=0.5``."""
    return parse_spec(text, _FAMILIES, "function family")


DEFAULT_AUDIT_GRID = GridSpec(1e-2, 1e6, 321)


@dataclass(frozen=True)
class DoublingReport:
    grid_max: float
    log_grid_max: float
    analytic_sup: float | None
    verdict: Verdict


def _decade_log_ratios(lr: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Max of the log doubling ratios ``lr`` = log[G(2t)/G(t)] per decade of
    t, for decades present in ts."""
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
    lr = g.log_eval(2.0 * ts) - g.log_eval(ts)
    log_max = float(lr.max())
    grid_max = math.exp(log_max) if log_max < 700 else math.inf

    per_decade = _decade_log_ratios(lr, ts)
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
    check_size("p", p)
    if _tail_condition_holds(g, p):
        return
    smallest = None
    for q in range(p + 1, P_MAX + 1):
        if _tail_condition_holds(g, q):
            smallest = q
            break
    raise ConditionViolationError(
        f"G(t)/t^{p + 1} is not integrable on (1,+inf) for {g.spec_string()}: "
        f"the tail sum of G(k) k^-({p + 1}) shows no decay"
        + (f"; smallest admissible p is {smallest}" if smallest else ""),
        smallest_admissible_p=smallest,
    )


def _log_summand(g: ModerateFunction, p: int, x):
    """log(G(x) x^-(p+1)), the log of the tail-sum summand: G(x) and x^(p+1)
    can separately overflow long before their ratio does."""
    return g.log_eval(x) - (p + 1) * np.log(np.asarray(x, dtype=float))


def h_majorant(g: ModerateFunction, p: int, n: int) -> float:
    """n^p * sum_{k>=n} G(k) k^-(p+1): direct sums over doubling chunks from
    [n, max(2n, n+1024)), then the Euler-Maclaurin remainder at the chunk end.

    For a summand f convex beyond hi, the remainder R = sum_{k>=hi} f(k) and
    I = tail_integral(g, p, hi) satisfy 0 <= R - I - f(hi)/2 <= -f'(hi)/8
    <= (f(hi-1) - f(hi))/8; summing stops once that bound is below
    _H_REL_TOL of the total and hi >= 4n.  The remainder adds the -f'(hi)/12
    end correction as a central difference.  The bound assumes f convex
    beyond hi: power summands are, and powlog ones past x = 1024 for log
    powers s <= 10."""
    check_size("n", n)
    check_tail_condition(g, p)

    total = 0.0
    lo = n
    hi = max(2 * n, n + 1024)
    while True:
        ks = np.arange(lo, hi, dtype=float)
        total += float(np.sum(np.exp(_log_summand(g, p, ks))))
        ends = np.array([hi - 1, hi, hi + 1], dtype=float)
        f_lo, f_hi, f_up = np.exp(_log_summand(g, p, ends)).tolist()
        if (f_lo - f_hi) / 8 <= _H_REL_TOL * total and hi >= 4 * n:
            break
        lo, hi = hi, 2 * hi
        if hi > 1 << 40:  # decay was validated, this should be unreachable
            raise PreconditionError("h_majorant summation failed to converge")
    total += tail_integral(g, p, float(hi)) + 0.5 * f_hi + (f_lo - f_up) / 24
    return float(n) ** p * total


def tail_integral(g: ModerateFunction, p: int, k: float) -> float:
    """Integral of G(x) x^-(p+1) over [k, inf) for k > 0: doubling x-panels
    [k 2^j, k 2^(j+1)] for j < 128, closed by the geometric tail of the last
    two.  G must pass the tail condition for p, so the panels decrease."""
    segs, _ = panel_integrals(lambda x: _log_summand(g, p, x), doubling_edges(k, 2.0 * k, 128))
    segs = segs.tolist()
    return math.fsum(segs) + geometric_tail(segs[-2], segs[-1], max_ratio=1.0)


def h_scaling_constant(g: ModerateFunction, p: int, grid: GridSpec) -> float:
    """max over grid n of h_majorant(G, p, n) / G(n); with this constant c,
    H = c*G dominates the tail-sum majorant on the whole grid."""
    ns = np.unique(np.clip(np.round(grid.values()), 1, None).astype(np.int64))
    best = 0.0
    for n in ns:
        best = max(best, h_majorant(g, p, int(n)) / g.eval(float(n)))
    return best


def doubling_witness_exp(b: float, count: int) -> np.ndarray:
    """t_n = log(n+1)/b, the natural witness sequence for G(t) = exp(b t):
    G(2 t_n)/G(t_n) = n+1 >= n, strictly increasing, and t_1 > 0.

    Only a G that is not moderate has such a sequence; of the built-in
    families that is the exp family alone, and this is its closed form.
    """
    if b <= 0:
        raise DomainError("need b > 0")
    check_size("count", count)
    return np.log(np.arange(1, count + 1, dtype=float) + 1.0) / b
