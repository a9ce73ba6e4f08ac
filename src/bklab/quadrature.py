"""Panel quadrature in numpy: a 30-node Gauss-Legendre rule with an embedded
16-node rule for its error, evaluated on all panels in one vectorised call.

Integrands are given as log f, so that a panel whose integrand spans many
orders of magnitude (a heavy tail, or an exponential G) is summed relative
to its own maximum and overflows only in its final value.  A panel whose
error estimate exceeds ``REL_TOL`` times the sum of all finite panels is
bisected, again in one call per level, until every panel meets it or the
work cap is reached.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-13  # panel error allowed, relative to the sum of the finite panels
_MAX_LEAVES = 4096  # bisection stops before the panel count would pass this

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(30)


def _embedded_weights() -> np.ndarray:
    # Interpolatory weights on the 16 nodes {x_0, x_2, ..., x_14} and their
    # mirror images: exact to degree 15 and positive, zero on the other nodes.
    keep = np.r_[0:15:2, 29:14:-2]
    vander = np.polynomial.legendre.legvander(_NODES[keep], keep.size - 1)
    moments = np.zeros(keep.size)
    moments[0] = 2.0
    out = np.zeros_like(_NODES)
    out[keep] = np.linalg.solve(vander.T, moments)
    return out


# Column 0 gives the 30-node sum, column 1 its difference from the 16-node one.
_RULES = np.column_stack([_WEIGHTS, _WEIGHTS - _embedded_weights()])


def _panels(log_f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    lf = log_f(x)
    top = lf.max(axis=1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.exp(lf - shift[:, None]) @ _RULES
        scale = half * np.exp(shift)
        value = sums[:, 0] * scale
        err = np.where(np.isfinite(value), np.abs(sums[:, 1]) * scale, np.inf)
    return value, err


def panel_integrals(log_f, edges) -> tuple[np.ndarray, np.ndarray]:
    """Integral of exp(log_f) over each panel [edges[i], edges[i+1]], and an
    error estimate per panel.

    ``log_f`` maps an array of points (of any shape) to log f there; -inf is
    a zero of f.  A value that overflows is inf, with error inf.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    owner = np.arange(a.size)
    value, err = _panels(log_f, a, b)
    while True:
        finite = np.isfinite(value)
        split = finite & (err > REL_TOL * value[finite].sum())
        count = int(split.sum())
        if count == 0 or value.size + count > _MAX_LEAVES:
            break
        mid = 0.5 * (a[split] + b[split])
        sub_a = np.concatenate([a[split], mid])
        sub_b = np.concatenate([mid, b[split]])
        sub_value, sub_err = _panels(log_f, sub_a, sub_b)
        keep = ~split
        a = np.concatenate([a[keep], sub_a])
        b = np.concatenate([b[keep], sub_b])
        owner = np.concatenate([owner[keep], np.tile(owner[split], 2)])
        value = np.concatenate([value[keep], sub_value])
        err = np.concatenate([err[keep], sub_err])
    n = edges.size - 1
    return np.bincount(owner, value, n), np.bincount(owner, err, n)


def doubling_edges(lo: float, first: float, count: int) -> np.ndarray:
    """Edges lo, first, 2 first, 4 first, ...: ``count`` panels in all."""
    return np.concatenate([[lo], first * 2.0 ** np.arange(count)])


def geometric_tail(s2: float, s1: float, *, max_ratio: float = 0.95) -> float:
    """Closure of a series whose last two terms are s2, s1: the geometric
    remainder s1 q / (1 - q) with q = s1 / s2 when 0 < q < max_ratio, else s1."""
    ratio = s1 / s2 if s2 > 0 else 0.0
    return s1 * ratio / (1.0 - ratio) if 0 < ratio < max_ratio else s1
