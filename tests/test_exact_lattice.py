"""Reference pins for the exact enumeration of finite-support laws.

The reference enumerators below are the value-keyed dict convolutions that
bklab used before its integer-lattice enumerator (`round(s + v, 10)` for
sums, `(round(s + v, 10), max)` for the Levy walk, `round(v1 - v2, 12)` for
symmetrization).  On laws whose atoms are well above those rounding scales
both must agree: bit for bit on exact deviation probabilities, the exact
series head and symmetrized laws, and to 1e-15 on the Levy sides, whose
order of summation differs.
"""

import math

import numpy as np
import pytest

from bklab.distributions import parse_dist_spec, symmetrize
from bklab.functions import power
from bklab.lastexit import (
    _series_verdict,
    estimate_series,
    exact_dev_prob,
    levy_maximal_check,
    tail_prob_mean,
)

LAWS = [
    "rademacher",
    "bernoulli:p=0.75,v0=-3,v1=1",
    "bernoulli:p=0.3,v0=-0.3,v1=0.7",
    "bernoulli:p=0.9,v0=0,v1=1",
    "sym:rademacher",
    "sym:bernoulli:p=0.75,v0=-3,v1=1",
    "sym:bernoulli:p=0.3,v0=-0.3,v1=0.7",
]
SYMMETRIC_LAWS = [s for s in LAWS if s == "rademacher" or s.startswith("sym:")]
TWO_ATOM_LAWS = [s for s in LAWS if not s.startswith("sym:")] + ["bernoulli:p=0.6,v0=0.25,v1=2.5"]
LEVELS = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0)


def _ref_sums(dist, n_max):
    vals, probs = dist.atoms()
    states = {0.0: 1.0}
    out = []
    for _ in range(n_max):
        new = {}
        for s, p in states.items():
            for v, q in zip(vals, probs):
                key = round(s + v, 10)
                new[key] = new.get(key, 0.0) + p * q
        states = new
        out.append(states)
    return out


def _ref_dev_prob(states, n, a):
    thresh = a * n - 1e-9 * max(1.0, a * n)
    return math.fsum(p for s, p in states.items() if abs(s) >= thresh)


def _ref_levy(dist, m, t):
    vals, probs = dist.atoms()
    states = {(0.0, 0.0): 1.0}
    for _ in range(m):
        new = {}
        for (s, mx), p in states.items():
            for v, q in zip(vals, probs):
                s2 = round(s + v, 10)
                key = (s2, max(mx, abs(s2)))
                new[key] = new.get(key, 0.0) + p * q
        states = new
    tol = 1e-9 * max(1.0, t)
    lhs = math.fsum(p for (s, mx), p in states.items() if mx >= t - tol)
    rhs = 2.0 * math.fsum(p for (s, _), p in states.items() if abs(s) >= t - tol)
    return lhs, rhs


def _ref_symmetrize(dist):
    vals, probs = dist.atoms()
    diff = {}
    for v1, p1 in zip(vals, probs):
        for v2, p2 in zip(vals, probs):
            key = round(v1 - v2, 12)
            diff[key] = diff.get(key, 0.0) + p1 * p2
    items = sorted(diff.items())
    return [v for v, _ in items], [p for _, p in items]


@pytest.mark.parametrize("spec", LAWS)
def test_exact_dev_prob_matches_reference_bitwise(spec):
    dist = parse_dist_spec(spec)
    for n, states in enumerate(_ref_sums(dist, 20), start=1):
        for a in LEVELS:
            ref = _ref_dev_prob(states, n, a)
            assert exact_dev_prob(dist, n, a) == ref, (n, a)
            est = tail_prob_mean(dist, n, a)
            assert est.exact and est.p_hat == ref, (n, a)


@pytest.mark.parametrize("spec", LAWS)
@pytest.mark.parametrize("r", [1.0, 2.0])
def test_series_head_matches_reference_bitwise(spec, r):
    dist = parse_dist_spec(spec)
    g = power(r)
    sums = _ref_sums(dist, 64)
    ns = np.arange(1, 65, dtype=float)
    weights = g.eval(ns) / ns
    for a in (0.1, 0.25, 0.5, 1.0):
        terms = [
            w * _ref_dev_prob(states, n, a)
            for n, (w, states) in enumerate(zip(weights, sums), start=1)
        ]
        head = math.fsum(terms)
        est = estimate_series(dist, g, a, 64)
        assert est.head_exact
        assert est.head == head and est.partial_sum == head, a
        assert est.verdict == _series_verdict([], [], terms, head), a


@pytest.mark.parametrize("spec", TWO_ATOM_LAWS)
def test_symmetrize_matches_reference_bitwise(spec):
    dist = parse_dist_spec(spec)
    values, masses = _ref_symmetrize(dist)
    star = symmetrize(dist)
    assert list(star.values) == values
    assert list(star.probs) == masses


@pytest.mark.parametrize("spec", SYMMETRIC_LAWS)
def test_levy_matches_reference(spec):
    dist = parse_dist_spec(spec)
    top = float(max(abs(v) for v in dist.values))
    bitwise = spec in ("rademacher", "sym:rademacher")
    for m in (1, 2, 3, 7, 12, 20):
        for scale in (0.5, 1.0, 2.0, 3.5, 5.0):
            t = scale * top
            lhs, rhs = _ref_levy(dist, m, t)
            rep = levy_maximal_check(dist, m, t)
            assert rep.exact
            if bitwise:
                assert (rep.lhs, rep.rhs) == (lhs, rhs), (m, t)
            else:
                assert rep.lhs == pytest.approx(lhs, abs=1e-15), (m, t)
                assert rep.rhs == pytest.approx(rhs, abs=1e-15), (m, t)
