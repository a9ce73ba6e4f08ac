"""Exact enumeration checked against computable truth.

The oracle walks every atom sequence of length n with ``fractions.Fraction``
arithmetic, so its probabilities are exact for the float atoms and masses
that the law holds.  The atoms below are dyadic, so every tie with a level
is an exact tie.  The later tests pin the behaviours that value-keyed
enumeration got wrong: atoms far below unit scale, and laws whose atoms lie
on no lattice (those take the Monte Carlo paths).
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from bklab.distributions import Discrete, Symmetrized, bernoulli, rademacher, symmetrize
from bklab.errors import PreconditionError
from bklab.functions import power
from bklab.lastexit import estimate_series, exact_dev_prob, levy_maximal_check, tail_prob_mean

TWO_ATOM = [
    rademacher(),
    bernoulli(0.75, (-3.0, 1.0)),
    bernoulli(0.3, (-0.375, 0.625)),
]
THREE_ATOM = [
    Discrete((-0.5, 0.0, 0.5), (0.25, 0.5, 0.25)),
    Discrete((0.0, 0.25, 0.625), (0.5, 0.3, 0.2)),  # gaps 2 and 3 steps of 0.125
    symmetrize(bernoulli(0.75, (-3.0, 1.0))),
]


@lru_cache(maxsize=None)
def _walk_law(dist, n):
    """Exact law of (max_{k<=n} |S_k|, S_n) as {(max, S_n): probability},
    summed over every atom sequence of length n."""
    atoms = [(Fraction(v), Fraction(p)) for v, p in zip(dist.values, dist.probs)]
    law = {}

    def walk(depth, prob, s, top):
        if depth == n:
            law[top, s] = law.get((top, s), Fraction(0)) + prob
            return
        for v, p in atoms:
            walk(depth + 1, prob * p, s + v, max(top, abs(s + v)))

    walk(0, Fraction(1), Fraction(0), Fraction(0))
    return law


def _prob(law, event):
    return float(sum((p for (top, s), p in law.items() if event(top, s)), Fraction(0)))


def _cases(symmetric_only=False):
    cases = [(d, n) for d in TWO_ATOM for n in range(1, 11)]
    cases += [(d, n) for d in THREE_ATOM for n in (1, 2, 4, 7, 10)]
    return [
        pytest.param(d, n, id=f"{d.spec_string()}-{n}")
        for d, n in cases
        if d.symmetric or not symmetric_only
    ]


@pytest.mark.parametrize("dist,n", _cases())
def test_exact_dev_prob_matches_fraction_oracle(dist, n):
    law = _walk_law(dist, n)
    for a in (0.125, 0.25, 0.5, 1.0, 1.5):
        exact = _prob(law, lambda top, s: abs(s) >= Fraction(a) * n)
        assert abs(exact_dev_prob(dist, n, a) - exact) <= 1e-14, a


@pytest.mark.parametrize("dist,m", _cases(symmetric_only=True))
def test_levy_sides_match_fraction_oracle(dist, m):
    law = _walk_law(dist, m)
    top = max(dist.values)
    for t in (0.5 * top, top, 2.0 * top, 3.5 * top, 4.0 * top):
        rep = levy_maximal_check(dist, m, t)
        assert rep.exact
        assert abs(rep.lhs - _prob(law, lambda top, s: top >= t)) <= 1e-14, t
        assert abs(rep.rhs - 2.0 * _prob(law, lambda top, s: abs(s) >= t)) <= 1e-14, t


@pytest.mark.parametrize("dist", TWO_ATOM + THREE_ATOM, ids=lambda d: d.spec_string())
def test_symmetrize_matches_fraction_oracle(dist):
    law = {}
    for v1, p1 in zip(dist.values, dist.probs):
        for v2, p2 in zip(dist.values, dist.probs):
            key = Fraction(v1) - Fraction(v2)
            law[key] = law.get(key, Fraction(0)) + Fraction(p1) * Fraction(p2)
    star = symmetrize(dist)
    assert star.values == tuple(float(v) for v in sorted(law))
    for v, p in zip(star.values, star.probs):
        assert abs(p - float(law[Fraction(v)])) <= 1e-14


@pytest.mark.parametrize("scale", [1e-12, 1e-11, 1e-13, 1e-300])
def test_exact_enumeration_at_small_atom_scales(scale):
    dist = bernoulli(0.5, (-scale, scale))
    assert exact_dev_prob(dist, 2, scale) == 0.5
    assert exact_dev_prob(dist, 3, scale) == 0.25
    assert exact_dev_prob(dist, 3, scale / 3.0) == 1.0
    rep = levy_maximal_check(dist, 3, 2.0 * scale)
    assert (rep.lhs, rep.rhs) == (0.5, 0.5)


def test_symmetrize_keeps_small_atoms_and_exact_gaps():
    star = symmetrize(bernoulli(0.5, (-1e-13, 1e-13)))
    assert star.values == (-2e-13, 0.0, 2e-13)
    assert star.probs == (0.25, 0.5, 0.25)
    assert symmetrize(bernoulli(0.5, (0.0, 1.0 / 3.0))).values[-1] == 1.0 / 3.0


def test_non_lattice_law_takes_the_monte_carlo_paths():
    dist = Discrete((0.0, 1.0, math.sqrt(2.0)), (0.25, 0.5, 0.25))
    assert dist.lattice is None
    assert tail_prob_mean(dist, 4, 0.5, reps=2000).exact is False
    with pytest.raises(PreconditionError):
        exact_dev_prob(dist, 4, 0.5)
    assert estimate_series(dist, power(1.0), 0.5, 8, reps_per_block=200).head_exact is False
    assert isinstance(symmetrize(dist), Symmetrized)


def test_wide_lattice_is_not_enumerated():
    dist = Discrete((0.0, 1e-6, 1.0), (0.25, 0.5, 0.25))
    assert dist.lattice is None
    assert tail_prob_mean(dist, 4, 0.5, reps=2000).exact is False


def test_lattice_finds_the_common_step():
    origin, step, offsets, masses = Discrete((0.625, 0.0, 0.25), (0.2, 0.5, 0.3)).lattice
    assert (origin, step) == (0.0, 0.125)
    assert offsets.tolist() == [5, 0, 2]
    assert masses.tolist() == [0.2, 0.5, 0.3]
