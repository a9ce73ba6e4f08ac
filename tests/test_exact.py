"""``bklab.exact`` against binomial closed forms.

With K ~ Bin(n, p) the number of upper atoms, ``rademacher`` has
S_n = 2K - n and ``bernoulli:p=0.75,v0=-3,v1=1`` has S_n = 4K - 3n, so
P[|S_n/n| >= a] is a sum of binomial masses, computed here in exact
rational arithmetic.
"""

import math
from fractions import Fraction

import pytest

from bklab.distributions import parse_dist_spec
from bklab.errors import DomainError, PreconditionError
from bklab.exact import dev_probs, exact_dev_prob, levy_sides

N = 64
# spec: (P[upper atom], S_n as a function of K and n)
LAWS = {
    "rademacher": (Fraction(1, 2), lambda k, n: 2 * k - n),
    "bernoulli:p=0.75,v0=-3,v1=1": (Fraction(3, 4), lambda k, n: 4 * k - 3 * n),
}
LEVELS = (0.25, 0.5, 1.0)


def binomial_tail(spec: str, n: int, a: float) -> Fraction:
    p, s = LAWS[spec]
    return sum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k)
        for k in range(n + 1)
        if abs(s(k, n)) >= Fraction(a) * n
    )


@pytest.mark.parametrize("spec", LAWS)
@pytest.mark.parametrize("a", LEVELS)
def test_dev_probs_match_binomial_closed_form(spec, a):
    probs = dev_probs(parse_dist_spec(spec), N, a)
    assert len(probs) == N
    for n, got in enumerate(probs, start=1):
        want = binomial_tail(spec, n, a)
        assert abs(Fraction(got) - want) <= Fraction(1, 10**13) * want, (n, got, float(want))


@pytest.mark.parametrize("spec", LAWS)
@pytest.mark.parametrize("a", LEVELS)
def test_dev_probs_elements_are_exact_dev_prob_bitwise(spec, a):
    dist = parse_dist_spec(spec)
    probs = dev_probs(dist, N, a)
    assert probs == [exact_dev_prob(dist, n, a) for n in range(1, N + 1)]


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, -0.5])
def test_levels_must_be_finite_and_nonnegative(level):
    dist = parse_dist_spec("rademacher")
    for call in (exact_dev_prob, dev_probs, levy_sides):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            call(dist, 5, level)


def test_refuses_laws_off_the_lattice_and_empty_walks():
    for call in (exact_dev_prob, dev_probs, levy_sides):
        with pytest.raises(PreconditionError):
            call(parse_dist_spec("gaussian:sigma=1"), 5, 0.5)
        with pytest.raises(DomainError, match="n must be >= 1"):
            call(parse_dist_spec("rademacher"), 0, 0.5)
        for n in (2.5, True, 3.0):
            with pytest.raises(DomainError, match="n must be an integer"):
                call(parse_dist_spec("rademacher"), n, 0.5)
