import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bklab.bounds import (
    BoundReport,
    count_compositions,
    default_p,
    enumerate_compositions,
    multinomial,
    prop1_check,
    prop2_check,
    prop3_check,
    sym_transfer_check,
)
from bklab.distributions import (
    Gaussian,
    UniformSymmetric,
    abs_mean,
    bernoulli,
    counterexample_dist,
    moment_xg,
    rademacher,
)
from bklab.errors import ConditionViolationError, DomainError, PreconditionError
from bklab.functions import P_MAX, exponential, power, powlog
from bklab.lastexit import PathConfig

QUICK = PathConfig(horizon=2**10, replicates=4000, seed=2)


def test_count_compositions_examples():
    assert count_compositions(4, 2) == 3
    assert count_compositions(7, 7) == 1
    assert count_compositions(7, 1) == 1
    assert count_compositions(3, 5) == 0
    with pytest.raises(DomainError):
        count_compositions(0, 1)
    with pytest.raises(DomainError):
        count_compositions(50, 2)


@pytest.mark.parametrize("p, q", [(2.5, 1), (1, 2.5), (True, True), (4, True), (4.0, 2), (3, 1.5)])
def test_count_compositions_refuses_non_integer_sizes(p, q):
    # enumerate_compositions and multinomial (with q for each part) share the rule
    with pytest.raises(DomainError, match="must be an integer"):
        count_compositions(p, q)
    with pytest.raises(DomainError, match="must be an integer"):
        enumerate_compositions(p, q)
    with pytest.raises(DomainError, match="must be an integer"):
        multinomial(p, (q, q))


def test_compositions_keep_the_empty_set_convention():
    assert list(enumerate_compositions(0, 0)) == []
    assert list(enumerate_compositions(0, 2)) == []
    assert list(enumerate_compositions(3, 0)) == []
    assert list(enumerate_compositions(2, 3)) == []
    assert multinomial(0, ()) == 1
    assert multinomial(3, [1, 2]) == 3
    with pytest.raises(DomainError, match="must be >= 0"):
        enumerate_compositions(-1, 1)


def test_count_compositions_vs_enumeration():
    for p in range(1, 11):
        total = 0
        for q in range(1, p + 1):
            seqs = list(enumerate_compositions(p, q))
            assert len(seqs) == count_compositions(p, q)
            assert all(len(s) == q and sum(s) == p and min(s) >= 1 for s in seqs)
            total += len(seqs)
        assert total == 2 ** (p - 1)


def test_multinomial_examples():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(6, (2, 2, 2)) == 90
    assert multinomial(5, (5,)) == 1
    assert multinomial(0, ()) == 1
    with pytest.raises(DomainError):
        multinomial(4, (3, 2))
    with pytest.raises(DomainError):
        multinomial(4, (-1, 5))


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_multinomial_permutation_symmetric(parts):
    p = sum(parts)
    base = multinomial(p, parts)
    for perm in list(permutations(parts))[:6]:
        assert multinomial(p, perm) == base


def test_multinomial_even_bound():
    # M(2p, 2d) <= (2p)!/2^p over all positive compositions d of p
    for p in range(1, 7):
        cap = math.factorial(2 * p) // 2**p
        for q in range(1, p + 1):
            for d in enumerate_compositions(p, q):
                assert multinomial(2 * p, tuple(2 * x for x in d)) <= cap


def test_default_p_values():
    assert default_p(power(1)) == 2
    assert default_p(power(0.5)) == 1
    assert default_p(power(2)) == 3
    assert default_p(powlog(1, 1)) == 2


def test_default_p_refuses_a_g_that_no_p_admits():
    with pytest.raises(PreconditionError, match=f"no p <= {P_MAX} makes") as exc:
        default_p(exponential(1.0))
    assert not isinstance(exc.value, ConditionViolationError)


def test_prop1_rademacher_exact_lhs():
    rep = prop1_check(rademacher(), power(2), 0.5, QUICK)
    assert rep.lhs == 4.0  # single atom: G(1) = 4
    assert rep.holds_within >= 0
    assert rep.details["c"] == 4.0


def test_prop1_uniform_constant_g():
    rep = prop1_check(UniformSymmetric(1.0), power(0), 0.5, QUICK)
    assert rep.lhs == pytest.approx(0.5)
    # E[G(L)] = 1 exactly for G == 1, so rhs = 4 (t G(t) + 2)
    assert rep.rhs == pytest.approx(4.0 * (rep.details["t"] + 2.0))
    assert rep.passed


def test_prop1_needs_doubling_constant():
    with pytest.raises(PreconditionError):
        prop1_check(rademacher(), exponential(1.0), 0.5, QUICK)


def test_prop2_rademacher_closed_lhs():
    rep = prop2_check(rademacher(), power(1), 2, n_max=2**10, reps_per_block=2000)
    assert rep.lhs == pytest.approx(2.0 * (1.0 + math.log(2.0)), abs=1e-6)
    assert rep.holds_within >= 0
    assert rep.details["p"] == 2


def test_prop2_condition_violation_names_smallest_p():
    with pytest.raises(ConditionViolationError) as exc:
        prop2_check(rademacher(), power(2), 2, n_max=2**8, reps_per_block=500)
    assert exc.value.smallest_admissible_p == 3


def test_prop2_requires_symmetry():
    from bklab.distributions import bernoulli

    with pytest.raises(PreconditionError):
        prop2_check(bernoulli(0.7), power(1), 2)


def test_prop2_increasing_p_still_holds():
    for p in (2, 3, 4):
        rep = prop2_check(rademacher(), power(1), p, n_max=2**10, reps_per_block=2000)
        assert rep.holds_within >= -4


def test_prop3_rademacher():
    rep = prop3_check(rademacher(), power(1), QUICK, n_max=2**10, reps_per_block=2000)
    assert abs(rep.lhs - 3.0) <= 6.0 * max(rep.lhs_se, 1e-9)
    assert rep.passed
    assert rep.details["rhs_is_partial_sum_underestimate"]


def test_prop3_constant_g_trivial():
    rep = prop3_check(UniformSymmetric(1.0), power(0), QUICK, n_max=2**9, reps_per_block=1000)
    assert rep.lhs == 1.0
    assert rep.rhs >= 1.0
    assert rep.holds_within >= 0


def test_sym_transfer_gaussian_closed_forms():
    reports = sym_transfer_check(Gaussian(1.0), power(0), QUICK, a=1.0)
    by_name = {r.name: r for r in reports}
    m = by_name["sym-moment"]
    # E|X*| = sqrt(2) E|X| <= 4 E|X| with c = 1 for constant G
    assert m.lhs == pytest.approx(math.sqrt(2.0) * abs_mean(Gaussian(1.0)).value)
    assert m.rhs == pytest.approx(4.0 * abs_mean(Gaussian(1.0)).value)
    assert m.holds_within >= 0
    # (ii) with G == 1 reads 1 <= 2
    le = by_name["sym-lastexit"]
    assert le.lhs == 1.0 and le.rhs == 2.0


def test_sym_transfer_rademacher_enumerated():
    reports = sym_transfer_check(rademacher(), power(0), QUICK, a=1.0)
    m = {r.name: r for r in reports}["sym-moment"]
    # X* has atoms {-2, 0, 2} with masses 1/4, 1/2, 1/4: E|X*| = 1 <= 4 E|X| = 4
    assert m.lhs == pytest.approx(1.0)
    assert m.rhs == pytest.approx(4.0)


def test_sym_transfer_counterexample_moment_is_exact():
    dist = counterexample_dist(exponential(1.0), 2000)
    g = power(1)
    moment = next(r for r in sym_transfer_check(dist, g, PathConfig(256, 400, 3)) if r.name == "sym-moment")
    assert moment.rhs_se == 0.0
    assert moment.rhs == 4.0 * g.claimed_doubling * moment_xg(dist, g).value


def test_sym_transfer_measures_deviations_from_zero():
    # X - X' is centered at 0 whatever the law's mean.  Measured from a
    # center of 0.7, every star path was censored and a true inequality
    # read as violated, so a center is refused, and so is a law that is
    # not centered.
    with pytest.raises(DomainError, match="deviations from 0"):
        sym_transfer_check(bernoulli(0.7), power(1), PathConfig(512, 2000, 3, center=0.7), a=0.25)
    with pytest.raises(PreconditionError, match="not centered"):
        sym_transfer_check(bernoulli(0.7), power(1), PathConfig(512, 2000, 3), a=0.25)
    # a centered law that is not symmetric passes every transfer
    reports = sym_transfer_check(bernoulli(0.75, (-3.0, 1.0)), power(1), QUICK, a=1.0)
    assert all(r.passed for r in reports)
    le = {r.name: r for r in reports}["sym-lastexit"]
    assert max(le.details["censor_rates"]) <= 1e-3


def test_sym_transfer_deviation_sandwich():
    reports = sym_transfer_check(UniformSymmetric(1.0), power(1), QUICK, a=1.0)
    dev = [r for r in reports if r.name.startswith("sym-deviation")]
    assert dev, "expected sandwich rows past the median checkpoint"
    assert all(r.holds_within >= -4 for r in dev)
    assert all(r.details["n0"] >= 64 for r in dev)


def test_bound_report_holds_within_cap():
    rep = BoundReport("x", lhs=1.0, lhs_se=0.0, rhs=2.0, rhs_se=0.0, seed=0)
    assert rep.holds_within == 1e6
    rep = BoundReport("x", lhs=3.0, lhs_se=0.0, rhs=2.0, rhs_se=0.0, seed=0)
    assert rep.holds_within == -1e6 and not rep.passed


def test_prop2_profile_cache_consistency():
    from bklab.lastexit import deviation_profile
    from bklab import rng as _rng

    prof = deviation_profile(
        UniformSymmetric(1.0), 2**10, 2000, _rng.derive_seed(0, 21), stream=0
    )
    r1 = prop2_check(UniformSymmetric(1.0), power(1), 2, n_max=2**10, profile=prof)
    r2 = prop2_check(UniformSymmetric(1.0), power(2), 3, n_max=2**10, profile=prof)
    assert r1.holds_within >= -4 and r2.holds_within >= -4
