import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from bklab.bounds import H_GRID

from bklab.errors import ConditionViolationError, DomainError
from bklab.functions import (
    GridSpec,
    ModerateFunction,
    check_tail_condition,
    doubling_ratio_sup,
    doubling_witness_exp,
    exponential,
    h_majorant,
    h_scaling_constant,
    parse_function_spec,
    power,
    powlog,
)

PI2_6 = math.pi**2 / 6.0


def identity():
    return ModerateFunction("identity", {}, lambda t: t, np.log)


def test_eval_power_family():
    assert power(2).eval(1.0) == 4.0
    assert power(0).eval(17.0) == 1.0
    assert math.isclose(exponential(1.0).eval(2.0), math.e**2, rel_tol=1e-12)


def test_eval_domain_errors():
    g = power(2)
    with pytest.raises(DomainError):
        g.eval(-0.5)
    with pytest.raises(DomainError):
        g.eval(float("nan"))
    with pytest.raises(DomainError):
        g.eval(float("inf"))


def test_eval_vectorized_matches_scalar():
    g = powlog(1.5, 0.5)
    ts = np.geomspace(1e-3, 1e3, 50)
    vec = g.eval(ts)
    assert np.allclose(vec, [g.eval(float(t)) for t in ts], rtol=1e-14)


@given(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_builtin_families_nondecreasing(r, s):
    for g in (power(r), powlog(r, s)):
        ts = np.geomspace(1e-4, 1e5, 200)
        vals = g.eval(ts)
        assert np.all(np.diff(vals) >= -1e-12 * vals[:-1])


def test_doubling_power():
    rep = doubling_ratio_sup(power(2))
    assert rep.analytic_sup == 4.0
    assert rep.grid_max <= 4.0
    assert rep.verdict == "bounded-consistent"
    # grid max approaches the analytic sup as t_max grows
    small = doubling_ratio_sup(power(2), GridSpec(1e-2, 1e2, 100)).grid_max
    large = doubling_ratio_sup(power(2), GridSpec(1e-2, 1e8, 200)).grid_max
    assert small < large <= 4.0
    assert large > 4.0 - 1e-6


def test_doubling_constant_function():
    rep = doubling_ratio_sup(power(0))
    assert rep.grid_max == 1.0
    assert rep.analytic_sup == 1.0


def test_doubling_exponential_detects_growth():
    rep = doubling_ratio_sup(exponential(1.0), GridSpec(1e-2, 30.0, 300))
    assert math.isclose(rep.grid_max, math.exp(30.0), rel_tol=1e-9)
    assert rep.verdict == "unbounded-growth-detected"


def test_doubling_threshold_validation():
    with pytest.raises(DomainError):
        doubling_ratio_sup(power(1), growth_threshold=1.0)


def test_h_majorant_zeta2_oracles():
    # sum_{k>=1} k^-2 = pi^2/6 for both G(k) = k (p=2) and G == 1 (p=1)
    assert math.isclose(h_majorant(identity(), 2, 1), PI2_6, rel_tol=1e-13)
    assert math.isclose(h_majorant(power(0), 1, 1), PI2_6, rel_tol=1e-13)


def test_h_majorant_far_tail():
    # oracle: exact zeta remainder sum_{k>=1000} k^-2
    exact = PI2_6 - math.fsum(1.0 / (k * k) for k in range(1, 1000))
    got = h_majorant(identity(), 2, 1000)
    assert math.isclose(got, 1e6 * exact, rel_tol=1e-13)


def test_h_majorant_condition_violation():
    with pytest.raises(ConditionViolationError):
        h_majorant(exponential(1.0), 3, 1)
    with pytest.raises(ConditionViolationError) as exc:
        h_majorant(power(2), 2, 1)
    assert exc.value.smallest_admissible_p == 3


def test_h_majorant_tail_normalized_nonincreasing():
    g = power(1)
    vals = [h_majorant(g, 2, n) / n**2 for n in (1, 2, 4, 16, 64)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_h_scaling_constant_oracles():
    grid = GridSpec(1.0, 1e4, 25)
    assert math.isclose(h_scaling_constant(identity(), 2, grid), PI2_6, rel_tol=1e-13)
    assert math.isclose(h_scaling_constant(power(0), 1, grid), PI2_6, rel_tol=1e-13)
    c = h_scaling_constant(power(2), 4, grid)
    assert math.isfinite(c) and c > 0


H_NS = [int(n) for n in np.unique(np.clip(np.round(H_GRID.values()), 1, None))]


@pytest.mark.parametrize("r, p", [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4)])
def test_h_majorant_power_closed_form(r, p):
    # (1+k)^r = sum_j C(r,j) k^j, so the tail sum is sum_j C(r,j) zeta(p+1-j, n)
    for n in H_NS:
        exact = n**p * math.fsum(math.comb(r, j) * zeta(p + 1 - j, n) for j in range(r + 1))
        assert math.isclose(h_majorant(power(r), p, n), exact, rel_tol=1e-13), n


def test_h_scaling_constant_lattice_cell_closed_form():
    # 40-digit Hurwitz-zeta value of the power:r=2, p=3 constant on H_GRID
    assert abs(h_scaling_constant(power(2), 3, H_GRID) - 1.28284277671963830) <= 2e-15


@pytest.mark.parametrize(
    "n, value", [(1, 4.284214815418912), (64, 335.9951750682389), (4096, 38175.498711970904)]
)
def test_h_majorant_powlog_reference(n, value):
    # recorded from a rule that summed until the next term was below 2e-9 of the total
    assert math.isclose(h_majorant(powlog(1, 1), 2, n), value, rel_tol=1e-12)


def test_h_scaling_constant_memory():
    # summing stops near 4n, so the term arrays of the 25 grid points stay small
    tracemalloc.start()
    try:
        h_scaling_constant(power(2), 3, H_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize(
    "call",
    [
        lambda: h_majorant(power(1), 2, True),
        lambda: h_majorant(power(1), 2, 2.5),
        lambda: check_tail_condition(power(1), 2.0),
        lambda: GridSpec(1.0, 2.0, 2.5),
        lambda: GridSpec(1.0, 2.0, 1),
        lambda: doubling_witness_exp(1.0, 2.5),
    ],
)
def test_sizes_must_be_integers(call):
    with pytest.raises(DomainError):
        call()


def test_h_scaling_constant_dominates_majorant():
    g = power(1)
    grid = GridSpec(1.0, 1e3, 12)
    c = h_scaling_constant(g, 2, grid)
    for n in (1, 3, 10, 100, 1000):
        assert c * g.eval(float(n)) >= h_majorant(g, 2, n) - 1e-9


def test_doubling_witness_exp():
    ts = doubling_witness_exp(2.0, 100)
    g = exponential(2.0)
    assert np.all(np.diff(ts) > 0) and ts[0] > 0
    ratios = g.log_eval(2.0 * ts) - g.log_eval(ts)
    assert np.all(ratios >= np.log(np.arange(1, 101)) - 1e-12)


def test_parse_function_spec():
    assert parse_function_spec("power:r=2").eval(1.0) == 4.0
    g = parse_function_spec("powlog:r=1,s=1")
    assert g.params == {"r": 1.0, "s": 1.0}
    assert parse_function_spec("exp:b=0.5").params["b"] == 0.5
    assert parse_function_spec("const").eval(5.0) == 1.0
    with pytest.raises(DomainError):
        parse_function_spec("mystery:x=1")


@pytest.mark.parametrize("spec,message", [
    ("power:s=3", "bad function spec item 's=3': power takes no key 's'"),
    ("exp:b=1,b=2", "bad function spec item 'b=2': b is given twice"),
    ("power:r=x", "bad function spec item 'r=x': r must read as float"),
    ("power:r", "bad function spec item 'r', expected key=value"),
    ("const:r=1", "const takes no key 'r'"),
    ("power:r=nan", "power family needs a finite r >= 0"),
    ("exp:b=inf", "exp family needs a finite b > 0"),
])
def test_malformed_function_specs_are_refused(spec, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        parse_function_spec(spec)


def test_function_spec_defaults():
    assert parse_function_spec("power").params == {"r": 1.0}
    assert parse_function_spec("powlog:s=2").params == {"r": 1.0, "s": 2.0}
    assert parse_function_spec("exp").spec_string() == "exp:b=1"
    assert parse_function_spec("const").params == {"r": 0.0}


def test_doubling_ratio_sup_evaluates_the_grid_once():
    calls = []

    def log_fn(t):
        calls.append(t.size)
        return np.log1p(t)

    g = ModerateFunction("counted", {}, lambda t: 1.0 + t, log_fn)
    doubling_ratio_sup(g, GridSpec(1e-2, 1e4, 61))
    assert calls == [61, 61]


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(2.0, 1.0)
    with pytest.raises(DomainError):
        GridSpec(1.0, 2.0, points=1)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0)


@pytest.mark.parametrize("t_min,t_max,bound", [
    (1.0, math.inf, "t_max"), (1.0, math.nan, "t_max"), (-math.inf, 1.0, "t_min"), (math.nan, 1.0, "t_min"),
])
def test_grid_spec_refuses_non_finite_bound(t_min, t_max, bound):
    with pytest.raises(DomainError, match=f"{bound} must be finite"):
        GridSpec(t_min, t_max)


@pytest.mark.parametrize("spec", [
    "exp:b=0.3333333333333333",
    "power:r=0.30000000000000004",
    "powlog:r=1.4142135623730951,s=0.1",
    "power:r=1",  # short forms stay short
    "exp:b=1",
])
def test_function_spec_string_reads_back(spec):
    g = parse_function_spec(spec)
    assert parse_function_spec(g.spec_string()).params == g.params
    assert g.spec_string() == spec
