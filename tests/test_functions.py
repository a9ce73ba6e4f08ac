import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bklab.errors import (
    ConditionViolationError,
    DomainError,
    SearchExhaustedError,
)
from bklab.functions import (
    GridSpec,
    audit_function,
    counterexample_sequence,
    custom,
    doubling_ratio_sup,
    doubling_witness_exp,
    exponential,
    h_majorant,
    h_scaling_constant,
    is_moderate_numeric,
    parse_function_spec,
    power,
    powlog,
)

PI2_6 = math.pi**2 / 6.0


def identity():
    return custom("identity", lambda t: t, log_fn=np.log, unbounded=True)


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


def test_audit_function_flags():
    rep = audit_function(power(2))
    assert rep["positive"] and rep["nondecreasing"] and rep["diverges"]
    assert rep["doubling_ok"] is True
    rep0 = audit_function(power(0))
    assert rep0["positive"] and not rep0["diverges"]


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


def test_is_moderate_verdicts():
    assert is_moderate_numeric(power(3)) == "moderate-consistent"
    assert is_moderate_numeric(exponential(0.5)) == "non-moderate-evidence"
    assert is_moderate_numeric(powlog(1.0, 1.0)) == "moderate-consistent"


def test_is_moderate_threshold_validation():
    with pytest.raises(DomainError):
        is_moderate_numeric(power(1), growth_threshold=1.0)


def test_h_majorant_zeta2_oracles():
    # sum_{k>=1} k^-2 = pi^2/6 for both G(k) = k (p=2) and G == 1 (p=1)
    assert math.isclose(h_majorant(identity(), 2, 1), PI2_6, rel_tol=1e-9)
    assert math.isclose(h_majorant(power(0), 1, 1), PI2_6, rel_tol=1e-9)


def test_h_majorant_far_tail():
    # oracle: exact zeta remainder sum_{k>=1000} k^-2
    exact = PI2_6 - math.fsum(1.0 / (k * k) for k in range(1, 1000))
    got = h_majorant(identity(), 2, 1000)
    assert math.isclose(got, 1e6 * exact, rel_tol=1e-9)


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
    grid = GridSpec(1.0, 1e4, 25, "geometric")
    assert math.isclose(h_scaling_constant(identity(), 2, grid), PI2_6, rel_tol=1e-9)
    assert math.isclose(h_scaling_constant(power(0), 1, grid), PI2_6, rel_tol=1e-9)
    c = h_scaling_constant(power(2), 4, grid)
    assert math.isfinite(c) and c > 0


def test_h_scaling_constant_dominates_majorant():
    g = power(1)
    grid = GridSpec(1.0, 1e3, 12, "geometric")
    c = h_scaling_constant(g, 2, grid)
    for n in (1, 3, 10, 100, 1000):
        assert c * g.eval(float(n)) >= h_majorant(g, 2, n) - 1e-9


def test_counterexample_sequence_exp():
    g = exponential(1.0)
    ts = counterexample_sequence(g, 5, 100.0)
    assert np.all(np.diff(ts) > 0)
    # defining inequality re-checked through eval
    for n, t in enumerate(ts, start=1):
        assert g.eval(2.0 * t) >= n * g.eval(t) * (1 - 1e-12)
    # minimality: t_3 sits within one grid step of log 3
    assert math.log(3.0) <= ts[2] <= math.log(3.0) * 1.011


def test_counterexample_sequence_n1_any_point():
    ts = counterexample_sequence(exponential(1.0), 1, 10.0, t_start=1e-3)
    assert ts[0] == pytest.approx(1e-3)


def test_counterexample_sequence_moderate_fails():
    # the doubling ratio of (1+t)^2 stays strictly below 4, so the search
    # cannot reach index 4; the error carries the last index achieved
    with pytest.raises(SearchExhaustedError) as exc:
        counterexample_sequence(power(2), 5, 1e6)
    assert exc.value.achieved < 5
    assert len(exc.value.partial) == exc.value.achieved


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


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(2.0, 1.0)
    with pytest.raises(DomainError):
        GridSpec(1.0, 2.0, points=1)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, spacing="geometric")
    lin = GridSpec(0.0, 1.0, 11, "linear").values()
    assert lin[0] == 0.0 and lin[-1] == 1.0


@pytest.mark.parametrize("t_min,t_max,bound", [
    (1.0, math.inf, "t_max"), (1.0, math.nan, "t_max"), (-math.inf, 1.0, "t_min"), (math.nan, 1.0, "t_min"),
])
def test_grid_spec_refuses_non_finite_bound(t_min, t_max, bound):
    with pytest.raises(DomainError, match=f"{bound} must be finite"):
        GridSpec(t_min, t_max, spacing="linear")
