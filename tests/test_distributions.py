import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from bklab.distributions import (
    CounterexampleDist,
    Discrete,
    Distribution,
    Gaussian,
    Symmetrized,
    TriangularSymmetric,
    TwoSidedPareto,
    UniformSymmetric,
    abs_mean,
    bernoulli,
    counterexample_dist,
    moment_xg,
    normalize_counterexample,
    parse_dist_spec,
    rademacher,
    sample,
    symmetrization_check,
    symmetrize,
    tail,
    truncation_threshold,
)
from bklab.errors import (
    DomainError,
    PrecisionError,
    PreconditionError,
    UnsupportedOperationError,
)
from bklab.functions import doubling_witness_exp, exponential, power, powlog

ALL_KINDS = [
    rademacher(),
    UniformSymmetric(1.0),
    TwoSidedPareto(3.0),
    Gaussian(1.0),
    bernoulli(0.9),
    symmetrize(TwoSidedPareto(3.0)),
    symmetrize(UniformSymmetric(1.0)),
]


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_sampling_deterministic_and_prefix_stable(dist):
    a = sample(dist, 99, 50)
    b = sample(dist, 99, 50)
    c = sample(dist, 99, 2000)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c[:50])
    assert not np.array_equal(a, sample(dist, 100, 50))


def test_sample_sanity_bands():
    x = sample(rademacher(), 1, 1_000_000)
    assert abs(x.mean()) <= 4.0 / math.sqrt(1_000_000)
    u = sample(UniformSymmetric(1.0), 2, 1_000_000)
    assert abs(np.abs(u).mean() - 0.5) <= 0.005


def test_counterexample_samples_in_support():
    d = counterexample_dist(exponential(1.0), 1000)
    xs = sample(d, 3, 5000)
    support = set(np.round(np.concatenate([-d.ts, d.ts]), 12))
    assert set(np.round(xs, 12)) <= support


def test_moment_xg_discrete_exact():
    est = moment_xg(rademacher(), power(2))
    assert est.value == 4.0 and est.verdict == "finite" and est.se == 0.0


def test_moment_xg_pareto_abs_mean():
    est = moment_xg(TwoSidedPareto(3.0), power(0))
    assert est.verdict == "finite"
    assert math.isclose(est.value, 1.5, rel_tol=1e-6)


def test_moment_xg_gaussian_power1():
    est = moment_xg(Gaussian(1.0), power(1))
    expected = math.sqrt(2.0 / math.pi) + 1.0  # E|X| + E X^2
    assert math.isclose(est.value, expected, rel_tol=1e-6)


def test_moment_xg_divergence_detection():
    est = moment_xg(TwoSidedPareto(1.5), power(1))
    assert est.verdict == "divergence-evidence"


@pytest.mark.parametrize(
    "spec,mode",
    [
        ("rademacher", "analytic"),
        ("bernoulli:p=0.75,v0=-3,v1=1", "analytic"),
        ("discrete:-2@0.25;0@0.5;2@0.25", "analytic"),
        ("counterexample:G=exp,prefix=1000", "partial_sum"),
        ("uniform:w=1", "quadrature"),
        ("gaussian:sigma=1", "quadrature"),
        ("triangular:w=2", "quadrature"),
        ("pareto2:beta=3", "quadrature"),
        ("sym:pareto2:beta=3", "mc"),
    ],
)
def test_moment_xg_takes_one_route_per_law(spec, mode):
    assert moment_xg(parse_dist_spec(spec), power(1), reps=1000).mode == mode


@pytest.mark.parametrize("size", [True, 2.5, np.float64(100)])
def test_sizes_must_be_integers(size):
    mc = Symmetrized(Gaussian(1.0))
    calls = [
        lambda: sample(mc, 0, size),
        lambda: moment_xg(mc, power(1), reps=size),
        lambda: abs_mean(mc, reps=size),
        lambda: tail(mc, 1.0, reps=size),
        lambda: symmetrization_check(mc, reps=size),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="must be an integer"):
            call()


def test_tail_refuses_nan_level():
    for d in (rademacher(), Gaussian(1.0), Symmetrized(Gaussian(1.0))):
        with pytest.raises(DomainError, match="nonnegative"):
            tail(d, math.nan)
        assert tail(d, math.inf, reps=1000).value == 0.0


def test_tail_values():
    assert tail(rademacher(), 0.5).value == 1.0
    assert tail(rademacher(), 1.5).value == 0.0
    est = tail(TwoSidedPareto(3.0), 2.0)
    assert est.exact and est.value == 0.125
    # numeric integral cross-check of the pareto survival function
    num, _ = quad(lambda x: 3.0 * x**-4.0, 2.0, np.inf)
    assert math.isclose(est.value, num, rel_tol=1e-9)
    w = UniformSymmetric(1.0)
    assert tail(w, 0.25).value == 0.75
    g = Gaussian(2.0)
    assert math.isclose(tail(g, 1.0).value, math.erfc(1.0 / (2.0 * math.sqrt(2))), rel_tol=1e-12)


def test_tail_monotone_nonincreasing():
    d = TwoSidedPareto(2.5)
    ts = np.linspace(0.0, 10.0, 50)
    vals = [tail(d, float(t)).value for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_tail_mc_for_symmetrized_pareto():
    d = symmetrize(TwoSidedPareto(3.0))
    est = tail(d, 1.0, reps=50_000)
    assert not est.exact and est.se > 0
    assert 0.0 < est.value < 1.0


def test_median_conventions():
    # symmetric laws give 0, discrete laws their smallest median
    assert UniformSymmetric(1.0).median_exact() == 0.0
    assert rademacher().median_exact() == 0.0
    assert bernoulli(0.9).median_exact() == 1.0
    assert bernoulli(0.5).median_exact() == 0.0
    assert symmetrize(TwoSidedPareto(3.0)).median_exact() == 0.0


def test_symmetrization_check_needs_a_closed_form_median():
    class Skewed(Distribution):
        def sample_array(self, gen, n, dtype=np.float64):
            return gen.random(n).astype(dtype)

    with pytest.raises(UnsupportedOperationError, match="closed-form median"):
        symmetrization_check(Skewed(), reps=100)


def test_truncation_threshold_examples():
    t = truncation_threshold(rademacher(), 0.5)
    assert 1.0 < t <= 1.01  # smallest grid point above the atom
    assert truncation_threshold(UniformSymmetric(1.0), 0.5) == 0.0
    # closed-form oracle: E[|X| ; |X| >= t] = (3/2) t^-2 for beta=3, scale=1,
    # so the 1 - alpha = 0.75 threshold is sqrt(2).
    t = truncation_threshold(TwoSidedPareto(3.0), 0.25)
    assert math.isclose(t, math.sqrt(2.0), rel_tol=2e-3)
    d = TwoSidedPareto(3.0)
    m = d.abs_trunc_moment_exact(np.asarray([t]))[0]
    assert m <= 0.75
    num, _ = quad(lambda x: x * 3.0 * x**-4.0, t, np.inf)
    assert math.isclose(m, num, rel_tol=1e-9)


def test_truncation_threshold_of_atoms_needs_memory_linear_in_atoms():
    # Sorted suffix sums need the atoms and one ladder chunk; a ladder chunk
    # of 8192 points broadcast against all 8000 atoms would need 295 MB.
    d = counterexample_dist(exponential(1.0), 4000)
    tracemalloc.start()
    try:
        t = truncation_threshold(d, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6
    assert t == 0.6933404878499779


@pytest.mark.parametrize(
    "spec,rel",
    [
        ("rademacher", 1e-15),
        ("bernoulli:p=0.75,v0=-3,v1=1", 1e-15),
        ("discrete:-2@0.25;0@0.5;2@0.25", 1e-15),
        ("counterexample:G=exp,prefix=1000", 1e-12),  # sums of 1000 terms in another order
    ],
)
def test_atom_trunc_moment_matches_direct_sum(spec, rel):
    d = parse_dist_spec(spec)
    if isinstance(d, CounterexampleDist):
        vals, probs = d.atom_values, d.atom_masses
    else:
        vals, probs = d.atoms()
    ts = np.asarray([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 6.0])
    want = [math.fsum(np.abs(vals) * probs * (np.abs(vals) >= t)) for t in ts]
    assert d.abs_trunc_moment_exact(ts).tolist() == pytest.approx(want, rel=rel, abs=0)


def test_truncation_threshold_validation():
    with pytest.raises(DomainError):
        truncation_threshold(rademacher(), 1.5)
    with pytest.raises(UnsupportedOperationError):
        truncation_threshold(symmetrize(TwoSidedPareto(3.0)), 0.5)


@pytest.mark.parametrize(
    "g,c", [(power(1), "2"), (powlog(1, 1), "3.38629"), (power(0), "1")]
)
def test_counterexample_dist_refuses_moderate_g(g, c):
    # A moderate G has no counterexample law; its doubling constant says so.
    with pytest.raises(PreconditionError, match=re.escape(f"(G(2t) <= {c} G(t))")):
        counterexample_dist(g, 100)


def test_normalize_counterexample_mass_accounting():
    g = exponential(1.0)
    ts = doubling_witness_exp(1.0, 100_000)
    law = normalize_counterexample(g, ts, 100_000)
    assert 1.0 - 1e-5 <= law.stored_mass <= 1.0
    assert law.stored_mass + law.tail_mass_bound >= 1.0 - 1e-12
    assert np.all(law.weights > 0)
    with pytest.raises(PrecisionError):
        normalize_counterexample(g, ts, 1)


@pytest.mark.parametrize("prefix", [2.5, 100.0, True])
def test_normalize_counterexample_refuses_non_integer_prefix(prefix):
    ts = doubling_witness_exp(1.0, 200)
    with pytest.raises(DomainError, match="prefix must be an integer"):
        normalize_counterexample(exponential(1.0), ts, prefix)


def test_counterexample_moment_dichotomy():
    d = counterexample_dist(exponential(1.0), 50_000)
    own = moment_xg(d, exponential(1.0))
    assert own.verdict == "finite"
    assert own.halfwidth <= 1e-9 * own.value
    assert math.isclose(own.value, 2.0 * d.c * math.pi**2 / 6.0, rel_tol=1e-8)
    doubled = moment_xg(d, exponential(1.0), arg_scale=2.0)
    assert doubled.verdict == "divergence-evidence"
    harmonic = float(np.sum(1.0 / np.arange(1, 50_001)))
    assert doubled.value >= 2.0 * d.c * harmonic


def test_counterexample_tail_and_trunc_moment():
    d = counterexample_dist(exponential(1.0), 5000)
    # below the first atom everything stored is in the tail event
    assert tail(d, 0.0).value == pytest.approx(d.stored_mass)
    t2 = float(d.ts[1])
    expected = d.stored_mass - 2.0 * float(d.weights[0])
    assert tail(d, t2).value == pytest.approx(expected)
    m = d.abs_trunc_moment_exact(np.asarray([0.0]))[0]
    assert m == pytest.approx(2.0 * float(np.sum(d.weights * d.ts)))


def test_law_rows_symmetry():
    d = counterexample_dist(exponential(1.0), 1000)
    assert len(d.atom_values) == len(d.atom_masses) == 2000
    masses = {}
    for atom, m in zip(d.atom_values, d.atom_masses):
        masses[float(atom)] = float(m)
    for t, w in zip(d.ts, d.weights):
        assert masses[float(t)] == masses[-float(t)] == float(w)


def test_symmetrize_closed_forms():
    s = symmetrize(rademacher())
    assert s.values == (-2.0, 0.0, 2.0)
    assert s.probs == (0.25, 0.5, 0.25)
    g = symmetrize(Gaussian(1.0))
    assert isinstance(g, Gaussian) and math.isclose(g.sigma, math.sqrt(2.0))
    t = symmetrize(UniformSymmetric(1.0))
    assert isinstance(t, TriangularSymmetric) and t.half_width == 2.0
    assert math.isclose(abs_mean(t).value, 2.0 / 3.0)


def test_symmetrized_law_is_symmetric_empirically():
    d = symmetrize(TwoSidedPareto(3.0))
    xs = sample(d, 17, 200_000)
    for t in (0.5, 1.0, 2.0):
        p_hi = np.mean(xs >= t)
        p_lo = np.mean(xs <= -t)
        se = math.sqrt(max(p_hi, 1e-12) / len(xs))
        assert abs(p_hi - p_lo) <= 4.0 * se + 4.0 / len(xs)


def test_symmetrization_inequality_exact_and_mc():
    rows = symmetrization_check(rademacher())
    assert rows and all(r["exact"] and r["ok"] for r in rows)
    rows = symmetrization_check(UniformSymmetric(1.0), reps=50_000)
    assert rows and all(r["ok"] for r in rows)


def test_parse_dist_spec_round_trip():
    for spec in ["rademacher", "uniform:w=2", "pareto2:beta=3,scale=1", "gaussian:sigma=0.5"]:
        d = parse_dist_spec(spec)
        assert parse_dist_spec(d.spec_string()).spec_string() == d.spec_string()
    d = parse_dist_spec("sym:uniform:w=1")
    assert isinstance(d, TriangularSymmetric)
    d = parse_dist_spec("counterexample:G=exp,prefix=1000")
    assert isinstance(d, CounterexampleDist) and d.ts.size == 1000
    with pytest.raises(DomainError):
        parse_dist_spec("cauchy:gamma=1")


def test_atom_mass_validation():
    with pytest.raises(DomainError):
        bernoulli(1.5)
    with pytest.raises(DomainError):
        TwoSidedPareto(-1.0)


@pytest.mark.parametrize("build", [
    lambda: Discrete((math.nan, 1.0), (0.5, 0.5)),
    lambda: Discrete((-1.0, math.inf), (0.5, 0.5)),
    lambda: Discrete((-1.0, 1.0), (math.nan, 1.0)),
    lambda: bernoulli(0.5, (-math.inf, 1.0)),
    lambda: Gaussian(math.nan),
    lambda: Gaussian(math.inf),
    lambda: TwoSidedPareto(math.inf),
    lambda: TwoSidedPareto(math.nan),
    lambda: TwoSidedPareto(3.0, math.inf),
    lambda: TwoSidedPareto(3.0, math.nan),
    lambda: UniformSymmetric(math.nan),
    lambda: UniformSymmetric(math.inf),
    lambda: TriangularSymmetric(math.nan),
    lambda: TriangularSymmetric(math.inf),
])
def test_non_finite_law_parameters_are_refused(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("build", [
    lambda: power(math.nan),
    lambda: power(math.inf),
    lambda: powlog(math.nan, 1.0),
    lambda: powlog(1.0, math.inf),
    lambda: exponential(math.nan),
    lambda: exponential(math.inf),
], ids=["power-nan", "power-inf", "powlog-r-nan", "powlog-s-inf", "exp-nan", "exp-inf"])
def test_non_finite_function_parameters_are_refused(build):
    with pytest.raises(DomainError, match="finite"):
        build()


@pytest.mark.parametrize("spec,message", [
    ("pareto2", "distribution kind 'pareto2' needs beta"),
    ("bernoulli", "distribution kind 'bernoulli' needs p"),
    ("bernoulli:v0=-1", "distribution kind 'bernoulli' needs p"),
    ("gaussian:sigm=5", "bad distribution spec item 'sigm=5': gaussian takes no key 'sigm'"),
    ("rademacher:p=0.5", "rademacher takes no key 'p'"),
    ("uniform:w=1,w=2", "bad distribution spec item 'w=2': w is given twice"),
    ("uniform:w", "bad distribution spec item 'w', expected key=value"),
    ("uniform:w=one", "w must read as float"),
    ("counterexample:G=exp,prefix=x", "bad distribution spec item 'prefix=x': prefix must read as int"),
    ("counterexample:G=exp,prefix=10.5", "prefix must read as int"),
    ("counterexample:G=exp:c=1", "exp takes no key 'c'"),
    ("cauchy:gamma=1", "unknown distribution kind 'cauchy'"),
])
def test_malformed_law_specs_are_refused(spec, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        parse_dist_spec(spec)


def test_law_spec_defaults():
    assert parse_dist_spec("uniform") == UniformSymmetric(1.0)
    assert parse_dist_spec("triangular") == TriangularSymmetric(2.0)
    assert parse_dist_spec("gaussian") == Gaussian(1.0)
    assert parse_dist_spec("pareto2:beta=3") == TwoSidedPareto(3.0, 1.0)
    assert parse_dist_spec("bernoulli:p=0.25") == bernoulli(0.25, (0.0, 1.0))
    assert parse_dist_spec(" sym: uniform:w = 2 ") == TriangularSymmetric(4.0)
    d = parse_dist_spec("counterexample:prefix=1000")
    assert d.spec_string() == "counterexample:G=exp:b=1,prefix=1000"


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_symmetric_laws_have_mean_zero(dist):
    assert dist.symmetric == (dist.mean() == 0.0)


@pytest.mark.parametrize("dist", [
    rademacher(),
    bernoulli(1.0 / 3.0, (-0.5, 1.0)),
    bernoulli(0.1 + 0.2, (-0.0, 1234567.0)),
    bernoulli(0.75, (-3.0, 1.0)),
    UniformSymmetric(1.0 / 3.0),
    TwoSidedPareto(1.0 / 3.0, math.pi),
    TwoSidedPareto(4.0),
    Gaussian(math.sqrt(2.0)),
    Gaussian(1e-300),
    TriangularSymmetric(2.0 / 3.0),
], ids=repr)
def test_spec_string_round_trips(dist):
    assert parse_dist_spec(dist.spec_string()) == dist


@pytest.mark.parametrize("spec", ["sym:bernoulli:p=0.75,v0=-3,v1=1", "sym:rademacher"])
def test_symmetrized_lattice_spec_string_round_trips(spec):
    d = parse_dist_spec(spec)
    assert d.spec_string().startswith("discrete:")
    assert parse_dist_spec(d.spec_string()) == d


def test_symmetrized_spec_string_round_trips():
    # a Symmetrized law compares by identity; its inner law carries the parameters
    d = symmetrize(TwoSidedPareto(1.0 / 3.0, math.pi))
    assert parse_dist_spec(d.spec_string()).inner == d.inner


def test_spec_string_keeps_the_short_form_that_reads_back():
    assert bernoulli(0.75, (-3.0, 1.0)).spec_string() == "bernoulli:p=0.75,v0=-3,v1=1"
    assert bernoulli(1.0 / 3.0, (-0.5, 1.0)).spec_string() == (
        "bernoulli:p=0.3333333333333333,v0=-0.5,v1=1"
    )
    assert TwoSidedPareto(1.5).spec_string() == "pareto2:beta=1.5,scale=1"
