"""The numpy panel quadrature against closed forms, the array form of
``abs_pdf``, the overflow path of the moment walk, and a runtime free of
scipy."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bklab
from bklab.distributions import (
    Gaussian,
    TriangularSymmetric,
    TwoSidedPareto,
    UniformSymmetric,
    moment_xg,
    rademacher,
)
from bklab.functions import exponential, power, powlog, tail_integral
from bklab.quadrature import doubling_edges, panel_integrals
from bklab.report import DIVERGENT, FINITE

REL = 1e-12


def _half_normal(sigma, j):
    """E|X|^j for X ~ N(0, sigma^2), j in 1..3."""
    c = math.sqrt(2.0 / math.pi)
    return {1: sigma * c, 2: sigma**2, 3: 2.0 * sigma**3 * c}[j]


def _binomial_moment(moment, r):
    """E|X| (1+|X|)^r for integer r from the raw moments E|X|^j."""
    return sum(math.comb(r, k) * moment(k + 1) for k in range(r + 1))


MOMENT_CELLS = (
    [(Gaussian(s), r, _binomial_moment(lambda j, s=s: _half_normal(s, j), r))
     for s in (1.0, 2.0) for r in (0, 1, 2)]
    + [(TwoSidedPareto(b), r, _binomial_moment(lambda j, b=b: b / (b - j), r))
       for b in (2.5, 3.0, 4.0) for r in (0, 1)]
    + [(TwoSidedPareto(4.0), 2, _binomial_moment(lambda j: 4.0 / (4.0 - j), 2))]
    # |X| uniform on [0, 1]: E|X|^j = 1/(j+1); density 2(1-x): 2/((j+1)(j+2)).
    + [(UniformSymmetric(1.0), r, _binomial_moment(lambda j: 1.0 / (j + 1), r))
       for r in (0, 1, 2)]
    + [(TriangularSymmetric(1.0), r, _binomial_moment(lambda j: 2.0 / ((j + 1) * (j + 2)), r))
       for r in (0, 1, 2)]
)


@pytest.mark.parametrize("dist,r,exact", MOMENT_CELLS,
                         ids=[f"{d.spec_string()}-r{r}" for d, r, _ in MOMENT_CELLS])
def test_moment_matches_closed_form(dist, r, exact):
    est = moment_xg(dist, power(r))
    assert est.mode == "quadrature"
    assert est.verdict.kind == FINITE
    assert math.isclose(est.value, exact, rel_tol=REL), (est.value, exact)


KS = (1.0, 5.0, 1024.0, 3.0 * 2.0**20)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_tail_integral_constant(k, p):
    assert math.isclose(tail_integral(power(0), p, k), k**-p / p, rel_tol=REL)


@pytest.mark.parametrize("k", KS)
def test_tail_integral_linear(k):
    # (1+x) x^-3 integrates to 1/K + 1/(2K^2).
    assert math.isclose(tail_integral(power(1), 2, k), 1.0 / k + 0.5 / k**2, rel_tol=REL)


@pytest.mark.parametrize("k", KS)
def test_tail_integral_square_root(k):
    # (1+x)^(1/2) x^-2, singular at u = 0 in the variable x = K/u.
    root = math.sqrt(1.0 + k)
    exact = root / k + math.atanh(1.0 / root)  # arcoth sqrt(1+K)
    assert math.isclose(tail_integral(power(0.5), 1, k), exact, rel_tol=REL)


def test_tail_integral_powlog_reference():
    # 30-digit reference for the (1+x) log(e+x) x^-4 tail from K = 4096.
    got = tail_integral(powlog(1.0, 1.0), 3, 4096.0)
    assert math.isclose(got, 2.62845057931085e-07, rel_tol=1e-13)


def test_panel_integrals_refine_a_steep_panel():
    # exp(40 x) on [0, 1] needs bisection before the embedded rule agrees.
    value, err = panel_integrals(lambda x: 40.0 * x, [0.0, 1.0])
    assert math.isclose(value[0], math.expm1(40.0) / 40.0, rel_tol=REL)
    assert err[0] <= 1e-12 * value[0]


def test_panel_integrals_overflow_is_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, err = panel_integrals(lambda x: x, doubling_edges(1.0, 512.0, 4))
    # exp(x) overflows past x = 709.78: inside the second panel [512, 1024].
    assert np.isfinite(value[0]) and np.all(np.isinf(value[1:]))
    assert np.isfinite(err[0]) and np.all(np.isinf(err[1:]))


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("beta", [1.5, 2.5, 3.0, 4.0])
def test_pareto_exp_moment_is_divergence_evidence(beta, scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = moment_xg(TwoSidedPareto(beta), exponential(0.5), arg_scale=scale)
    assert est.verdict.kind == DIVERGENT, est


LAWS = [
    UniformSymmetric(1.0), UniformSymmetric(2.5), TriangularSymmetric(1.0),
    TriangularSymmetric(3.0), Gaussian(1.0), Gaussian(2.0), TwoSidedPareto(3.0),
    TwoSidedPareto(1.5, 2.0),
]


@pytest.mark.parametrize("dist", LAWS, ids=[d.spec_string() for d in LAWS])
def test_abs_pdf_array_form_matches_scalar_form(dist):
    lo, hi = dist.abs_support()
    edges = [lo, 0.0] + ([hi] if math.isfinite(hi) else [])
    xs = np.concatenate([np.linspace(-3.0, 12.0, 61), edges, np.nextafter(edges, -np.inf)])
    dens = dist.abs_pdf(xs)
    assert isinstance(dens, np.ndarray) and dens.shape == xs.shape
    for x, d in zip(xs.tolist(), dens.tolist()):
        one = dist.abs_pdf(x)
        assert isinstance(one, float) and one == d, (x, one, d)
    grid = dist.abs_pdf(xs.reshape(-1, 1))
    assert grid.shape == (xs.size, 1) and np.array_equal(grid[:, 0], dens)
    off = (xs < lo) | (xs > hi)
    assert np.all(dens[off] == 0.0)
    assert np.all(dens[(xs > lo) & (xs < hi)] > 0.0)


def test_abs_pdf_is_none_for_atoms():
    assert rademacher().abs_pdf(0.5) is None


def test_runtime_imports_no_scipy(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]],
                                "levels": [20.0, 20.0], "stream": [1] * 40}))
    code = (
        "import sys\n"
        "import bklab.cli\n"
        "from click.testing import CliRunner\n"
        "res = CliRunner().invoke(bklab.cli.main, ['--seed', '7', 'sprt', 'sweep', '--config',"
        f" {str(conf)!r}, '--errors', '1e-1,1e-2', '--reps', '200'])\n"
        "assert res.exit_code == 0, res.output\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
    )
    src = str(Path(bklab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
