"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Heavy path simulations
are shared through module fixtures: the last-exit batches and deviation
profiles do not depend on G (and the profiles not on the level a either), so
one simulation per (distribution, level) serves every cell of the audit
matrix.  Root seed 2026; every derived seed is reported in the payloads.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from bklab import rng as _rng
from bklab.bounds import (
    count_compositions,
    enumerate_compositions,
    multinomial,
    prop1_check,
    prop2_check,
    prop3_check,
)
from bklab.cli import main, theorem1_row
from bklab.distributions import (
    Gaussian,
    TwoSidedPareto,
    UniformSymmetric,
    counterexample_dist,
    moment_xg,
    rademacher,
    symmetrization_check,
)
from bklab.functions import exponential, power, powlog
from bklab.lastexit import (
    PathConfig,
    deviation_profile,
    estimate_EG_lastexit,
    estimate_series,
    last_exit_samples,
    levy_maximal_check,
)
from bklab.sprt import HypothesisSet, optimality_sweep, rejection_rate, run_test

ROOT_SEED = 2026

MATRIX_DISTS = {
    "rademacher": rademacher(),
    "uniform": UniformSymmetric(1.0),
    "gaussian": Gaussian(1.0),
    "pareto4": TwoSidedPareto(4.0),
}
MATRIX_GS = {
    "power1": power(1.0),
    "power2": power(2.0),
    "sqrt": power(0.5),
    "powlog11": powlog(1.0, 1.0),
}

REPS = 100_000
HORIZON = 2**14


def _ok(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def eg_batches():
    """Last-exit batches at reps=1e5, horizon=2^14, per (dist, level).

    The L samples do not depend on G, so each simulation serves the whole
    row of the audit matrix; build times are recorded for the runtime audit.
    """
    cache = {}
    dist_index = {dk: i for i, dk in enumerate(MATRIX_DISTS)}

    def get(dist_key: str, a: float):
        key = (dist_key, a)
        if key not in cache:
            cfg = PathConfig(
                HORIZON,
                REPS,
                _rng.derive_seed(ROOT_SEED, 1, dist_index[dist_key], int(4 * a)),
            )
            t0 = time.time()
            batch = last_exit_samples(MATRIX_DISTS[dist_key], a, cfg)
            cache[key] = (batch, cfg, time.time() - t0)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def profiles():
    """Deviation profiles per distribution: G- and level-independent."""
    cache = {}
    dist_index = {dk: i for i, dk in enumerate(MATRIX_DISTS)}

    def get(dist_key: str):
        if dist_key not in cache:
            t0 = time.time()
            prof = deviation_profile(
                MATRIX_DISTS[dist_key],
                HORIZON,
                10_000,
                _rng.derive_seed(ROOT_SEED, 2, dist_index[dist_key]),
            )
            cache[dist_key] = (prof, time.time() - t0)
        return cache[dist_key]

    return get


def test_criterion_1_exact_series_value():
    t0 = time.time()
    est = estimate_series(rademacher(), power(1), 1.0, 30)
    elapsed = time.time() - t0
    target = 2.0 * (1.0 + math.log(2.0))
    assert est.head_exact
    assert abs(est.partial_sum - target) < 1e-6, est.partial_sum
    assert elapsed < 1.0
    _ok(1, f"series = {est.partial_sum:.9f} vs 2(1+ln2) = {target:.9f}, {elapsed*1e3:.0f} ms")


def test_criterion_2_exact_last_exit_moment():
    t0 = time.time()
    cfg = PathConfig(2**10, REPS, _rng.derive_seed(ROOT_SEED, 3))
    est = estimate_EG_lastexit(rademacher(), power(1), 1.0, cfg)
    elapsed = time.time() - t0
    assert abs(est.mean - 3.0) <= 4.0 * est.se, (est.mean, est.se)
    assert est.censor_rate < 1e-4
    assert elapsed < 10.0
    _ok(2, f"E[G(L_1)] = {est.mean:.4f} +- {est.se:.4f} (oracle 3.0), "
           f"censor {est.censor_rate:.1e}, {elapsed:.1f} s")


@pytest.mark.slow
def test_criterion_3_proposition_audits(eg_batches, profiles):
    t_total0 = time.time()
    cells = 0
    slowest = 0.0
    worst = math.inf
    for dk, dist in MATRIX_DISTS.items():
        batch_half, cfg_half, _ = eg_batches(dk, 0.5)
        batch_one, cfg_one, _ = eg_batches(dk, 1.0)
        prof, _ = profiles(dk)
        for gk, g in MATRIX_GS.items():
            t0 = time.time()
            r1 = prop1_check(dist, g, 0.5, cfg_half, eg_batch=batch_half)
            t1 = time.time() - t0
            assert r1.holds_within >= 0, (dk, gk, "prop1", r1)
            t0 = time.time()
            r2 = prop2_check(dist, g, n_max=HORIZON, seed=cfg_one.seed, profile=prof)
            t2 = time.time() - t0
            lo = 0 if r2.lhs_se == 0 else -4
            assert r2.holds_within >= lo, (dk, gk, "prop2", r2)
            t0 = time.time()
            r3 = prop3_check(dist, g, cfg_one, n_max=HORIZON, eg_batch=batch_one, profile=prof)
            t3 = time.time() - t0
            assert r3.holds_within >= -4, (dk, gk, "prop3", r3)
            for dt in (t1, t2, t3):
                assert dt < 60.0, (dk, gk, dt)
                slowest = max(slowest, dt)
            worst = min(worst, r1.holds_within, r2.holds_within, r3.holds_within)
            cells += 3
    total = time.time() - t_total0
    sim_time = sum(eg_batches(dk, a)[2] for dk in MATRIX_DISTS for a in (0.5, 1.0))
    sim_time += sum(profiles(dk)[1] for dk in MATRIX_DISTS)
    assert sim_time + total < 48 * 60.0
    for dk in MATRIX_DISTS:
        for a in (0.5, 1.0):
            assert eg_batches(dk, a)[2] < 90.0  # shared across 12 cells each
    _ok(3, f"{cells} audits hold (min holds_within {worst:.1f}); slowest cell call "
           f"{slowest:.1f} s, shared sims {sim_time:.0f} s, matrix total {total + sim_time:.0f} s")


@pytest.mark.slow
def test_criterion_4_theorem1_equivalence_matrix():
    specs = ["gaussian:sigma=1", "rademacher", "pareto2:beta=4", "pareto2:beta=1.5"]
    rows = []
    for i, spec in enumerate(specs):
        rows.append(
            theorem1_row(
                spec,
                "power:r=1",
                reps=20_000,
                horizon=2**13,
                n_max=2**14,
                reps_per_block=10_000,
                seed=_rng.derive_seed(ROOT_SEED, 4, i),
            )
        )
    for row in rows[:3]:
        assert row["consistent"], row
        assert row["verdict_a"] == "finite", row
    # Baum-Katz criterion with r = 1: beta = 1.5 has infinite |X|^2 moment
    assert rows[3]["consistent"], rows[3]
    assert rows[3]["verdict_a"] == "divergence-evidence"
    assert rows[3]["verdict_b"] == "diverging-evidence"
    assert rows[3]["verdict_c"] == "divergent-evidence"
    _ok(4, "verdicts (a)=(b)=(c) on all four rows "
           "(three consistent-finite, pareto beta=1.5 consistent-divergent)")


def test_criterion_5_counterexample_reproduction():
    t0 = time.time()
    n_atoms = 100_000
    dist = counterexample_dist(exponential(1.0), n_atoms)
    own = moment_xg(dist, exponential(1.0))
    doubled = moment_xg(dist, exponential(1.0), arg_scale=2.0)
    elapsed = time.time() - t0
    assert own.verdict == "finite"
    assert own.halfwidth <= 1e-9 * own.value  # value pinned within 1e-9
    harmonic = float(np.sum(1.0 / np.arange(1, n_atoms + 1)))
    assert abs(harmonic - 12.0901) < 1e-3
    floor = 2.0 * dist.c * harmonic
    assert doubled.verdict == "divergence-evidence"
    assert doubled.value >= floor
    assert elapsed < 5.0
    _ok(5, f"E|X|G(|X|) = {own.value:.6f} (halfwidth {own.halfwidth:.1e}); doubled-argument "
           f"partial sums {doubled.value:.2f} >= 2cH_N = {floor:.2f}, {elapsed:.2f} s")


def test_criterion_6_combinatorics():
    for p in range(1, 15):
        total = 0
        for q in range(1, p + 1):
            seqs = list(enumerate_compositions(p, q))
            assert len(seqs) == count_compositions(p, q) == math.comb(p - 1, q - 1)
            total += len(seqs)
        assert total == 2 ** (p - 1)
    checked = 0
    for p in range(1, 9):
        cap = math.factorial(2 * p) // 2**p
        for q in range(1, p + 1):
            for d in enumerate_compositions(p, q):
                assert multinomial(2 * p, tuple(2 * x for x in d)) <= cap
                checked += 1
    _ok(6, f"compositions match C(p-1,q-1) for p <= 14 and sum to 2^(p-1); "
           f"M(2p,2d) <= (2p)!/2^p on {checked} compositions for p <= 8")


def test_criterion_7_levy_and_symmetrization():
    # exact enumeration: every m <= 12 and every integer lattice level
    for m in range(1, 13):
        for t in range(0, m + 1):
            rep = levy_maximal_check(rademacher(), m, float(t))
            assert rep.exact
            assert rep.lhs <= rep.rhs + 1e-12, (m, t, rep)
    # Monte Carlo at reps = 1e5 within 4 SE for the continuous kinds
    mc_checks = 0
    for dist, ts in [
        (UniformSymmetric(1.0), (2.0, 4.0, 8.0)),
        (Gaussian(1.0), (8.0, 16.0, 32.0)),
    ]:
        for t in ts:
            rep = levy_maximal_check(dist, 64, t, reps=REPS,
                                     seed=_rng.derive_seed(ROOT_SEED, 7, mc_checks))
            assert not rep.exact and rep.holds, (dist.spec_string(), t, rep)
            mc_checks += 1
    rows = symmetrization_check(rademacher())
    assert all(r["exact"] and r["ok"] for r in rows)
    for i, dist in enumerate([UniformSymmetric(1.0), Gaussian(1.0)]):
        rows = symmetrization_check(dist, reps=REPS, seed=_rng.derive_seed(ROOT_SEED, 8, i))
        assert all(r["ok"] for r in rows), dist.spec_string()
    _ok(7, f"maximal inequality exact on 90 lattice cases (m <= 12) and within 4 SE on "
           f"{mc_checks} MC cases; symmetrization sandwich exact + MC at reps = 1e5")


@pytest.mark.slow
def test_criterion_8_sequential_test():
    t_all = time.time()
    pair = HypothesisSet(alphabet=(0.0, 1.0), masses=((0.5, 0.5), (0.25, 0.75)))
    # (i) Ville bound for c in {10, 100, 1000} under both laws
    for i in (0, 1):
        for j, c in enumerate((10.0, 100.0, 1000.0)):
            rate, se = rejection_rate(
                pair, c, i, REPS, 2048, seed=_rng.derive_seed(ROOT_SEED, 9, i, j)
            )
            assert rate <= 1.0 / c + 4.0 * max(se, 1e-6), (i, c, rate, se)
    # (ii) deterministic all-ones stream
    from itertools import repeat

    record = run_test(pair, (math.e**3, math.e**3), repeat(1.0), 100)
    expected_tau = math.ceil(3.0 / math.log(5.0 / 4.0))
    assert expected_tau == 14
    assert record.tau == 14 and record.decision == 1 and record.rho == (14, None)
    # (iii) optimality sweep down to target error 1e-4
    rows = optimality_sweep(
        pair, [1e-1, 1e-2, 1e-3, 1e-4], 0, power(1), reps=REPS,
        seed=_rng.derive_seed(ROOT_SEED, 10),
    )
    ratios = [r.ratio for r in rows]
    assert ratios[-3] >= ratios[-2] >= ratios[-1], ratios
    assert 0.8 <= ratios[-1] <= 1.3, ratios
    elapsed = time.time() - t_all
    assert elapsed < 300.0
    _ok(8, f"Ville bound at 6 (law, level) pairs; tau = 14 on the all-ones stream; "
           f"sweep ratios {['%.4f' % r for r in ratios]} decreasing into [0.8, 1.3], "
           f"{elapsed:.0f} s")


def test_criterion_9_determinism_across_threads():
    """Representative specs of every report kind, re-run with a different
    thread count: payloads must match byte for byte.

    Determinism does not depend on the replicate scale (all work units sit on
    counter-based substreams), so reduced sizes keep this check quick.
    """
    runner = CliRunner()
    conf = json.dumps(
        {"alphabet": [0, 1], "hypotheses": [[0.5, 0.5], [0.25, 0.75]], "levels": [20.0, 20.0],
         "stream": [1] * 40}
    )
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        conf_path = os.path.join(tmp, "conf.json")
        with open(conf_path, "w") as fh:
            fh.write(conf)
        cases = [
            ["moderate-audit", "--g", "exp:b=1", "--t-max", "100"],
            ["last-exit", "--dist", "rademacher", "--g", "power:r=1", "--a", "1",
             "--horizon", "256", "--reps", "2000"],
            ["series", "--dist", "gaussian:sigma=1", "--g", "power:r=1", "--a", "0.5",
             "--n-max", "512", "--reps-per-block", "1000"],
            ["bounds", "--prop", "1", "--dist", "rademacher", "--g", "power:r=2",
             "--horizon", "256", "--reps", "1000"],
            ["counterexample", "--g", "exp:b=1", "--prefix", "2000"],
            ["sprt", "run", "--config", conf_path],
            ["sprt", "sweep", "--config", conf_path, "--errors", "1e-1,1e-2",
             "--reps", "1000"],
            ["theorem1-matrix", "--dists", "rademacher,gaussian:sigma=1",
             "--g", "power:r=1", "--a-grid", "0.5,1.0", "--reps", "1000",
             "--horizon", "256", "--n-max", "256", "--reps-per-block", "500"],
        ]
        for case in cases:
            out1 = runner.invoke(main, ["--seed", "7", "--threads", "1"] + case)
            out4 = runner.invoke(main, ["--seed", "7", "--threads", "4"] + case)
            assert out1.exit_code == out4.exit_code, case
            assert out1.output == out4.output, case
    _ok(9, f"{len(cases)} report kinds byte-identical across --threads 1 vs 4")
