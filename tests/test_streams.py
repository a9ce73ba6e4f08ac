"""Stream-layout pins: fixed digests of every replicate-block walk.

Each case runs one Monte Carlo routine at sizes that cross a replicate-block
boundary (4100 paths, blocks hold 4096) and end in a partial step chunk, and
compares a digest of its output with a value recorded from an earlier build.
A change to which draw lands at which (replicate, step) changes the digests;
a pure refactor of the walking code must not.  The digests were recorded with
numpy 2.4.6; another numpy may draw differently from the same Philox stream.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from bklab import rng
from bklab.distributions import parse_dist_spec
from bklab.errors import DomainError
from bklab.functions import power
from bklab.lastexit import (
    PathConfig,
    deviation_profile,
    estimate_series,
    last_exit_samples,
    levy_maximal_check,
    tail_prob_mean,
)
from bklab.sprt import HypothesisSet, rejection_rate, simulate_runs

REPS = 4100
GAUSS = "gaussian:sigma=1"
PARETO = "pareto2:beta=1.5,scale=1"
HYP = HypothesisSet(alphabet=(0.0, 1.0), masses=((0.5, 0.5), (0.25, 0.75)))
HYP3 = HypothesisSet(
    alphabet=(0.0, 1.0, 2.0),
    masses=((0.6, 0.3, 0.1), (0.2, 0.5, 0.3), (0.1, 0.3, 0.6)),
)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:24]


def _last_exit(spec, horizon):
    batch = last_exit_samples(parse_dist_spec(spec), 0.05, PathConfig(horizon, REPS, 7))
    return _sha(batch.values, batch.censored)


def _profile(spec, n_max):
    prof = deviation_profile(parse_dist_spec(spec), n_max, REPS, 11)
    return _sha(prof.endpoints, prof.small_values, prof.endpoint_values)


def _series(spec, n_max):
    est = estimate_series(parse_dist_spec(spec), power(1), 0.05, n_max, REPS, 5)
    return repr((est.head, est.partial_sum, est.se))


CASES = {
    "last_exit/gaussian/2500": lambda: _last_exit(GAUSS, 2500),
    "last_exit/rademacher/2500": lambda: _last_exit("rademacher", 2500),
    "last_exit/pareto2/2500": lambda: _last_exit(PARETO, 2500),
    "last_exit/rademacher/2048": lambda: _last_exit("rademacher", 2048),
    "last_exit/gaussian/300": lambda: _last_exit(GAUSS, 300),
    "profile/gaussian/100": lambda: _profile(GAUSS, 100),
    "profile/gaussian/3000": lambda: _profile(GAUSS, 3000),
    "profile/rademacher/2048": lambda: _profile("rademacher", 2048),
    "profile/pareto2/3000": lambda: _profile(PARETO, 3000),
    "series/rademacher/3000": lambda: _series("rademacher", 3000),
    "tail_prob/gaussian/2500": lambda: repr(
        tail_prob_mean(parse_dist_spec(GAUSS), 2500, 0.02, REPS, 3)
    ),
    "tail_prob/rademacher/30": lambda: repr(
        tail_prob_mean(parse_dist_spec("rademacher"), 30, 0.3, REPS, 3)
    ),
    "levy/gaussian/2500": lambda: repr(
        levy_maximal_check(parse_dist_spec(GAUSS), 2500, 60.0, REPS, 4)
    ),
    "levy/pareto2/300": lambda: repr(
        levy_maximal_check(parse_dist_spec(PARETO), 300, 40.0, REPS, 4)
    ),
    "rejection/1500": lambda: repr(rejection_rate(HYP, 10.0, 0, REPS, 1500, 9)),
    "rejection/500": lambda: repr(rejection_rate(HYP3, 5.0, 2, REPS, 500, 9)),
    "runs/300": lambda: _sha(*vars(simulate_runs(HYP3, 20.0, 1, REPS, 300, 13)).values()),
}

EXPECTED = {
    "last_exit/gaussian/2500": "716e17e341330c2dc12e5f97",
    "last_exit/gaussian/300": "344c28fb629385dc599d25df",
    "last_exit/pareto2/2500": "17aaa550599a926ad37e4652",
    "last_exit/rademacher/2048": "f927dfd15be85deb944d2700",
    "last_exit/rademacher/2500": "844f25c0429aa0c703b43997",
    "levy/gaussian/2500": "LevyReport(lhs=0.45926829268292685, rhs=0.47268292682926827, lhs_se=0.007782734612809529, rhs_se=0.013269593927863928, exact=False)",
    "levy/pareto2/300": "LevyReport(lhs=0.9763414634146341, rhs=1.4268292682926829, lhs_se=0.0023735745520517167, rhs_se=0.014123296579598571, exact=False)",
    "profile/gaussian/100": "3cb8ee4c5cfc1b18a56f191d",
    "profile/gaussian/3000": "31f73bd50dc17d69382a2eea",
    "profile/pareto2/3000": "71d2e94541c3c83d29c957cb",
    "profile/rademacher/2048": "10669838e7467c20a601a93f",
    "rejection/1500": "(0.09609756097560976, 0.004602831041608768)",
    "rejection/500": "(0.1348780487804878, 0.005334790569817955)",
    "runs/300": "4425cef20683a4fd3a06206e",
    "series/rademacher/3000": "(54.0559965580052, 337.8771993441643, 5.023901537988659)",
    "tail_prob/gaussian/2500": "TailProbEstimate(p_hat=0.3129268292682927, se=0.0072415405447706655, exact=False)",
    "tail_prob/rademacher/30": "TailProbEstimate(p_hat=0.09853658536585366, se=0.004654584069083795, exact=False)",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_layout_pinned(case):
    assert CASES[case]() == EXPECTED[case]


def test_blocks_layout():
    layout = list(rng.blocks(REPS, 5, rng.STREAM_LEVY))
    assert [(start, size) for start, size, _ in layout] == [(0, 4096), (4096, 4)]
    assert layout[1][2].random() == rng.substream(5, rng.STREAM_LEVY, 1).random()


def test_walk_chunks_row_major():
    def draw(gen, n):
        return np.arange(n)

    chunks = list(rng.walk(draw, 2, None, 5, chunk=2))
    assert [n0 for n0, _ in chunks] == [1, 3, 5]
    assert [x.tolist() for _, x in chunks] == [[[0, 1], [2, 3]]] * 2 + [[[0], [1]]]


def test_paths_cut_blocks_chunks_and_tiles_in_order():
    # two blocks, a row count that does not divide a block, a short last chunk
    reps, n_steps, chunk, rows, key = rng.BLOCK + 5, 7, 3, 1000, (3, rng.STREAM_LEVY)
    gens = []

    def draw(gen, n):
        if gen not in gens:
            gens.append(gen)
        return gen.random(n)

    walk = rng.paths(draw, reps, n_steps, *key, chunk=chunk, rows=rows)
    tiles = [(p, n0, x.copy()) for p, n0, x in walk]
    blocks = [(0, rng.BLOCK), (rng.BLOCK, reps)]
    # block by block, chunk by chunk, the tiles covering each block in order
    assert [(p.start, p.stop, n0) for p, n0, _x in tiles] == [
        (r0, min(r0 + rows, hi), n0)
        for lo, hi in blocks
        for n0 in (1, 4, 7)
        for r0 in range(lo, hi, rows)
    ]
    assert len(gens) == len(blocks)
    for b, (lo, hi) in enumerate(blocks):
        # the tiles of a (block, chunk) hold the draws of the whole chunk,
        # row-major, and leave the block's generator where a whole walk does
        ref = rng.substream(*key, b)
        for n0, whole in rng.walk(lambda g, n: g.random(n), hi - lo, ref, n_steps, chunk):
            got = [x for p, m0, x in tiles if m0 == n0 and lo <= p.start < hi]
            assert np.array_equal(np.concatenate(got), whole)
        assert repr(gens[b].bit_generator.state) == repr(ref.bit_generator.state)


def test_step_major_chunks_hold_the_per_step_draws():
    # 5 paths and 19 steps in chunks of 8: the last chunk holds 3 steps
    size, n_steps, key = 5, 19, (3, rng.STREAM_SPRT, 0)
    gen, ref = rng.substream(*key), rng.substream(*key)
    draw = lambda g, n: g.random(n)
    chunks = list(rng.step_major(draw, size, gen, n_steps, 8))
    assert [(n0, x.shape) for n0, x in chunks] == [(1, (8, 5)), (9, (8, 5)), (17, (3, 5))]
    # x[j, r] is step n0 + j of path r, the draws of a walk one step at a time
    steps = [x[:, 0] for _n0, x in rng.walk(draw, size, ref, n_steps, chunk=1)]
    assert np.array_equal(np.concatenate([x for _n0, x in chunks]), np.stack(steps))
    assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state)


# Only ``rng.paths`` turns blocks and tiles into path indices, and ``_f32``
# draws only for it; ``simulate_runs`` walks block by block so that it can
# stop reading a finished block.
SRC = Path(__file__).resolve().parents[1] / "src" / "bklab"
_BANNED = {
    "lastexit": {"_rng.tiles", "_rng.blocks", "_rng.walk", "_rng.step_major"},
    "sprt": {"_rng.tiles", "_rng.blocks"},
}


def test_only_rng_turns_the_layout_into_paths():
    found = []
    for module, banned in _BANNED.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_rng.paths":
                exempt.add(id(node.args[0]))
            elif isinstance(node, ast.FunctionDef) and node.name == "simulate_runs":
                exempt.update(id(n) for n in ast.walk(node) if ast.unparse(n) == "_rng.blocks")
        for node in ast.walk(tree):
            read = isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) in banned
            draw = isinstance(node, ast.Call) and ast.unparse(node.func) == "_f32"
            if (read or draw) and id(node) not in exempt:
                found.append(f"{module}.py:{node.lineno}: {ast.unparse(node)}")
    assert not found, "stream layout read outside rng.paths:\n" + "\n".join(found)


@pytest.mark.parametrize("reps", [0, -5])
def test_blocks_reject_empty_runs(reps):
    with pytest.raises(DomainError, match="replicate count"):
        rng.blocks(reps, 0, rng.STREAM_LEVY)


@pytest.mark.parametrize("reps", [0, -5])
def test_routines_reject_empty_runs(reps):
    gauss = parse_dist_spec(GAUSS)
    calls = [
        lambda: tail_prob_mean(gauss, 50, 0.1, reps),
        lambda: levy_maximal_check(gauss, 50, 1.0, reps),
        lambda: deviation_profile(gauss, 100, reps),
        lambda: estimate_series(parse_dist_spec("rademacher"), power(1), 0.5, 128, reps),
        lambda: rejection_rate(HYP, 10.0, 0, reps, 100),
        lambda: simulate_runs(HYP, 10.0, 0, reps, 100, 0),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="replicate count"):
            call()
