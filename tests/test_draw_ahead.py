"""The draw-ahead helper of ``rng.paths``: when it starts, how many, and that
none outlives its walk.

At a thread count of two or more (``rng.threads``) on two or more cores, a
walk of more than one tile draws the next tile on one helper thread.  The
helper makes the walk's draws in their order, so the tiles are those of a
walk that draws them itself; it is stopped and joined however the walk
ends.  Threads are counted with ``threading.active_count()`` while the walk
runs, never by starting many: no test runs more than four walks at once.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from bklab import cli, rng
from bklab.distributions import Gaussian
from bklab.lastexit import _f32

ROWS = 256
REPS, STEPS = 4096 + 2 * ROWS + 5, 2 * 1024 + 3  # two blocks, a short tile, a short chunk


def _draw(gen, n):
    return gen.random(n, dtype=np.float32)


def _walk(draw=_draw, reps=REPS, steps=STEPS):
    return rng.paths(draw, reps, steps, 4, rng.STREAM_SAMPLE, chunk=1024, rows=ROWS)


@pytest.fixture
def cores(monkeypatch):
    """Set the core count that ``rng.draws_ahead`` reads."""
    return lambda n: monkeypatch.setattr(os, "cpu_count", lambda: n)


def _threads_during(walk) -> list:
    """The live thread count at each tile of ``walk``, which is run out."""
    return [threading.active_count() for _tile in walk]


def test_tiles_drawn_ahead_match_tiles_drawn_in_place(cores):
    cores(2)
    plain = [(p, n0, x.copy()) for p, n0, x in _walk()]
    with rng.threads(2):
        ahead = [(p, n0, x.copy()) for p, n0, x in _walk()]
    assert len(ahead) == len(plain) == (16 + 3) * 3  # tiles per chunk, by chunks
    for (p, n0, x), (q, m0, y) in zip(ahead, plain):
        assert (p, n0) == (q, m0)
        assert np.array_equal(x.view(np.uint32), y.view(np.uint32))


@pytest.mark.parametrize("threads", [2, 10**6])
def test_a_walk_starts_one_helper_at_most(threads, cores):
    cores(2)
    base = threading.active_count()
    with rng.threads(threads):
        during = _threads_during(_walk())
    assert max(during) == base + 1
    assert threading.active_count() == base


@pytest.mark.parametrize(
    "threads,n_cores,reps,steps",
    [
        (1, 2, REPS, STEPS),  # one thread
        (4, 1, REPS, STEPS),  # one core
        (4, 2, ROWS, 1024),  # one tile
    ],
    ids=["one-thread", "one-core", "one-tile"],
)
def test_no_helper(threads, n_cores, reps, steps, cores):
    cores(n_cores)
    base = threading.active_count()
    with rng.threads(threads):
        assert set(_threads_during(_walk(reps=reps, steps=steps))) == {base}


def test_no_helper_outside_a_thread_count(cores):
    cores(2)
    assert not rng.draws_ahead()
    with rng.threads(2):
        assert rng.draws_ahead()
        with rng.threads(1):
            assert not rng.draws_ahead()
        assert rng.draws_ahead()
    assert not rng.draws_ahead()


class _Stop(Exception):
    pass


def _break():
    for i, _tile in enumerate(_walk()):
        if i == 2:
            break


def _raise_in_body():
    for i, _tile in enumerate(_walk()):
        if i == 2:
            raise _Stop("raised in the loop body")


def _raise_in_draw():
    calls = []

    def draw(gen, n):
        calls.append(n)
        if len(calls) == 3:
            raise _Stop("raised in draw")
        return _draw(gen, n)

    for _tile in _walk(draw):
        pass


@pytest.mark.parametrize(
    "end,error",
    [(_break, None), (_raise_in_body, "in the loop body"), (_raise_in_draw, "in draw")],
    ids=["break", "body-raises", "draw-raises"],
)
def test_an_abandoned_walk_stops_its_helper(end, error, cores):
    cores(2)
    base = threading.active_count()
    with rng.threads(2):
        if error is None:
            end()
        else:
            with pytest.raises(_Stop, match=error):
                end()
    assert threading.active_count() == base


@pytest.mark.parametrize(
    "dists,n_max,helpers",
    [
        (["gaussian:sigma=1", "uniform:w=1"], 512, 0),  # four jobs on a pool of two
        (["rademacher"], 64, 1),  # one job, the last-exit walk, run by the caller
    ],
    ids=["pool", "one-job"],
)
def test_matrix_pool_jobs_draw_nothing_ahead(dists, n_max, helpers, cores, monkeypatch):
    cores(2)
    walks = []
    drawn_ahead = rng._drawn_ahead
    monkeypatch.setattr(rng, "_drawn_ahead", lambda *a: walks.append(None) or drawn_ahead(*a))
    spec = {"kind": "theorem1-matrix", "dists": dists, "g": "power:r=1", "a_grid": [0.5, 1.0],
            "reps": 1000, "horizon": 512, "n_max": n_max, "reps_per_block": 500, "threads": 2}
    cli.run_experiment(spec)
    assert len(walks) == helpers


def test_walks_drawing_ahead_on_more_threads_than_cores_keep_their_tiles(cores):
    # Four walks at once, each with its helper, on a short switch interval:
    # a helper that drew over the tile its caller still reads would change
    # the copy the caller takes after a pause.
    cores(2)

    def tiles():
        walk = rng.paths(_f32(Gaussian(1.0)), 700, 300, 5, rng.STREAM_SAMPLE, chunk=128, rows=64)
        out = []
        for _paths, _n0, x in walk:
            time.sleep(1e-4)
            out.append(x.copy())
        return out

    want = tiles()
    got = [None] * 4

    def run(i):
        with rng.threads(2):
            got[i] = tiles()

    workers = [threading.Thread(target=run, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for tiles_of_one in got:
        assert len(tiles_of_one) == len(want)
        for x, y in zip(tiles_of_one, want):
            assert np.array_equal(x.view(np.uint32), y.view(np.uint32))
