"""Counter-based random streams and the stream layout of path simulations.

Every stochastic routine derives its generator from ``substream(seed, *key)``,
where the key encodes the purpose and the work-unit coordinates (block index,
matrix cell, ...).  Streams are backed by Philox, a counter-based generator,
so a fixed (seed, key) yields the same draws however many worker threads run
and in whatever order the work units are scheduled.

The layout says which draw goes to which (replicate, step).  ``blocks`` cuts
the replicates, in order, into blocks of ``BLOCK`` = 4096 paths; block ``b``
draws from ``substream(seed, *key, b)`` alone.  ``walk`` reads a block's
stream in chunks of ``CHUNK`` = 2048 steps (``sprt.rejection_rate`` uses 1024,
``sprt.simulate_runs`` one; the ``sprt run`` simulate block walks one path in
``CHUNK`` steps as the test reads them): each chunk is one ``draw(gen, size *
steps)`` reshaped row-major to ``(size, steps)``, so path ``i`` takes the
``i``-th run of ``steps`` consecutive draws, and only the last chunk may be
shorter.  Any change to the layout changes every simulated report for a
fixed seed.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1

BLOCK = 4096
CHUNK = 2048

# Purpose tags. Distinct tags keep estimators on independent streams; the
# bound audits require LHS and RHS estimates never to share a stream.
STREAM_SAMPLE = 1
STREAM_LASTEXIT = 2
STREAM_SERIES = 3
STREAM_LEVY = 4
STREAM_MEDIAN = 5
STREAM_MOMENT = 6
STREAM_SYMCHECK = 7
STREAM_SPRT = 8
STREAM_SPRT_REJECT = 9
STREAM_TAILPROB = 10
STREAM_SYM_TRANSFER = 11
STREAM_CELL = 12


def _seq(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(int(k) & _MASK64 for k in key),
    )


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, key) work unit, independent of scheduling."""
    return np.random.Generator(np.random.Philox(_seq(seed, key)))


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit child seed for the (seed, key) coordinate, e.g. a matrix cell."""
    return int(_seq(seed, key).generate_state(1, np.uint64)[0])


def blocks(reps: int, seed: int, *key: int):
    """``(start, size, gen)`` for each replicate block of a ``reps``-path run;
    block ``b`` covers paths ``start .. start + size - 1`` and draws from
    ``substream(seed, *key, b)``."""
    if reps < 1:
        raise DomainError(f"the replicate count must be >= 1, got {reps}")
    return (
        (start, min(BLOCK, reps - start), substream(seed, *key, b))
        for b, start in enumerate(range(0, reps, BLOCK))
    )


def walk(draw, size: int, gen: np.random.Generator, n_steps: int, chunk: int = CHUNK):
    """``(n0, x)`` for consecutive step chunks of ``size`` paths: ``x[:, j]``
    is step ``n0 + j`` (steps count from 1), drawn as
    ``draw(gen, size * steps).reshape(size, steps)``."""
    for n0 in range(1, n_steps + 1, chunk):
        steps = min(chunk, n_steps - n0 + 1)
        yield n0, draw(gen, size * steps).reshape(size, steps)
