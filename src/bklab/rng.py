"""Counter-based random streams and the stream layout of path simulations.

Every stochastic routine derives its generator from ``substream(seed, *key)``,
where the key encodes the purpose and the work-unit coordinates (block index,
matrix cell, ...).  Streams are backed by Philox, a counter-based generator,
so a fixed (seed, key) yields the same draws however many worker threads run
and in whatever order the work units are scheduled.

The layout says which draw goes to which (replicate, step).  ``blocks`` cuts
the replicates, in order, into blocks of ``BLOCK`` = 4096 paths; block ``b``
draws from ``substream(seed, *key, b)`` alone.  A block's stream is read in
chunks of ``CHUNK`` = 2048 steps (the Ville walk uses 1024): each chunk is
one ``draw(gen, size * steps)`` reshaped row-major to ``(size, steps)``, so
path ``i`` takes the ``i``-th run of ``steps`` consecutive draws, and only
the last chunk may be shorter.  Generator fills are sequential, so a chunk
may be drawn as consecutive tiles of rows, one ``draw`` each, with the same
draws and generator state.  ``paths`` composes blocks, chunks and tiles, the
one place that turns them into path indices; ``walk`` reads one generator in
chunks drawn whole.  The Wald runs read a block one step of every path
after another, the layout of ``walk(..., chunk=1)``; ``step_major`` reads
those draws in chunks of steps, each one ``draw(gen, steps * size)``
reshaped to ``(steps, size)``, with the same draws because fills
concatenate.  Any change to the layout changes every simulated report
for a fixed seed.  ``PIECE`` = 2^16 draws is the size of one sampler call
that keeps the sampler's temporaries cache-sized.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import DomainError

_MASK64 = (1 << 64) - 1

BLOCK = 4096
CHUNK = 2048
PIECE = 2**16  # draws per sampler call of a walk that draws in pieces

# Purpose tags. Distinct tags keep estimators on independent streams; the
# bound audits require LHS and RHS estimates never to share a stream.  A tag
# is never reused, so a retired one (5, 11) leaves a gap and a new one takes
# a fresh number.
STREAM_SAMPLE = 1
STREAM_LASTEXIT = 2
STREAM_SERIES = 3
STREAM_LEVY = 4
STREAM_MOMENT = 6
STREAM_SYMCHECK = 7
STREAM_SPRT = 8
STREAM_SPRT_REJECT = 9
STREAM_TAILPROB = 10
STREAM_CELL = 12


def _seq(seed: int, key: tuple[int, ...]) -> SeedSequence:
    return SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(int(k) & _MASK64 for k in key),
    )


def substream(seed: int, *key: int) -> Generator:
    """Generator for the (seed, key) work unit, independent of scheduling."""
    return Generator(Philox(_seq(seed, key)))


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit child seed for the (seed, key) coordinate, e.g. a matrix cell."""
    return int(_seq(seed, key).generate_state(1, np.uint64)[0])


def check_size(what: str, v, minimum: int = 1) -> None:
    """Refuse a size that is a bool, not an integer, or below ``minimum``."""
    # a bool is an int, but True is no size
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {v!r}")
    if v < minimum:
        raise DomainError(f"{what} must be >= {minimum}, got {v}")


def blocks(reps: int, seed: int, *key: int):
    """``(start, size, gen)`` for each replicate block of a ``reps``-path run;
    block ``b`` covers paths ``start .. start + size - 1`` and draws from
    ``substream(seed, *key, b)``."""
    check_size("the replicate count", reps)
    return (
        (start, min(BLOCK, reps - start), substream(seed, *key, b))
        for b, start in enumerate(range(0, reps, BLOCK))
    )


def paths(draw, reps: int, n_steps: int, seed: int, *key: int, chunk=CHUNK, rows: int):
    """``(paths, n0, x)`` for each tile of a ``reps``-path walk of ``n_steps``
    steps on stream ``(seed, *key)``, block by block, then chunk by chunk,
    then tile by tile of ``rows`` paths: ``x[r, j]`` is step ``n0 + j`` (steps
    count from 1) of path ``paths.start + r``, drawn as ``draw(gen, k *
    steps).reshape(k, steps)`` for the tile's ``k`` paths.  The draws do not
    depend on ``rows``, and the caller holds one tile of them at a time.  A
    tile may be a view of a buffer that ``draw`` reuses, valid until the next
    tile is drawn."""
    for start, size, gen in blocks(reps, seed, *key):
        for n0 in range(1, n_steps + 1, chunk):
            steps = min(chunk, n_steps - n0 + 1)
            for r0 in range(start, start + size, rows):
                k = min(rows, start + size - r0)
                yield slice(r0, r0 + k), n0, draw(gen, k * steps).reshape(k, steps)


def walk(draw, size: int, gen: Generator, n_steps: int, chunk: int = CHUNK):
    """``(n0, x)`` for consecutive step chunks of ``size`` paths on ``gen``,
    each drawn whole: ``x[r, j]`` is step ``n0 + j`` of path ``r``."""
    for n0 in range(1, n_steps + 1, chunk):
        steps = min(chunk, n_steps - n0 + 1)
        yield n0, draw(gen, size * steps).reshape(size, steps)


def step_major(draw, size: int, gen: Generator, n_steps: int, chunk: int):
    """``(n0, x)`` for consecutive step chunks of ``size`` paths on ``gen``,
    each drawn whole and laid out step-major: ``x[j, r]`` is step ``n0 + j``
    of path ``r``.  These are the draws of ``walk(..., chunk=1)``, one step
    of every path after another, read ``chunk`` steps at a time."""
    for n0 in range(1, n_steps + 1, chunk):
        steps = min(chunk, n_steps - n0 + 1)
        yield n0, draw(gen, steps * size).reshape(steps, size)
