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

Threads never change the layout.  ``threads(n)`` sets the thread count of
the walks started under it, the one value ``paths`` reads; at two or more,
on a machine with two or more cores, a walk of more than one tile draws the
next tile on one helper thread while its caller works on the current one.
The helper makes the same ``draw`` calls on the same generators in the same
order, so every draw keeps its bits, and it stops when the walk ends,
however the walk ends.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar

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


_THREADS = ContextVar("bklab_threads", default=1)


@contextmanager
def threads(n: int):
    """Run the walks started inside the block at a thread count of ``n``."""
    token = _THREADS.set(n)
    try:
        yield
    finally:
        _THREADS.reset(token)


def draws_ahead() -> bool:
    """Whether a walk of more than one tile started here draws the next tile
    on a helper thread: at a thread count of two or more on two or more
    cores.  Its ``draw`` must then leave the tile it returned last valid
    while it fills the next."""
    return _THREADS.get() >= 2 and (os.cpu_count() or 1) >= 2


def paths(draw, reps: int, n_steps: int, seed: int, *key: int, chunk=CHUNK, rows: int):
    """``(paths, n0, x)`` for each tile of a ``reps``-path walk of ``n_steps``
    steps on stream ``(seed, *key)``, block by block, then chunk by chunk,
    then tile by tile of ``rows`` paths: ``x[r, j]`` is step ``n0 + j`` (steps
    count from 1) of path ``paths.start + r``, drawn as ``draw(gen, k *
    steps).reshape(k, steps)`` for the tile's ``k`` paths.  The draws do not
    depend on ``rows``, and the caller holds one tile of them at a time, two
    when the walk draws ahead (``draws_ahead``).  A tile may be a view of a
    buffer that ``draw`` reuses, valid until the caller asks for the next
    tile."""
    tiles = _tiles(blocks(reps, seed, *key), n_steps, chunk, rows)
    if (reps > rows or n_steps > chunk) and draws_ahead():
        yield from _drawn_ahead(draw, tiles)
    else:
        for tile, n0, gen, k, steps in tiles:
            yield tile, n0, draw(gen, k * steps).reshape(k, steps)


def _tiles(runs, n_steps, chunk, rows):
    """``(paths, n0, gen, k, steps)`` for each tile of ``paths``, in order,
    from the ``(start, size, gen)`` of each block in ``runs``."""
    for start, size, gen in runs:
        for n0 in range(1, n_steps + 1, chunk):
            steps = min(chunk, n_steps - n0 + 1)
            for r0 in range(start, start + size, rows):
                k = min(rows, start + size - r0)
                yield slice(r0, r0 + k), n0, gen, k, steps


def _drawn_ahead(draw, tiles):
    """The tiles of ``paths``, each drawn on one helper thread while the
    caller works on the tile before it.  The caller plans the tiles and
    hands the helper one at a time, in order; an error raised in ``draw`` is
    raised to the caller, and the helper is stopped and joined when the walk
    ends, is closed, or fails."""
    from queue import SimpleQueue  # only a walk that draws ahead needs it

    todo, drawn = SimpleQueue(), SimpleQueue()

    def helper():
        for tile, n0, gen, k, steps in iter(todo.get, None):
            try:
                drawn.put((tile, n0, draw(gen, k * steps).reshape(k, steps)))
            except BaseException as exc:  # the caller raises it; no error leaves it waiting
                drawn.put(exc)

    def ask():
        tile = next(tiles, None)
        if tile is not None:
            todo.put(tile)
        return tile

    thread = threading.Thread(target=helper, name="bklab-draw-ahead", daemon=True)
    thread.start()
    try:
        pending = ask()
        while pending is not None:
            out = drawn.get()
            if isinstance(out, BaseException):
                raise out
            # The caller is done with the tile before ``out``, so the helper
            # may draw the next one over it.
            pending = ask()
            yield out
    finally:
        todo.put(None)
        thread.join()


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
