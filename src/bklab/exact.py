"""Exact laws of S_1, ..., S_n for lattice laws, by enumeration.

A lattice law (``Distribution.lattice`` is not None) has finitely many atoms
``origin + step * k`` for integers k, so the law of S_n is a mass vector
over lattice positions.  ``lastexit`` takes the exact head of its deviation
series from here, and its tail probabilities and Levy sides for walks of up
to ``MAX_STEPS`` steps; it simulates everything else.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Distribution, lattice_add
from .errors import DomainError, PreconditionError
from .rng import check_size

MAX_STEPS = 20  # longest walk whose tail or Levy sides lastexit enumerates


def check_threshold(name: str, x: float) -> None:
    """Refuse a level that is not finite and nonnegative."""
    if not 0 <= x < math.inf:  # NaN passes no comparison
        raise DomainError(f"{name} must be finite and nonnegative, got {x!r}")


def _check(dist: Distribution, n: int, a: float) -> None:
    check_size("n", n)
    if dist.lattice is None:
        raise PreconditionError("exact enumeration needs a finite-support lattice law")
    check_threshold("a", a)


def lattice_sums(dist: Distribution, n: int):
    """Yield ``(values, masses)`` of S_1, ..., S_n for a lattice law.  The
    caller may zero ``masses`` in place to drop those paths from later steps."""
    origin, step, offsets, probs = dist.lattice
    masses = np.ones(1)
    for i in range(1, n + 1):
        masses = lattice_add(masses, offsets, probs)
        yield i * origin + step * np.arange(len(masses)), masses


def _beyond(dist: Distribution, values: np.ndarray, level: float) -> np.ndarray:
    """Lattice positions with |s| >= level; one within 1e-9 lattice steps
    below the level counts as on it."""
    return np.abs(values) >= level - 1e-9 * dist.lattice[1]


def exact_dev_prob(dist: Distribution, n: int, a: float) -> float:
    """P[|S_n/n| >= a] by exact enumeration (finite-support lattice laws)."""
    return dev_probs(dist, n, a)[-1]


def dev_probs(dist: Distribution, n: int, a: float) -> list[float]:
    """P[|S_k/k| >= a] for k = 1, ..., n from one enumeration."""
    _check(dist, n, a)
    return [
        math.fsum(masses[_beyond(dist, values, a * k)])
        for k, (values, masses) in enumerate(lattice_sums(dist, n), start=1)
    ]


def levy_sides(dist: Distribution, m: int, t: float) -> tuple[float, float]:
    """Exact sides P[max_{k<=m} |S_k| >= t] and 2 P[|S_m| >= t] of the Levy
    maximal inequality."""
    _check(dist, m, t)
    # A path leaves the walk once |S_k| >= t; the mass that left is the lhs.
    left = []
    for values, alive in lattice_sums(dist, m):
        out = _beyond(dist, values, t)
        left.extend(alive[out])
        alive[out] = 0.0
    return math.fsum(left), 2.0 * exact_dev_prob(dist, m, t / m)
