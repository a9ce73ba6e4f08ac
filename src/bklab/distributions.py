"""Increment-law models: sampling, moment functionals, tails, truncation
thresholds, symmetrization, and the non-moderate counterexample law.

Every law is immutable after construction and sampling is pure given
(seed, indices), so instances are safe to share across threads.  Sampling
consumes a fixed, single pass of the underlying uniform stream per draw
wherever possible, so the i-th draw does not depend on how many draws were
requested in total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np
import numpy.ma  # noqa: F401  np.unique imports it on first call; load it with bklab instead

from . import rng as _rng
from .errors import (
    DomainError,
    PrecisionError,
    PreconditionError,
    UnsupportedOperationError,
)
from .functions import (
    REQUIRED,
    ModerateFunction,
    doubling_witness_exp,
    parse_function_spec,
    parse_spec,
    spec_number,
)
from .quadrature import doubling_edges, geometric_tail, panel_integrals
from .report import DIVERGENT, FINITE, MOMENT, Verdict

_QUAD_REL_TOL = 1e-9  # a dyadic quadrature segment below this share ends the sum
_QUAD_BLOW_UP = 1e6  # total past which a growing segment sum is divergence evidence
_QUAD_TIE = 1e-12  # segments this close, relative, count as equal in the trend tests
_TRUNC_RATIO = 1.001  # truncation_threshold ladder: _TRUNC_FLOOR * ratio^k up to _TRUNC_CAP
_TRUNC_FLOOR = 1e-6
_TRUNC_CAP = 1e12


@dataclass(frozen=True)
class MomentEstimate:
    """E[|X| G(scale |X|)] with an evidence verdict.

    ``se`` is the Monte Carlo standard error (0 for deterministic modes);
    ``halfwidth`` is a deterministic remainder bound when one is available.
    """

    value: float
    verdict: Verdict
    se: float = 0.0
    halfwidth: float = 0.0
    mode: str = "analytic"


@dataclass(frozen=True)
class TailEstimate:
    value: float
    se: float
    exact: bool


class Distribution:
    """Common interface of all increment laws."""

    name = "abstract"
    symmetric = False
    lattice = None  # (origin, step, offsets, masses) when the atoms lie on a lattice

    def mean(self) -> float:
        if self.symmetric:
            return 0.0
        raise NotImplementedError

    def sample_array(self, gen: np.random.Generator, n: int, dtype=np.float64) -> np.ndarray:
        raise NotImplementedError

    # Analytic hooks; None means "no closed form": estimators then fall back
    # to Monte Carlo, or refuse the law where they need the closed form.
    def atoms(self):
        return None

    def abs_pdf(self, x):
        """Density of |X| at scalar or array x (0 off the support)."""
        return None

    def abs_support(self):
        return None

    def tail_exact(self, t: float) -> float | None:
        return None

    def abs_mean_exact(self) -> float | None:
        return None

    def abs_trunc_moment_exact(self, t) -> np.ndarray | None:
        """E[|X| ; |X| >= t] for array t, when closed-form."""
        return None

    def median_exact(self) -> float | None:
        return 0.0 if self.symmetric else None

    def spec_string(self) -> str:
        return self.name

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"


def _elementwise(pdf):
    """Let a density written for a 1-d float array take a scalar or an array
    of any shape.  A scalar runs through the same array loops, so it gets
    the same bits as the matching element of an array."""

    @wraps(pdf)
    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = pdf(self, x.reshape(-1)).reshape(x.shape)
        return float(out) if x.ndim == 0 else out

    return density


def _atom_trunc_moment(av: np.ndarray, mass: np.ndarray):
    """t -> E[|X| ; |X| >= t] for array t, for the law with mass ``mass[i]``
    at |X| = ``av[i]``: the magnitudes are sorted once and the suffix sums of
    |v| * mass read with ``searchsorted``, in memory linear in atoms plus t."""
    order = np.argsort(av, kind="stable")
    av = av[order]
    above = np.append(np.cumsum((av * mass[order])[::-1])[::-1], 0.0)
    return lambda t: above[np.searchsorted(av, np.asarray(t, dtype=float))]


# Widest atom offset of a lattice law: a memory guard, so that atoms such as
# (0, 1e-6, 1) take the Monte Carlo paths instead of n * 1e6 positions.
LATTICE_SPAN = 1024


def lattice_add(masses: np.ndarray, offsets: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Law of K + J: K has ``masses`` on 0, 1, ..., and J, independent, has
    ``probs`` on ``offsets``.  Shifts add in descending offset order."""
    out = np.zeros(len(masses) + int(offsets.max()))
    for i in np.argsort(offsets, kind="stable")[::-1]:
        out[offsets[i] : offsets[i] + len(masses)] += masses * probs[i]
    return out


@dataclass(frozen=True, repr=False)
class Discrete(Distribution):
    """Finitely many atoms; covers the Rademacher and Bernoulli kinds."""

    values: tuple
    probs: tuple
    name: str = "discrete"

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if len(self.values) != len(p) or len(p) == 0:
            raise DomainError("values and probs must be equal-length and nonempty")
        if not np.all(np.isfinite(self._vals)):
            raise DomainError(f"atoms must be finite, got {self.values}")
        if not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-12):
            raise DomainError("atom masses must be nonnegative and sum to 1 within 1e-12")

    @cached_property
    def _vals(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def _probs(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.cumsum(self._probs)

    @cached_property
    def symmetric(self) -> bool:  # type: ignore[override]
        # Symmetric iff the mass function is even.
        forward = sorted(zip(self._vals, self._probs))
        backward = sorted(zip(-self._vals, self._probs))
        return all(
            abs(a - c) < 1e-12 and abs(b - d) < 1e-12
            for (a, b), (c, d) in zip(forward, backward)
        )

    def mean(self) -> float:
        return float(np.dot(self._vals, self._probs))

    @cached_property
    def _two_atom_f32(self) -> tuple:
        """``(cut, bits of v1, bits of v0 ^ bits of v1)`` in float32."""
        b0, b1 = np.array(self.values, dtype=np.float32).view(np.uint32)
        # A float32 uniform is k 2^-24, so u < p0 holds exactly when
        # u < ceil(p0 2^24) 2^-24, a value float32 holds exactly; p0 rounded
        # to float32 would not be exact.
        return np.float32(math.ceil(self._probs[0] * 2.0**24) * 2.0**-24), b1, b0 ^ b1

    @cached_property
    def _trunc_moment(self):
        return _atom_trunc_moment(np.abs(self._vals), self._probs)

    def sample_array(self, gen, n, dtype=np.float64):
        """Atom i where the uniform u falls in [cum_{i-1}, cum_i).

        Every draw reads one ``gen.random`` uniform in the dtype asked for,
        whatever the number of atoms, so the stream layout does not depend
        on the branch.  Float32 draws of two atoms, the draws of every walk,
        test u < p0 against a cut that is exact on the float32 grid and pick
        the atom by its bits, ``((u < cut) * (b0 ^ b1)) ^ b1``, which is
        exact for any pair, -0.0 included: the values are those of
        ``np.where(u < p0, v0, v1)`` with the comparison made in float64,
        which is what ``searchsorted`` gives every other draw."""
        ftype = np.float32 if dtype == np.float32 else np.float64
        u = gen.random(n, dtype=ftype)
        if ftype is np.float32 and len(self.values) == 2:
            cut, b1, flip = self._two_atom_f32
            m = (u < cut).astype(np.uint32)
            m *= flip
            m ^= b1
            return m.view(np.float32)
        idx = np.searchsorted(self._cum, u, side="right")
        return self._vals[np.minimum(idx, len(self.values) - 1)].astype(dtype, copy=False)

    def atoms(self):
        return self._vals, self._probs

    @cached_property
    def lattice(self):  # type: ignore[override]
        """``(origin, step, offsets, masses)`` with atom i at origin + step *
        offsets[i] within 1e-9 step; None if no offsets up to LATTICE_SPAN fit."""
        origin = float(self._vals.min())
        gaps = self._vals - origin
        spacing = np.diff(np.unique(gaps))
        base = float(spacing.min()) if spacing.size else (abs(origin) or 1.0)
        for d in range(1, LATTICE_SPAN + 1):
            step = base / d
            offsets = np.rint(gaps / step)
            if offsets.max() > LATTICE_SPAN:
                return None
            if np.all(np.abs(gaps - offsets * step) <= 1e-9 * step):
                return origin, step, offsets.astype(np.int64), self._probs
        return None

    def tail_exact(self, t):
        return float(self._probs[np.abs(self._vals) >= t].sum())

    def abs_mean_exact(self):
        return float(np.dot(np.abs(self._vals), self._probs))

    def abs_trunc_moment_exact(self, t):
        return self._trunc_moment(t)

    def median_exact(self):
        if self.symmetric:
            return 0.0
        # Smallest atom m with P[Y <= m] >= 1/2 and P[Y >= m] >= 1/2.
        order = np.argsort(self._vals)
        v, p = self._vals[order], self._probs[order]
        below = np.cumsum(p)
        above = np.cumsum(p[::-1])[::-1]
        for vi, lo, hi in zip(v, below, above):
            if lo >= 0.5 - 1e-12 and hi >= 0.5 - 1e-12:
                return float(vi)
        return float(v[-1])

    def spec_string(self):
        if self.name == "rademacher":
            return "rademacher"
        if self.name == "bernoulli":
            p = float(self._probs[1])
            v0, v1 = (spec_number(v) for v in self.values)
            return f"bernoulli:p={spec_number(p)},v0={v0},v1={v1}"
        inner = ";".join(
            f"{spec_number(v)}@{spec_number(p)}" for v, p in zip(self.values, self.probs)
        )
        return f"discrete:{inner}"


def rademacher() -> Discrete:
    return Discrete((-1.0, 1.0), (0.5, 0.5), name="rademacher")


def bernoulli(p: float, values: tuple = (0.0, 1.0)) -> Discrete:
    if not (0.0 < p < 1.0):
        raise DomainError("bernoulli needs p in (0, 1)")
    if len(values) != 2:
        raise DomainError("bernoulli takes exactly two values")
    return Discrete(tuple(float(v) for v in values), (1.0 - p, p), name="bernoulli")


@dataclass(frozen=True, repr=False)
class UniformSymmetric(Distribution):
    half_width: float = 1.0
    name = "uniform"
    symmetric = True

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise DomainError(f"half_width must be positive and finite, got {self.half_width!r}")

    def sample_array(self, gen, n, dtype=np.float64):
        x = gen.random(n, dtype=np.float32 if dtype == np.float32 else np.float64)
        x *= 2.0
        x -= 1.0
        x *= self.half_width
        return x

    @_elementwise
    def abs_pdf(self, x):
        return np.where((x >= 0) & (x <= self.half_width), 1.0 / self.half_width, 0.0)

    def abs_support(self):
        return 0.0, self.half_width

    def tail_exact(self, t):
        w = self.half_width
        return float(np.clip(1.0 - t / w, 0.0, 1.0))

    def abs_mean_exact(self):
        return self.half_width / 2.0

    def abs_trunc_moment_exact(self, t):
        w = self.half_width
        tc = np.clip(np.asarray(t, dtype=float), 0.0, w)
        return (w * w - tc * tc) / (2.0 * w)

    def spec_string(self):
        return f"uniform:w={spec_number(self.half_width)}"


@dataclass(frozen=True, repr=False)
class TwoSidedPareto(Distribution):
    """Symmetric law with |X| Pareto: P[|X| >= t] = (scale/t)^beta for t >= scale."""

    beta: float
    scale: float = 1.0
    name = "pareto2"
    symmetric = True

    def __post_init__(self):
        if not (0 < self.beta < math.inf and 0 < self.scale < math.inf):
            raise DomainError(
                f"pareto needs finite beta > 0 and scale > 0, got {self.beta!r} and {self.scale!r}"
            )

    def sample_array(self, gen, n, dtype=np.float64):
        # One uniform per draw: v = 2u-1 has |v| uniform on [0,1) independent
        # of sign(v), and |X| = scale |v|^(-1/beta) is the inverse transform.
        # |v| is clamped at the uniform grid's own quantum: the zero atom of
        # the quantized uniform then carries the same mass as the true tail
        # beyond the resulting cap, instead of inflating it.
        if dtype == np.float32:
            v = gen.random(n, dtype=np.float32)
            quantum = dtype(2.0**-23)
        else:
            v = gen.random(n)
            quantum = dtype(2.0**-53)
        # The transforms work in place on the generator's fresh array: the
        # same ufunc loops in the same dtype give the same bits, with two
        # arrays alive instead of four.
        v *= 2.0
        v -= 1.0
        mag = np.abs(v)
        np.maximum(mag, quantum, out=mag)
        mag **= -1.0 / self.beta
        if self.scale != 1.0:
            mag *= self.scale
        return np.copysign(mag, v, out=mag)

    @_elementwise
    def abs_pdf(self, x):
        b, s = self.beta, self.scale
        return np.where(x >= s, b * s**b * np.maximum(x, s) ** (-b - 1.0), 0.0)

    def abs_support(self):
        return self.scale, math.inf

    def tail_exact(self, t):
        if t <= self.scale:
            return 1.0
        return float((self.scale / t) ** self.beta)

    def abs_mean_exact(self):
        if self.beta <= 1.0:
            return None
        return self.beta * self.scale / (self.beta - 1.0)

    def abs_trunc_moment_exact(self, t):
        if self.beta <= 1.0:
            return None
        t = np.asarray(t, dtype=float)
        full = self.beta * self.scale / (self.beta - 1.0)
        tc = np.maximum(t, self.scale)
        tail = self.beta * self.scale**self.beta * tc ** (1.0 - self.beta) / (self.beta - 1.0)
        return np.where(t <= self.scale, full, tail)

    def spec_string(self):
        return f"pareto2:beta={spec_number(self.beta)},scale={spec_number(self.scale)}"


@dataclass(frozen=True, repr=False)
class Gaussian(Distribution):
    sigma: float = 1.0
    name = "gaussian"
    symmetric = True

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be positive and finite, got {self.sigma!r}")

    def sample_array(self, gen, n, dtype=np.float64):
        x = gen.standard_normal(n, dtype=np.float32 if dtype == np.float32 else np.float64)
        x *= self.sigma
        return x

    @_elementwise
    def abs_pdf(self, x):
        s = self.sigma
        return np.where(x >= 0, math.sqrt(2.0 / math.pi) / s * np.exp(-0.5 * (x / s) ** 2), 0.0)

    def abs_support(self):
        return 0.0, math.inf

    def tail_exact(self, t):
        return float(math.erfc(t / (self.sigma * math.sqrt(2.0))))

    def abs_mean_exact(self):
        return self.sigma * math.sqrt(2.0 / math.pi)

    def abs_trunc_moment_exact(self, t):
        t = np.asarray(t, dtype=float)
        s = self.sigma
        return s * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * (t / s) ** 2)

    def spec_string(self):
        return f"gaussian:sigma={spec_number(self.sigma)}"


@dataclass(frozen=True, repr=False)
class TriangularSymmetric(Distribution):
    """Difference of two independent uniforms; density (W-|x|)/W^2 on [-W, W]."""

    half_width: float
    name = "triangular"
    symmetric = True

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise DomainError(f"half_width must be positive and finite, got {self.half_width!r}")

    def sample_array(self, gen, n, dtype=np.float64):
        v = gen.random(n, dtype=np.float32 if dtype == np.float32 else np.float64)
        v *= 2.0
        v -= 1.0
        mag = np.abs(v)
        np.subtract(1.0, mag, out=mag)
        np.sqrt(mag, out=mag)
        np.subtract(1.0, mag, out=mag)
        mag *= self.half_width
        return np.copysign(mag, v, out=mag)

    @_elementwise
    def abs_pdf(self, x):
        w = self.half_width
        return np.where((x >= 0) & (x <= w), 2.0 * (w - x) / (w * w), 0.0)

    def abs_support(self):
        return 0.0, self.half_width

    def tail_exact(self, t):
        w = self.half_width
        if t >= w:
            return 0.0
        return float(((w - t) / w) ** 2)

    def abs_mean_exact(self):
        return self.half_width / 3.0

    def abs_trunc_moment_exact(self, t):
        w = self.half_width
        tc = np.clip(np.asarray(t, dtype=float), 0.0, w)
        return (2.0 / (w * w)) * (w * (w * w - tc * tc) / 2.0 - (w**3 - tc**3) / 3.0)

    def spec_string(self):
        return f"triangular:w={spec_number(self.half_width)}"


def normalize_counterexample(g: ModerateFunction, ts, prefix: int) -> CounterexampleDist:
    """Choose c so that stored mass plus the tail bound equals 1.

    The tail of the weight series is controlled by sum_{n>N} n^-2 < 1/N
    together with the monotone growth of t_n G(t_n); if that bound exceeds
    1e-6 the prefix is too short and a PrecisionError is raised.
    """
    ts = np.asarray(ts, dtype=float)
    _rng.check_size("prefix", prefix)
    if prefix > ts.size:
        raise DomainError(f"prefix {prefix} exceeds the {ts.size} supplied points")
    ts = ts[:prefix]
    if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise DomainError("t_n must be positive and strictly increasing")
    n = np.arange(1, prefix + 1, dtype=float)
    gts = g.eval(ts)
    u = 1.0 / (n * n * ts * gts)
    stored_unnorm = 2.0 * math.fsum(u)
    tail_unnorm = 2.0 * (1.0 / prefix) / (ts[-1] * gts[-1])
    c = 1.0 / (stored_unnorm + tail_unnorm)
    tail_mass_bound = c * tail_unnorm
    if tail_mass_bound > 1e-6:
        raise PrecisionError(
            f"prefix {prefix} leaves a tail mass bound of {tail_mass_bound:.3g} > 1e-6"
        )
    return CounterexampleDist(g=g, ts=ts, weights=c * u, c=c, tail_mass_bound=tail_mass_bound)


@dataclass(frozen=True, eq=False, repr=False)
class CounterexampleDist(Distribution):
    """Finite prefix of the atoms {+-t_n} with per-side weights
    c/(n^2 t_n G(t_n)), plus an analytic bound on the unstored tail mass;
    sampling is conditioned on the stored prefix."""

    g: ModerateFunction
    ts: np.ndarray
    weights: np.ndarray
    c: float
    tail_mass_bound: float
    name = "counterexample"
    symmetric = True

    @cached_property
    def stored_mass(self) -> float:
        return 2.0 * float(np.sum(self.weights))

    @cached_property
    def atom_values(self) -> np.ndarray:
        """The 2N stored atoms, ascending: -t_N, ..., -t_1, t_1, ..., t_N."""
        return np.concatenate((-self.ts[::-1], self.ts))

    @cached_property
    def atom_masses(self) -> np.ndarray:
        """The mass of each atom of ``atom_values``, in the same order."""
        return np.concatenate((self.weights[::-1], self.weights))

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.cumsum(self.atom_masses / self.stored_mass)

    def sample_array(self, gen, n, dtype=np.float64):
        # Always draws 64-bit uniforms: the stored atoms carry masses far
        # below float32 resolution.
        u = gen.random(n)
        idx = np.searchsorted(self._cum, u, side="right")
        atoms = self.atom_values
        out = atoms[np.minimum(idx, atoms.size - 1)]
        return out.astype(dtype, copy=False)

    def tail_exact(self, t):
        # Unstored atoms all lie beyond t_N; their mass is below the recorded bound.
        return 2.0 * float(self.weights[self.ts >= t].sum())

    def abs_mean_exact(self):
        return 2.0 * float(np.sum(self.weights * self.ts))

    @cached_property
    def _trunc_moment(self):
        return _atom_trunc_moment(self.ts, 2.0 * self.weights)

    def abs_trunc_moment_exact(self, t):
        return self._trunc_moment(t)

    def spec_string(self):
        return f"counterexample:G={self.g.spec_string()},prefix={self.ts.size}"


def counterexample_dist(g: ModerateFunction, prefix: int) -> CounterexampleDist:
    """Build the two-sided atom law witnessing the failure of moderation.

    The law exists exactly when G is not moderate.  The exp family has the
    closed-form witness t_n = log(n+1)/b; a G that carries a doubling
    constant c (G(2t) <= c G(t)) is moderate and is refused by it.
    """
    if g.name == "exp":
        return normalize_counterexample(g, doubling_witness_exp(g.params["b"], prefix), prefix)
    if g.claimed_doubling is not None:
        raise PreconditionError(
            f"{g.spec_string()} is moderate (G(2t) <= {g.claimed_doubling:g} G(t)), "
            "so it has no counterexample law"
        )
    raise UnsupportedOperationError(f"no witness sequence is known for {g.spec_string()}")


@dataclass(frozen=True, eq=False, repr=False)
class Symmetrized(Distribution):
    """Law of X - X' with X' an independent copy of the inner law."""

    inner: Distribution
    name = "symmetrized"
    symmetric = True

    def sample_array(self, gen, n, dtype=np.float64):
        flat = self.inner.sample_array(gen, 2 * n, dtype)
        return flat[0::2] - flat[1::2]

    def spec_string(self):
        return f"sym:{self.inner.spec_string()}"


def symmetrize(dist: Distribution) -> Distribution:
    """The symmetrized law X* = X - X', reduced to closed form when known."""
    if isinstance(dist, Gaussian):
        return Gaussian(dist.sigma * math.sqrt(2.0))
    if isinstance(dist, UniformSymmetric):
        return TriangularSymmetric(2.0 * dist.half_width)
    if dist.lattice is not None:
        _, step, offsets, probs = dist.lattice
        top = int(offsets.max())
        # X - X' = X + (-X'), and -X' sits on the offsets top - k.
        masses = lattice_add(lattice_add(np.ones(1), offsets, probs), top - offsets, probs)
        keep = np.flatnonzero(masses)
        return Discrete(tuple((step * (keep - top)).tolist()), tuple(masses[keep].tolist()))
    return Symmetrized(dist)


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------


def sample(dist: Distribution, seed: int, n: int) -> np.ndarray:
    """n i.i.d. draws, deterministic for fixed (seed, n); the i-th draw does
    not depend on n."""
    _rng.check_size("n", n)
    gen = _rng.substream(seed, _rng.STREAM_SAMPLE)
    return dist.sample_array(gen, n)


def _moment_discrete(dist, g, arg_scale):
    vals, probs = dist.atoms()
    av = np.abs(vals)
    value = float(np.dot(probs, av * g.eval(arg_scale * av)))
    return MomentEstimate(value, MOMENT[FINITE], mode="analytic")


def _not_falling(s3, s2, s1) -> bool:
    """s3 <= s2 <= s1, all positive, up to quadrature rounding: the segments
    of a logarithmically divergent moment tend to a constant from above."""
    tie = 1.0 - _QUAD_TIE
    return s3 > 0 and s2 >= tie * s3 and s1 >= tie * s2


def _moment_quadrature(dist, g, arg_scale):
    lo, hi = dist.abs_support()

    def log_integrand(x):
        with np.errstate(divide="ignore"):
            return np.log(x) + g.log_eval(arg_scale * x) + np.log(dist.abs_pdf(x))

    if math.isfinite(hi):
        (value,), (err,) = panel_integrals(log_integrand, [lo, hi])
        return MomentEstimate(float(value), MOMENT[FINITE], halfwidth=float(err), mode="quadrature")

    # The dyadic segments [lo, max(2 lo, 1)], then doubling, all in one call;
    # the walk below reads them in order, as far as its verdict needs.
    values, errs = panel_integrals(log_integrand, doubling_edges(lo, max(2.0 * lo, 1.0), 64))
    segs = []
    total = 0.0
    quad_err = 0.0
    for s, e in zip(values.tolist(), errs.tolist()):
        if s == math.inf:  # the segment overflowed: divergence evidence
            return MomentEstimate(s, MOMENT[DIVERGENT], halfwidth=s, mode="quadrature")
        segs.append(s)
        total += s
        quad_err += e
        if len(segs) >= 3:
            s3, s2, s1 = segs[-3], segs[-2], segs[-1]
            ratio = s1 / s2 if s2 > 0 else 0.0
            if s1 <= max(_QUAD_REL_TOL * total, 1e-300) or (s1 <= 1e-8 * total and ratio <= 0.9):
                tail = geometric_tail(s2, s1)
                return MomentEstimate(
                    total + tail, MOMENT[FINITE], halfwidth=tail + quad_err, mode="quadrature"
                )
            if len(segs) >= 12 and _not_falling(s3, s2, s1) and total >= _QUAD_BLOW_UP:
                break
    # Here after 64 segments, or on the blow-up break, where the last three
    # segments do not fall.
    kind = DIVERGENT if _not_falling(*segs[-3:]) else FINITE
    return MomentEstimate(total, MOMENT[kind], halfwidth=total, mode="quadrature")


def _moment_counterexample(dist, g, arg_scale):
    n_use = dist.ts.size
    own_g = (g is dist.g) or (g.spec_string() == dist.g.spec_string())
    if own_g and arg_scale == 1.0:
        # Terms are exactly 2c/n^2: t_n G(t_n) cancels, so the value of the
        # full infinite series is pinned by the zeta(2) remainder bracket.
        n = np.arange(1, n_use + 1, dtype=float)
        head = math.fsum(1.0 / (n * n))
        rem_lo, rem_hi = 1.0 / (n_use + 1), 1.0 / n_use
        value = 2.0 * dist.c * (head + 0.5 * (rem_lo + rem_hi))
        halfwidth = dist.c * (rem_hi - rem_lo)
        return MomentEstimate(value, MOMENT[FINITE], halfwidth=halfwidth, mode="partial_sum")
    ts = dist.ts
    terms = 2.0 * dist.weights * ts * g.eval(arg_scale * ts)
    if not np.all(np.isfinite(terms)):
        return MomentEstimate(math.inf, MOMENT[DIVERGENT], mode="partial_sum")
    cum = np.cumsum(terms)
    total = float(cum[-1])
    d1 = total - float(cum[n_use // 2 - 1])
    d0 = float(cum[n_use // 2 - 1]) - float(cum[n_use // 4 - 1]) if n_use >= 8 else d1
    if d1 >= 0.8 * d0 and d1 > 1e-15 * max(total, 1.0):
        return MomentEstimate(total, MOMENT[DIVERGENT], mode="partial_sum")
    tail = geometric_tail(d0, d1)
    return MomentEstimate(total + tail, MOMENT[FINITE], halfwidth=tail, mode="partial_sum")


def _moment_mc(dist, g, arg_scale, reps, seed):
    _rng.check_size("reps", reps)
    gen = _rng.substream(seed, _rng.STREAM_MOMENT)
    x = np.abs(dist.sample_array(gen, reps))
    vals = x * g.eval(arg_scale * x)
    mean = math.fsum(vals) / len(vals)
    se = float(np.std(vals)) / math.sqrt(len(vals))
    return MomentEstimate(mean, MOMENT[FINITE], se=se, mode="mc")


def moment_xg(
    dist: Distribution,
    g: ModerateFunction,
    *,
    arg_scale: float = 1.0,
    reps: int = 200_000,
    seed: int = 0,
) -> MomentEstimate:
    """E[|X| G(arg_scale |X|)] with relative error <= 1e-6 when finite, or a
    divergence-evidence verdict when the dyadic partial sums keep growing.

    One rule per law, tried in this order: a law with atoms takes the exact
    sum ("analytic"), a ``CounterexampleDist`` its partial sums
    ("partial_sum"), a law with a density of |X| quadrature ("quadrature"),
    and any other law ``reps`` Monte Carlo draws from ``seed`` ("mc")."""
    if dist.atoms() is not None:
        return _moment_discrete(dist, g, arg_scale)
    if isinstance(dist, CounterexampleDist):
        return _moment_counterexample(dist, g, arg_scale)
    if dist.abs_support() is not None:
        return _moment_quadrature(dist, g, arg_scale)
    return _moment_mc(dist, g, arg_scale, reps, seed)


def abs_mean(dist: Distribution, *, reps: int = 200_000, seed: int = 0) -> MomentEstimate:
    """E|X|, exact where a closed form exists, Monte Carlo otherwise."""
    exact = dist.abs_mean_exact()
    if exact is not None:
        return MomentEstimate(float(exact), MOMENT[FINITE], mode="analytic")
    if isinstance(dist, TwoSidedPareto) and dist.beta <= 1.0:
        return MomentEstimate(math.inf, MOMENT[DIVERGENT], mode="analytic")
    _rng.check_size("reps", reps)
    gen = _rng.substream(seed, _rng.STREAM_MOMENT, 1)
    x = np.abs(dist.sample_array(gen, reps))
    return MomentEstimate(
        float(np.mean(x)), MOMENT[FINITE], se=float(np.std(x)) / math.sqrt(len(x)), mode="mc"
    )


def tail(dist: Distribution, t: float, *, reps: int = 200_000, seed: int = 0) -> TailEstimate:
    """P[|X| >= t]; exact for analytic kinds, Monte Carlo with standard error
    otherwise."""
    if not t >= 0:  # NaN passes no comparison
        raise DomainError(f"t must be nonnegative, got {t!r}")
    exact = dist.tail_exact(t)
    if exact is not None:
        return TailEstimate(exact, 0.0, True)
    _rng.check_size("reps", reps)
    gen = _rng.substream(seed, _rng.STREAM_TAILPROB)
    x = dist.sample_array(gen, reps)
    p = float(np.mean(np.abs(x) >= t))
    return TailEstimate(p, math.sqrt(p * (1.0 - p) / reps), False)


def truncation_threshold(dist: Distribution, alpha: float) -> float:
    """Smallest grid t with E[|X| ; |X| >= t] <= 1 - alpha.

    The grid is {0} followed by a geometric ladder of ratio 1.001; the
    truncated moment is evaluated in closed form, so the result is exact up
    to grid resolution.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    target = 1.0 - alpha
    probe = dist.abs_trunc_moment_exact(np.asarray([0.0]))
    if probe is None:
        raise UnsupportedOperationError(
            f"truncation threshold needs a closed-form truncated moment ({dist.name})"
        )
    if float(probe[0]) <= target:
        return 0.0
    t = _TRUNC_FLOOR
    chunk = 8192
    while t <= _TRUNC_CAP:
        ts = t * _TRUNC_RATIO ** np.arange(chunk)
        m = dist.abs_trunc_moment_exact(ts)
        hits = np.nonzero(m <= target)[0]
        if hits.size:
            return float(ts[hits[0]])
        t = float(ts[-1]) * _TRUNC_RATIO
    raise PrecisionError("no grid point satisfied the truncated-moment inequality")


def symmetrization_check(dist: Distribution, *, reps: int = 200_000, seed: int = 0) -> list[dict]:
    """Audit the median-symmetrization sandwich
    P[|Y - mu| >= 2t] <= 2 P[|Y*| >= 2t] <= 4 P[|Y| >= t] on a grid of t,
    with mu the law's ``median_exact`` (0 for a symmetric law).

    Exact for small discrete laws, Monte Carlo within 4 standard errors
    otherwise; each row reports both inequalities.
    """
    star = symmetrize(dist)
    mu = dist.median_exact()
    if mu is None:
        raise UnsupportedOperationError(f"the symmetrization audit needs a closed-form median ({dist.name})")
    exact = dist.atoms() is not None and star.atoms() is not None
    if exact:
        (y, py), (ystar, pstar) = dist.atoms(), star.atoms()
        base = np.unique(np.abs(np.concatenate([y, ystar])))
        ts = np.unique(np.concatenate([base / 2.0, base, [0.0]]))
        se, slack = 0.0, 1e-12
    else:
        _rng.check_size("reps", reps)
        ts = np.asarray([0.25, 0.5, 1.0, 2.0]) * (abs(mu) + (dist.abs_mean_exact() or 1.0))
        y = dist.sample_array(_rng.substream(seed, _rng.STREAM_SYMCHECK, 0), reps)
        ystar = star.sample_array(_rng.substream(seed, _rng.STREAM_SYMCHECK, 1), reps)
        py = pstar = None
        se = math.sqrt(1.0 / reps)  # conservative: binomial se <= 0.5/sqrt(reps) per side
        slack = 4.0 * se

    def prob(hit, probs):  # the mass of the atoms hit, or the share of draws
        return float(np.mean(hit)) if probs is None else float(probs[hit].sum())

    rows = []
    for t in ts:
        p_center = prob(np.abs(y - mu) >= 2.0 * t, py)
        p_star = prob(np.abs(ystar) >= 2.0 * t, pstar)
        p_plain = prob(np.abs(y) >= t, py)
        rows.append(
            {
                "t": float(t),
                "lhs": p_center,
                "mid": 2.0 * p_star,
                "rhs": 4.0 * p_plain,
                "se": se,
                "exact": exact,
                "ok": p_center <= 2.0 * p_star + slack and 2.0 * p_star <= 4.0 * p_plain + slack,
            }
        )
    return rows


_LAWS = {
    "rademacher": (rademacher, {}),
    "uniform": (UniformSymmetric, {"w": 1.0}),
    "triangular": (TriangularSymmetric, {"w": 2.0}),
    "gaussian": (Gaussian, {"sigma": 1.0}),
    "pareto2": (TwoSidedPareto, {"beta": REQUIRED, "scale": 1.0}),
    "bernoulli": (lambda p, v0, v1: bernoulli(p, (v0, v1)), {"p": REQUIRED, "v0": 0.0, "v1": 1.0}),
    "counterexample": (
        lambda G, prefix: counterexample_dist(parse_function_spec(G), prefix),
        {"G": "exp", "prefix": 100_000},
    ),
}


def parse_dist_spec(text: str) -> Distribution:
    """Build a law from a CLI spec string: ``sym:<inner>``,
    ``discrete:-2@0.25;0@0.5;2@0.25`` (atom@mass, as ``Discrete`` writes it),
    or a ``_LAWS`` kind read by ``parse_spec``, such as ``pareto2:beta=3`` or
    ``counterexample:G=exp,prefix=100000``."""
    if not isinstance(text, str):
        raise DomainError(f"a distribution spec must be a string, got {text!r}")
    head, _, rest = text.strip().partition(":")
    if head == "sym":
        return symmetrize(parse_dist_spec(rest))
    if head == "discrete":
        values, probs = [], []
        for item in rest.split(";"):
            v, _, p = item.partition("@")
            try:
                values.append(float(v))
                probs.append(float(p))
            except ValueError:
                raise DomainError(f"bad discrete atom {item!r}, expected value@mass") from None
        return Discrete(tuple(values), tuple(probs))
    return parse_spec(text, _LAWS, "distribution kind")
