"""Hyperbolic integer torus maps: eigen-structure, the exact residue kernel, the ball test.

A 2x2 integer matrix with determinant 1 and |trace| > 2 induces an
invertible, area-preserving map of the unit torus R^2/Z^2. This module
validates such matrices, exposes their eigen data (dominant eigenvalue,
unit expanding/contracting eigenvectors) and detects the period of
rational points. It is also the one home of the two pieces that the
trial engine, the region oracle and the separation scan are built from:

* orbit_blocks, the one exact orbit walker: the residues of every orbit
  at times 0, s, 2s, .. for a signed stride s (A^s forward, A^-|s| with
  the integral inverse backward), a block of times at a time, X at once
  and Y on demand;
* Ball, a metric ball in one of the two torus metrics (plane Euclidean,
  or the sup metric in the eigenbasis, whose balls are squares aligned
  with the invariant directions) on the residue grid, and all that is
  known of it: the key of a point's folded offset from the centre and
  the key radius it is compared with, the ball's x-extent, its uniform
  sampler (exact, and a cheaper rough one with its error bound) and the
  observable -log distance of a key.

Why exact orbits: floating-point iteration of an expanding linear map
burns through mantissa bits at a rate of log2|lam| per step, so a double
carries usable information for only ~53/log2|lam| iterations. Points
whose coordinates are rationals with a common denominator iterate
exactly in modular integer arithmetic, with no drift at any orbit
length. The denominator is MODULUS = 2**61, the one grid of the package;
residue orbits at that size have periods astronomically longer than any
simulated orbit.

Why jump-ahead: iterating one matrix product per time step costs one
Python iteration per step. The entries of A^k reduced mod MODULUS
are exact integers that fit in int64, so the residues at time k are
(A^k)00*x + (A^k)01*y and (A^k)10*x + (A^k)11*y, masked. With a table
of A^s .. A^(sB), the residues of every orbit at the next B times are one
broadcast product against the last row of the block before, as in the
matrix-power jump-ahead of linear random-number substreams. Past the
first two blocks even that product is skipped: M = A^(sB) has
determinant 1, so M^2 = trace(M) M - I, and each block is trace(M) times
the block before minus the block two before, one scalar product and one
difference per residue.

Why x-first: the trial engine needs Y only where X lies in a narrow
strip around the centre: the x-extent of its ball of radius
R = 3 r max(1, 1/sqrt(tau)), 1-12 % of the (step, orbit) pairs. So a
block carries its X rows and the last row of Y, and computes Y elsewhere
only when asked: all of it (OrbitBlock.y, for the region oracle and the
separation scan) or at chosen positions (OrbitBlock.y_at, for the engine),
by the same masked products, so the bits agree. The trials that never
come within R of the centre, about e^(-9 theta max(tau, 1)) of them, are
walked again with the strip set to the whole torus.
"""

from __future__ import annotations

import math
import numbers
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DeterminantNotOne, NotHyperbolic

MODULUS = 1 << 61  # the denominator of every exact point; residues and the mask fit in int64
_MASK = MODULUS - 1

_MASK64 = (1 << 64) - 1
# Residues computed per broadcast by orbit_blocks: a block spans
# _BLOCK_ELEMENTS // width times. Of 2^12..2^16, 2^14 was fastest for the
# trial engine at widths 1, 8 and 1024: large enough to amortise the
# per-block Python cost, small enough that a block's arrays stay in cache.
_BLOCK_ELEMENTS = 1 << 14


class MetricKind(Enum):
    """Torus metric selector."""

    EUCLIDEAN = "euclidean"
    ADAPTED = "adapted"


def check_metric(metric) -> None:
    """Raise unless metric is a MetricKind; a str such as "euclidean" would pass for adapted."""
    if not isinstance(metric, MetricKind):
        raise ValueError(f"metric must be a MetricKind, got {metric!r}")


def check_automorphism(T) -> None:
    """Raise unless T is a ToralAutomorphism; a bare |lam| would pass for one."""
    if not isinstance(T, ToralAutomorphism):
        raise ValueError(f"T must be a ToralAutomorphism, got {T!r}")


def is_finite_real(value) -> bool:
    """Whether value is a finite real number and not a bool; an int or a Fraction is finite however large."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and (isinstance(value, numbers.Rational) or math.isfinite(value))


def check_positive(name: str, value, maximum: float = math.inf) -> float:
    """float(value) for a real (is_finite_real) whose float is positive and at most maximum, else raise."""
    try:
        number = float(value) if is_finite_real(value) else math.nan
    except OverflowError:
        number = math.nan
    if not 0 < number <= maximum:
        if maximum == math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
        raise ValueError(f"{name} must lie in (0, {maximum}], got {value!r}")
    return number


def check_count(name: str, value, minimum: int | None = None) -> int:
    """int(value) for a Python or NumPy integer at least minimum; anything else, a bool too, raises."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class ToralAutomorphism:
    """The integer matrix [[a,b],[c,d]], validated, with its eigen-structure.

    The four entries are the only arguments, each an int (check_count)
    whose eigen data a double holds; DeterminantNotOne is raised if
    ad - bc != 1, NotHyperbolic if |a + d| <= 2. Derived: lam, the
    eigenvalue of largest modulus (> 1); e_unstable / e_stable, unit
    eigenvectors for lam and 1/lam; basis_det, the |determinant| of
    those columns, in (0, 1] and 1 for symmetric T.
    """

    a: int
    b: int
    c: int
    d: int
    lam: float = field(init=False)
    e_unstable: tuple[float, float] = field(init=False)
    e_stable: tuple[float, float] = field(init=False)
    basis_det: float = field(init=False)

    def __post_init__(self) -> None:
        a, b, c, d = (check_count("matrix entry", v) for v in self.entries)
        if a * d - b * c != 1:
            raise DeterminantNotOne(f"determinant is {a * d - b * c}, must be 1")
        tr = a + d
        if abs(tr) <= 2:
            raise NotHyperbolic(f"|trace| = {abs(tr)} <= 2")
        try:
            disc = math.sqrt(tr * tr - 4)
            lam = (tr + disc) / 2.0 if tr > 0 else (tr - disc) / 2.0
            # eigenvectors for lam and 1/lam; b and c cannot both vanish here: that would
            # force a*d = 1 with integer a, d and hence |trace| = 2
            vectors = [(float(b), mu - a) if b != 0 else (mu - d, float(c)) for mu in (lam, 1.0 / lam)]
        except OverflowError:
            raise ValueError(f"matrix entry beyond the doubles' range, got {(a, b, c, d)}") from None
        e_u, e_s = ((x / math.hypot(x, y), y / math.hypot(x, y)) for x, y in vectors)
        # |sin| of the angle between unit vectors: at most 1, though the rounded product may not be
        basis_det = min(abs(e_u[0] * e_s[1] - e_u[1] * e_s[0]), 1.0)
        for name, value in zip(("a", "b", "c", "d", "lam", "e_unstable", "e_stable", "basis_det"),
                               (a, b, c, d, lam, e_u, e_s, basis_det)):
            object.__setattr__(self, name, value)

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def inverse_entries(self) -> tuple[int, int, int, int]:
        # determinant 1, so the inverse is integral
        return (self.d, -self.b, -self.c, self.a)

    @property
    def lam_abs(self) -> float:
        return abs(self.lam)

    @cached_property
    def eigen_inverse(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Rows of the inverse eigenbasis matrix.

        Solving v = xu * e_unstable + xs * e_stable for (xu, xs); used by
        the adapted metric.
        """
        eu, es = self.e_unstable, self.e_stable
        det = eu[0] * es[1] - eu[1] * es[0]
        return ((es[1] / det, -es[0] / det), (-eu[1] / det, eu[0] / det))


@dataclass(frozen=True)
class TorusPoint:
    """A point of the unit torus in local coordinates [0,1) x [0,1): two reals, kept as Python floats."""

    x: float
    y: float

    def __post_init__(self) -> None:
        for name, value in (("x", self.x), ("y", self.y)):
            if not (is_finite_real(value) and 0 <= value < 1):
                raise ValueError(f"torus coordinate {name} must be a real in [0, 1), got {value!r}")
            # wrap: float() of a fraction just below 1 can round up to 1.0
            object.__setattr__(self, name, wrap_unit(float(value)))


def wrap_unit(x: float) -> float:
    """Reduce a real number to [0, 1)."""
    x = x % 1.0
    return x if x < 1.0 else 0.0  # x % 1.0 can round up to 1.0


def rational_point(zeta: tuple[Fraction, Fraction]) -> TorusPoint:
    """The torus point nearest to an exact rational centre."""
    return TorusPoint(zeta[0] % 1, zeta[1] % 1)


def rational_residues(zeta: tuple[Fraction, Fraction]) -> tuple[tuple[int, int], int]:
    """Numerators and common denominator of a rational centre, reduced mod 1."""
    den = math.lcm(zeta[0].denominator, zeta[1].denominator)
    return (int(zeta[0] * den) % den, int(zeta[1] * den) % den), den


def compute_period(
    zeta_num: tuple[int, int], zeta_den: int, T: ToralAutomorphism, max_period: int
) -> int | None:
    """Least q <= max_period with T^q(zeta) = zeta, or None.

    zeta = (zeta_num[0]/zeta_den, zeta_num[1]/zeta_den) is iterated
    exactly modulo zeta_den; every rational point is periodic, so the
    search fails only when the period exceeds max_period.
    """
    nx, ny = zeta_num
    if not (0 <= nx < zeta_den and 0 <= ny < zeta_den):
        raise ValueError("numerators must satisfy 0 <= num < den")
    a, b, c, d = T.entries
    x, y = nx, ny
    for q in range(1, max_period + 1):
        x, y = (a * x + b * y) % zeta_den, (c * x + d * y) % zeta_den
        if x == nx and y == ny:
            return q
    return None


# ---------------------------------------------------------------------------
# Vectorised walker shared by the trial engine and the region oracle.
# Residues are int64 arrays. MODULUS = 2**61 divides 2**64, and int64
# array arithmetic wraps modulo 2**64; so masking the low 61 bits of
# a*x + b*y gives the exact residue for any integer entries, however
# large the products grow. Matrix powers are reduced with the same mask,
# so their entries fit in int64 and the same argument covers A^k for any
# k in one product.
# ---------------------------------------------------------------------------


def _matmul(m: tuple[int, ...], n: tuple[int, ...], mask: int = _MASK) -> tuple[int, int, int, int]:
    """The 2x2 product m @ n of row-major entry tuples, reduced mod MODULUS (unreduced at mask -1)."""
    a, b, c, d = m
    e, f, g, h = n
    return (
        (a * e + b * g) & mask,
        (a * f + b * h) & mask,
        (c * e + d * g) & mask,
        (c * f + d * h) & mask,
    )


def _power(entries: tuple[int, ...], k: int, mask: int = _MASK) -> tuple[int, int, int, int]:
    """Entries of the k-th matrix power, reduced mod MODULUS (unreduced at mask -1), by repeated squaring."""
    out = (1, 0, 0, 1)
    base = tuple(e & mask for e in entries)
    while k:
        if k & 1:
            out = _matmul(out, base, mask)
        base = _matmul(base, base, mask)
        k >>= 1
    return out


def power_norm_sq(T: ToralAutomorphism, m: int) -> int:
    """The squared Frobenius norm of A^m, exactly, from the unreduced integer power.

    A negative m takes the power of the integral inverse, whose entries
    are A's up to sign and order, so the norm of A^-m is that of A^m.
    """
    power = _power(T.entries if m >= 0 else T.inverse_entries, abs(m), mask=-1)
    return sum(e * e for e in power)


class OrbitBlock:
    """One block of orbit_blocks: the X residues of every orbit at a run of
    times, and the Y residues at the same times on demand.

    x is the (rows, width) array of X. y, the Y array of the same shape, is
    computed on first use, unless given; y_at(rows, cols) computes Y only
    at the given (row, column) positions. Both are c * px + d * py, masked,
    from the row (px, py) before the block, so the bits agree.
    """

    __slots__ = ("x", "_y", "_c", "_d", "_px", "_py")

    def __init__(self, x, c, d, px, py, y=None):
        self.x, self._y = x, y
        self._c, self._d = c, d  # (rows,) entries (1, 0) and (1, 1) of the block's powers
        self._px, self._py = px, py

    @property
    def y(self) -> np.ndarray:
        if self._y is None:
            self._y = self.y_at(np.s_[:, None], np.s_[:])  # every row against every column
        return self._y

    @property
    def y_last(self) -> np.ndarray:
        """Y's last row, the walker's carry into the next block."""
        return self.y_at(-1, slice(None)) if self._y is None else self._y[-1]

    def y_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Y at the positions (rows[i], cols[i]) of the block; any NumPy index pair works alike."""
        y = self._c[rows] * self._px[cols]
        y += self._d[rows] * self._py[cols]
        y &= _MASK
        return y


def orbit_blocks(
    px: np.ndarray,
    py: np.ndarray,
    T: ToralAutomorphism,
    steps: int,
    stride: int = 1,
) -> Iterator[OrbitBlock]:
    """Exact residues of the orbits from (px, py) at times 0, s, 2s, .., steps*s.

    s = stride is signed: |s| applications of the matrix, of its inverse
    when s < 0; a stride of 0 raises ValueError. px and py are residues in
    [0, MODULUS). Yields an OrbitBlock of shape (rows, width) per run of
    times, in time order: time 0 alone first (views of px, py), then
    blocks of up to B = max(1, min(steps, _BLOCK_ELEMENTS // width)) times. The first two
    are one broadcast of A^s .. A^(sB) against the last row of the block
    before, and each later one is trace(A^(sB)) times the block before
    minus the block two before. Only X is computed up front, and Y's last
    row for the next block, so a caller that needs Y at a few positions
    (the trial engine) pays for those alone.
    """
    if stride == 0:
        raise ValueError("stride must be nonzero")
    step = _power(T.entries if stride > 0 else T.inverse_entries, abs(stride))
    powers = [step]
    for _ in range(max(1, min(steps, _BLOCK_ELEMENTS // max(px.size, 1))) - 1):
        powers.append(_matmul(powers[-1], step))
    block = len(powers)
    # M = A^(sB) has determinant 1, so M^2 = trace(M) M - I (Cayley-Hamilton):
    # each row of a block is B times on from the same row of the block before
    trace = (powers[-1][0] + powers[-1][3]) & _MASK
    a, b, c, d = np.array(powers, dtype=np.int64).T
    a, b = a[:, None], b[:, None]
    # time 0: A^0 = I, and Y is py itself
    out = OrbitBlock(px[None], np.zeros(1, np.int64), np.ones(1, np.int64), px, py, y=py[None])
    yield out
    x = before = None
    for done in range(0, steps, block):
        rows = min(block, steps - done)
        px, py = out.x[-1], out.y_last
        if before is None:
            # the first two blocks: one broadcast of A^s .. A^(sB) against the row before
            new = a[:rows] * px
            new += b[:rows] * py
        else:
            new = x[:rows] * trace
            new -= before[:rows]
        new &= _MASK
        before, x = x, new
        out = OrbitBlock(x, c[:rows], d[:rows], px, py)
        yield out


# Observable value reported for an exact hit of the centre; -log of the
# smallest positive double, so records stay free of infinities.
OBSERVABLE_CAP = 745.0


@dataclass(frozen=True)
class Ball:
    """The open ball of `radius` around `centre` in `metric`, tested on the grid 1/MODULUS.

    The one home of what a metric ball is: the key that is compared with
    key_radius (the squared distance for the Euclidean metric, the
    eigenbasis sup for the adapted one, whose ball is a square in the
    eigenbasis of T), the ball's x-extent, its uniform sampler and the
    observable of a key. The sampler comes in two grades: points, which
    the records and the separation scan use, and rough_points, the
    oracle's, whose Euclidean trig is float32. rough_error bounds the
    distance between the two, and key_band turns a distance into the
    keys that it cannot move across key_radius, so a caller decides on
    a rough point exactly what the exact point decides, or knows it
    cannot.
    """

    T: ToralAutomorphism
    centre: TorusPoint
    radius: float
    metric: MetricKind

    def __post_init__(self) -> None:
        check_automorphism(self.T)
        if not isinstance(self.centre, TorusPoint):
            raise ValueError(f"centre must be a TorusPoint, got {self.centre!r}")
        check_metric(self.metric)
        object.__setattr__(self, "radius", check_positive("radius", self.radius))

    @property
    def key_radius(self) -> float:
        """The radius in the units of key: a point is inside iff its key is below this."""
        return self.radius * self.radius if self.metric is MetricKind.EUCLIDEAN else self.radius

    @property
    def x_extent(self) -> float:
        """The largest |x offset| of a point of the ball."""
        if self.metric is MetricKind.EUCLIDEAN:
            return self.radius
        return self.radius * (abs(self.T.e_unstable[0]) + abs(self.T.e_stable[0]))

    def key(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Distance key from residue-array points to the centre: compare it with key_radius.

        Offsets are folded per coordinate to [-1/2, 1/2], which gives the
        exact Euclidean torus distance; for the adapted metric it is exact
        whenever the value is below 0.25 (any representative that small is
        the folded one).
        """
        inv = 1.0 / MODULUS
        dx = px * inv
        dx -= self.centre.x
        dy = py * inv
        dy -= self.centre.y
        tmp = np.rint(dx)  # scratch: the steps below write into dx, dy and tmp
        dx -= tmp
        dy -= np.rint(dy, out=tmp)
        if self.metric is MetricKind.EUCLIDEAN:
            return np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
        (b00, b01), (b10, b11) = self.T.eigen_inverse
        xu = np.add(b00 * dx, np.multiply(b01, dy, out=tmp), out=tmp)
        xs = np.add(np.multiply(b10, dx, out=dx), np.multiply(b11, dy, out=dy), out=dx)
        return np.maximum(np.abs(xu, out=xu), np.abs(xs, out=xs), out=xs)

    def observable(self, keys: np.ndarray) -> np.ndarray:
        """-log of each key's distance (OBSERVABLE_CAP at 0) by math.log, whose bits np.log misses at times."""
        # the Euclidean key is the squared distance: -log d = -0.5 log key
        factor = -0.5 if self.metric is MetricKind.EUCLIDEAN else -1.0
        zero = keys == 0.0
        logs = np.fromiter(map(math.log, np.where(zero, 1.0, keys).tolist()), np.float64, keys.size)
        return np.where(zero, OBSERVABLE_CAP, factor * logs)

    @property
    def rough_error(self) -> float:
        """delta: a bound on the torus distance from rough_points(u, v) to
        points(u, v), with the slack that a decision on their keys needs.

        Euclidean: float32 cos and sin of float32(2 pi v) are within 2^-21
        of float64 cos and sin of 2 pi v (the worst of 2^22 draws is
        2.56e-7), so each offset coordinate moves by at most r 2^-21, and by
        r 2^-52 more for the roundings of rho times them. The fold (centre
        plus offset, rounded once) and the snap to the grid move each
        coordinate of either point by at most 2^-53 + 2^-62. delta =
        sqrt(2) r 2^-20 + 2^-48 doubles the trig term, which absorbs any
        relative rounding of the bands built on it, and its 2^-48 covers
        the fold, the snap and the rounding of both points' keys (each
        under 2^-51). Adapted points take no trig: rough_points is points,
        and delta = 0.
        """
        if self.metric is MetricKind.EUCLIDEAN:
            return math.sqrt(2.0) * self.radius * 2.0**-20 + 2.0**-48
        return 0.0

    def key_band(self, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keys (lo, hi) around key_radius: a point whose key lies outside [lo, hi)
        is on the same side of the ball's boundary as every point within
        torus distance eps of it, so its key decides theirs.
        """
        r = self.radius
        if self.metric is MetricKind.EUCLIDEAN:
            return np.square(np.maximum(r - eps, 0.0)), np.square(r + eps)
        grow = eps * self._stretch
        return r - grow, r + grow

    @property
    def _stretch(self) -> float:
        """The largest row norm of T.eigen_inverse: an offset moved by eps moves each
        eigencoordinate by at most eps times it."""
        return max(math.hypot(*row) for row in self.T.eigen_inverse)

    def placed(self, u: np.ndarray, v: np.ndarray, lo: float) -> np.ndarray:
        """Where the uniforms alone place the time-0 point below lo: True where the
        keys of points(u, v) and of rough_points(u, v) are both provably below lo.

        Euclidean: each point's key exceeds r^2 u by at most r^2 2^-19.4 + r 2^-50.4.
        Its offset is rho (cos, sin) with rho = r sqrt(u). The float32 cos and sin
        of rough_points are each within 2^-21 of the float64 pair (rough_error),
        whose length is 1 within 2^-52, so the pair is at most
        1 + 0.70711 2^-20 + 2^-52 long. The fold and the snap (2^-53 + 2^-62) and
        the key's own reading of the residue (2^-53) move each coordinate by
        under 2^-52 and the offset by under 2^-51.48. With the roundings of
        sqrt(u), of the products and of the key's squares and sum, the square
        root of the key is at most rho (1 + 0.70712 2^-20) + 2^-51.47, and its
        square is the bound for u < 1 and r > 2^-48 (below that, key_band's lo is
        0 and nothing is placed). The rule is
        u < (lo - r^2 2^-19 - r 2^-49) / r^2: the bound rounded up, with slack
        enough for the rounding of the threshold (a few parts in 2^53 of r^2).

        Adapted: with m = max(|2u - 1|, |2v - 1|), each key exceeds r m by at most
        N (r 2^-49.2 + 2^-51.4), where N >= 1 is the largest row norm of
        T.eigen_inverse, the one key_band uses. The offset's eigencoordinates are
        r (2u - 1) and r (2v - 1) within r 2^-53. Mapping them to the plane (two
        products and a sum per coordinate, with unit eigenvectors) moves the
        offset by under r 2^-50.98; the fold, the snap and the key's reading of
        the residue, by under 2^-51.48. The rows of eigen_inverse, computed with
        a rounded determinant, are the inverse of the eigenbasis within
        2^-50.89 N on it, and the key's products and sum round within
        r 2^-50.98 N. Each error reaches the key times at most N. The rule is
        m < (lo - N (r 2^-48 + 2^-50)) / r, with slack enough for the rounding
        of the threshold; rough_points is points here, so the two keys are one.

        A point placed below the lower edge lo of key_band(eps) is, by key_band,
        in the ball and decided there, so a caller may skip its time-0 key.
        """
        r = self.radius
        if self.metric is MetricKind.EUCLIDEAN:
            return u < (lo - r * r * 2.0**-19 - r * 2.0**-49) / (r * r)
        m = np.maximum(np.abs(2.0 * u - 1.0), np.abs(2.0 * v - 1.0))
        return m < (lo - self._stretch * (r * 2.0**-48 + 2.0**-50)) / r

    def points(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residues of the ball's points that the uniforms u, v in [0, 1) map to, uniformly.

        Each point depends on its own u and v alone, so points(u[i], v[i])
        is points(u, v)[i] for any index i.
        """
        r = self.radius
        if self.metric is MetricKind.EUCLIDEAN:
            rho = r * np.sqrt(u)
            ang = 2.0 * math.pi * v
            ox = rho * np.cos(ang)
            oy = rho * np.sin(ang)
        else:
            xu = r * (2.0 * u - 1.0)
            xs = r * (2.0 * v - 1.0)
            eu, es = self.T.e_unstable, self.T.e_stable
            ox = xu * eu[0] + xs * es[0]
            oy = xu * eu[1] + xs * es[1]
        px, py = np.empty(u.shape, np.int64), np.empty(u.shape, np.int64)
        self._fold(ox, oy, px, py)
        return px, py

    def rough_points(self, u: np.ndarray, v: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """points(u, v), but with the Euclidean cos and sin taken in float32 of
        float32(2 pi v): 25 times cheaper, and within rough_error of points.

        work is a (4, n >= len(u)) float64 scratch array, and the residues
        returned are views of its last two rows. Adapted points take no
        trig: they are points(u, v) itself.
        """
        if self.metric is not MetricKind.EUCLIDEAN:
            return self.points(u, v)
        oy, ox, px, py = work[:, : u.size]
        ang, cos = np.split(px.view(np.float32), 2)  # scratch until px is written
        ang[...] = np.multiply(v, 2.0 * math.pi, out=ox)
        np.cos(ang, out=cos)
        np.sin(ang, out=ang)
        np.sqrt(u, out=oy)
        oy *= self.radius
        np.multiply(oy, cos, out=ox)
        oy *= ang
        px, py = px.view(np.int64), py.view(np.int64)
        self._fold(ox, oy, px, py)
        return px, py

    def _fold(self, ox: np.ndarray, oy: np.ndarray, px: np.ndarray, py: np.ndarray) -> None:
        """Write the residues of the points at offsets (ox, oy) from the centre into px, py.

        ox and oy are overwritten. The fold to [0, 1) is exact: for
        x = centre + offset in (-1, 2), x - floor(x) has the bits of
        x % 1.0 (x - 1 is exact on [1, 2), and both round x + 1 once on
        [-1, 0)).
        """
        for x, centre, out in ((ox, self.centre.x, px), (oy, self.centre.y, py)):
            x += centre
            x -= np.floor(x, out=out.view(np.float64))  # out is scratch until the residues
            x *= MODULUS
            np.rint(x, out=x)
            np.copyto(out, x, casting="unsafe")
            out &= _MASK


def keyed_rng(seed: int, key: int) -> np.random.Generator:
    """Random stream keyed by (seed, key), independent of every other key; it checks the seed by check_count."""
    return np.random.default_rng(np.random.SeedSequence((check_count("seed", seed) & _MASK64, key)))


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count: the explicit count capped at the cores, else min(cores, 8).

    An explicit count must pass check_count at minimum 1.
    """
    cores = os.cpu_count() or 1
    if explicit is None:
        return min(cores, 8)
    return min(check_count("worker count", explicit, 1), cores)


def pool_size(workers: int | None, jobs: int) -> int:
    """The processes map_jobs runs `jobs` jobs on: resolve_workers(workers), at most one per job."""
    return min(resolve_workers(workers), jobs)


_open_pools: dict[int, ProcessPoolExecutor] = {}  # size -> the pool an enclosing process_pool holds open


@contextmanager
def process_pool(processes: int) -> Iterator[ProcessPoolExecutor | None]:
    """A pool of `processes` processes for a with block; None for one process, this one.

    Inside the block of an enclosing process_pool of the same size it is
    that pool, so the calls of a run can share one. Else it is a new pool,
    held open for the blocks inside this one and joined when this block
    ends, by an exception too.
    """
    if processes <= 1:
        yield None
    elif processes in _open_pools:
        yield _open_pools[processes]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            _open_pools[processes] = pool
            try:
                yield pool
            finally:
                del _open_pools[processes]


def map_jobs(fn: Callable, jobs: list, workers: int | None = None) -> list:
    """[fn(job) for job in jobs] on pool_size(workers, len(jobs)) processes.

    One worker runs the jobs in this process; more share process_pool's pool.
    """
    with process_pool(pool_size(workers, len(jobs))) as pool:
        return [fn(job) for job in jobs] if pool is None else list(pool.map(fn, jobs))
