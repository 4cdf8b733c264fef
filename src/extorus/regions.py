"""Exact region membership and an independent Monte Carlo measure oracle.

Regions are subsets of a small metric ball around a centre zeta:

* BALL     - the ball itself, distance(z, zeta) < radius;
* A_Q      - escape region: in the ball, first q forward images outside;
* U_KAPPA  - nested set: images at times 0, q, 2q, ..., kappa*q all inside;
* Q_KAPPA  - strip: in U_KAPPA but not in U_(KAPPA+1).

Membership iterates orbits with the exact residue kernel of the torus
module (points are snapped to the 2**61 grid, after which there is no
drift) and tests each image with its ball test, so decisions are exact
up to a boundary fuzz of one part in 1e16 of the radius.

The measure oracle samples uniformly from the bounding ball rather than
the whole torus, a variance reduction of about 1/(pi r^2), and multiplies
the hit fraction by the ball area. Sampling is split into fixed-size
chunks whose random streams are keyed by (seed, chunk index); the merged
estimate is a pure function of the seed, independent of how chunks are
assigned to workers. One sampler, _ball_slices, serves the oracle, the
separation scan and d'': it draws the uniforms whole, so the keyed stream
fixes the sample, and maps them to grid points in cache-sized slices of
_BLOCK_ELEMENTS points. The fold to [0, 1) is exact: for x = zeta +
offset in (-1, 2), x - floor(x) has the bits of x % 1.0 (x - 1 is exact
on [1, 2), and both round x + 1 once on [-1, 0)).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import OutOfLocalRange
from .formulas import ball_measure, threshold_radius, wrap_time_g
from .torus import (
    _BLOCK_ELEMENTS,
    DEFAULT_MODULUS,
    Direction,
    MetricKind,
    ToralAutomorphism,
    TorusPoint,
    ball_distance,
    compute_period,
    keyed_rng,
    map_jobs,
    orbit_blocks,
    radius_key,
    rational_point,
    rational_residues,
)

_CHUNK = 1 << 18


class RegionKind(Enum):
    BALL = "ball"
    A_Q = "a_q"
    U_KAPPA = "u_kappa"
    Q_KAPPA = "q_kappa"


@dataclass(frozen=True)
class RegionSpec:
    """A membership-testable region around zeta at a fixed radius."""

    zeta: TorusPoint
    radius: float
    metric: MetricKind
    kind: RegionKind
    q: int = 0
    kappa: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.radius < 0.25):
            raise ValueError("radius must lie in (0, 0.25)")
        if self.kind is not RegionKind.BALL and self.q < 1:
            raise ValueError(f"{self.kind.value} requires q >= 1")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")


def _ball_masks(
    region: RegionSpec,
    T: ToralAutomorphism,
    px: np.ndarray,
    py: np.ndarray,
    count: int,
    direction: Direction = Direction.FORWARD,
    stride: int = 1,
) -> np.ndarray:
    """Ball masks of the orbit at times 0, s, 2s, .., count*s (s = +-stride by direction).

    A (count + 1, width) bool array; row t is the mask at time t*s.
    """
    key = radius_key(region.radius, region.metric)
    return np.concatenate([
        ball_distance(block.x, block.y, DEFAULT_MODULUS, region.zeta, T, region.metric) < key
        for block in orbit_blocks(px, py, T, DEFAULT_MODULUS, count, direction, stride)
    ])


def _escape_masks(balls: np.ndarray, q: int) -> np.ndarray:
    """A_q membership at times t = 0 .. len(balls) - q - 1 from the ball masks at times 0, 1, ..

    Row t is in the ball at time t and out of it at times t+1 .. t+q.
    """
    times = len(balls) - q
    escape = balls[:times].copy()
    for i in range(1, q + 1):
        escape &= ~balls[i : i + times]
    return escape


def membership_mask(
    region: RegionSpec, T: ToralAutomorphism, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Vectorised membership of residue-array points (on the default grid) in the region."""
    if region.kind is RegionKind.BALL:
        return _ball_masks(region, T, px, py, 0)[0]
    if region.kind is RegionKind.A_Q:
        return _escape_masks(_ball_masks(region, T, px, py, region.q), region.q)[0]
    # U_KAPPA and Q_KAPPA walk the q-fold map
    strip = region.kind is RegionKind.Q_KAPPA
    balls = _ball_masks(region, T, px, py, region.kappa + strip, stride=region.q)
    mask = balls[: region.kappa + 1].all(axis=0)
    if strip:
        mask &= ~balls[-1]
    return mask


def _ball_slices(
    region: RegionSpec, T: ToralAutomorphism, count: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Uniform sample of `count` default-grid points from the bounding ball, in slices.

    The uniforms are drawn whole, so the stream fixes the sample; the
    residues come out _BLOCK_ELEMENTS points at a time.
    """
    u, v = rng.random(count), rng.random(count)
    for lo in range(0, count, _BLOCK_ELEMENTS):
        yield _ball_points(region, T, u[lo : lo + _BLOCK_ELEMENTS], v[lo : lo + _BLOCK_ELEMENTS])


def _ball_points(
    region: RegionSpec, T: ToralAutomorphism, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Default-grid residues of the bounding-ball points that the uniforms u, v map to."""
    r = region.radius
    if region.metric is MetricKind.EUCLIDEAN:
        rho = r * np.sqrt(u)
        ang = 2.0 * math.pi * v
        ox = rho * np.cos(ang)
        oy = rho * np.sin(ang)
    else:
        xu = r * (2.0 * u - 1.0)
        xs = r * (2.0 * v - 1.0)
        eu, es = T.e_unstable, T.e_stable
        ox = xu * eu[0] + xs * es[0]
        oy = xu * eu[1] + xs * es[1]
    for x, centre in ((ox, region.zeta.x), (oy, region.zeta.y)):
        x += centre
        x -= np.floor(x)  # the bits of x % 1.0: see the module docstring
        x *= DEFAULT_MODULUS
        np.rint(x, out=x)
    return ox.astype(np.int64) & (DEFAULT_MODULUS - 1), oy.astype(np.int64) & (DEFAULT_MODULUS - 1)


class MeasureEstimate(NamedTuple):
    estimate: float
    std_error: float


def _local_range_guard(region: RegionSpec, T: ToralAutomorphism) -> None:
    if region.kind is RegionKind.BALL:
        return
    depth = {
        RegionKind.A_Q: 1,
        RegionKind.U_KAPPA: max(region.kappa, 1),
        RegionKind.Q_KAPPA: region.kappa + 1,
    }[region.kind]
    if T.lam_abs ** (depth * region.q) * region.radius >= 0.5:
        raise OutOfLocalRange(
            f"lam^({depth}q) * radius >= 1/2: preimages wrap at kappa={region.kappa}"
        )


def _measure_chunk(args: tuple) -> int:
    region, T, seed, index, size = args
    return sum(
        int(np.count_nonzero(membership_mask(region, T, px, py)))
        for px, py in _ball_slices(region, T, size, keyed_rng(seed, index))
    )


def monte_carlo_measure(
    region: RegionSpec,
    T: ToralAutomorphism,
    samples: int,
    seed: int,
    workers: int = 1,
) -> MeasureEstimate:
    """Unbiased Monte Carlo estimate of the region's Lebesgue measure.

    Uniform importance sampling over the bounding metric ball times
    the ball area; the standard error is binomial. Deterministic given
    the seed, for any worker count. The chunks run through map_jobs, so
    a worker count below 1 raises, and the pool never has more workers
    than chunks or cores.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    _local_range_guard(region, T)
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    jobs = [(region, T, seed, i, size) for i, size in enumerate(sizes)]
    hits = sum(map_jobs(_measure_chunk, jobs, workers))
    area = ball_measure(region.radius, region.metric, T.basis_det)
    p = hits / samples
    return MeasureEstimate(area * p, area * math.sqrt(p * (1.0 - p) / samples))


def _verify_periodic(zeta: tuple[Fraction, Fraction], q: int, T: ToralAutomorphism) -> None:
    nums, den = rational_residues(zeta)
    period = compute_period(nums, den, T, q)
    if period is None or q % period:
        raise ValueError(f"zeta is not periodic with period {q}")


def separation_check(
    T: ToralAutomorphism,
    zeta: tuple[Fraction, Fraction],
    q: int,
    n: int,
    tau: float,
    samples: int,
    seed: int,
) -> bool:
    """True iff no sampled escape-region point returns within the wrap window.

    Samples the escape region at the Euclidean threshold radius s_n and
    pulls every member backward j = 1 .. q*g(n) steps, testing
    escape-region membership of each preimage. The j = 0 term is
    excluded: the region trivially meets itself. The sample is checked a
    slice at a time, up to the first slice with a return.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    _verify_periodic(zeta, q, T)
    radius = threshold_radius(n, tau, MetricKind.EUCLIDEAN)
    region = RegionSpec(rational_point(zeta), radius, MetricKind.EUCLIDEAN, RegionKind.A_Q, q=q)
    window = q * wrap_time_g(n, T.lam_abs, q, tau)
    if window == 0:
        return True
    for px, py in _ball_slices(region, T, samples, keyed_rng(seed, 0)):
        forward = _ball_masks(region, T, px, py, q)
        keep = _escape_masks(forward, q)[0]
        # ball masks of the slice's A_q points at times -window .. q; row i holds time i - window
        backward = _ball_masks(region, T, px[keep], py[keep], window, Direction.BACKWARD)
        balls = np.concatenate([backward[::-1], forward[1:, keep]])
        if _escape_masks(balls, q)[:window].any():
            return False
    return True


def dprime_sum_diagnostic(
    T: ToralAutomorphism,
    zeta: tuple[Fraction, Fraction],
    q: int,
    n: int,
    j_max: int,
    samples: int,
    seed: int,
) -> float:
    """Monte Carlo estimate of the short-range correlation sum.

    n * sum_{j=1..j_max} m(A cap T^-j A) where A is the escape region at
    the Euclidean threshold radius s_n for tau = 1 (the ball itself when
    q = 0). A decreasing-in-n diagnostic of short-return suppression, not
    a proof. For q >= 1, zeta must be periodic with period q.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if j_max > math.log(n) ** 5:
        raise ValueError("j_max exceeds the (log n)^5 analysis window")
    if q >= 1:
        _verify_periodic(zeta, q, T)
    radius = threshold_radius(n, 1.0, MetricKind.EUCLIDEAN)
    kind = RegionKind.A_Q if q >= 1 else RegionKind.BALL
    region = RegionSpec(rational_point(zeta), radius, MetricKind.EUCLIDEAN, kind, q=q)
    # hits[j - 1] counts the sampled points in A and in T^-j A, j = 1 .. j_max
    hits = np.zeros(j_max, dtype=np.int64)
    for px, py in _ball_slices(region, T, samples, keyed_rng(seed, 0)):
        # membership of A at forward times 0 .. j_max needs the ball masks at times 0 .. j_max+q
        escape = _escape_masks(_ball_masks(region, T, px, py, j_max + q), q)
        hits += np.count_nonzero(escape[0] & escape[1:], axis=1)
    area = ball_measure(radius, MetricKind.EUCLIDEAN)
    # a running sum in the order of j: accumulate adds strictly left to right
    return n * float(np.add.accumulate(area * hits / samples)[-1])
