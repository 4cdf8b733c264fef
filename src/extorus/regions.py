"""Exact region membership and an independent Monte Carlo measure oracle.

Regions are subsets of a small metric ball (torus.Ball) around a centre:

* BALL     - the ball itself, key(z) < key_radius;
* A_Q      - escape region: in the ball, first q forward images outside;
* U_KAPPA  - nested set: images at times 0, q, 2q, ..., kappa*q all inside;
* Q_KAPPA  - strip: in U_KAPPA but not in U_(KAPPA+1).

Membership iterates orbits with the exact residue kernel of the torus
module (points are snapped to the 2**61 grid, after which there is no
drift) and tests each image with the ball's key, so decisions are exact
up to a boundary fuzz of one part in 1e16 of the radius.

The measure oracle samples uniformly from the ball rather than the whole
torus, a variance reduction of about 1/(pi r^2), and multiplies the hit
fraction by the ball area. Sampling is split into fixed-size chunks
whose random streams are keyed by (seed, chunk index); the merged
estimate is a pure function of the seed, independent of how chunks are
assigned to workers. One sampler, _ball_slices, serves the oracle and
the separation scan. A sample is one keyed stream: u is its first
`count` doubles and v the `count` after them. Both are drawn a slice of
_BLOCK_ELEMENTS points at a time, v from a copy of the stream advanced
`count` draws on, and mapped to grid points by Ball.points, so neither
caller holds an array larger than a slice, whatever the sample size.
The escape region of an experiment, for the separation scan and the
measure-ratio estimator, is built from its config by escape_region.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import OutOfLocalRange
from .formulas import ball_measure
from .torus import _BLOCK_ELEMENTS, Ball, Direction, keyed_rng, map_jobs, orbit_blocks

if TYPE_CHECKING:  # simulate imports this module
    from .simulate import ExperimentConfig

_CHUNK = 1 << 18


class RegionKind(Enum):
    BALL = "ball"
    A_Q = "a_q"
    U_KAPPA = "u_kappa"
    Q_KAPPA = "q_kappa"


@dataclass(frozen=True)
class RegionSpec:
    """A membership-testable region of the given kind in a metric ball."""

    ball: Ball
    kind: RegionKind
    q: int = 0
    kappa: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.ball.radius < 0.25):
            raise ValueError("radius must lie in (0, 0.25)")
        if self.kind is not RegionKind.BALL and self.q < 1:
            raise ValueError(f"{self.kind.value} requires q >= 1")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")


def _ball_masks(
    region: RegionSpec,
    px: np.ndarray,
    py: np.ndarray,
    count: int,
    direction: Direction = Direction.FORWARD,
    stride: int = 1,
) -> np.ndarray:
    """Ball masks of the orbit at times 0, s, 2s, .., count*s (s = +-stride by direction).

    A (count + 1, width) bool array; row t is the mask at time t*s.
    """
    ball = region.ball
    return np.concatenate([
        ball.key(block.x, block.y) < ball.key_radius
        for block in orbit_blocks(px, py, ball.T, count, direction, stride)
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


def membership_mask(region: RegionSpec, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Vectorised membership of residue-array points in the region."""
    if region.kind is RegionKind.BALL:
        return _ball_masks(region, px, py, 0)[0]
    if region.kind is RegionKind.A_Q:
        return _escape_masks(_ball_masks(region, px, py, region.q), region.q)[0]
    # U_KAPPA and Q_KAPPA walk the q-fold map
    strip = region.kind is RegionKind.Q_KAPPA
    balls = _ball_masks(region, px, py, region.kappa + strip, stride=region.q)
    mask = balls[: region.kappa + 1].all(axis=0)
    if strip:
        mask &= ~balls[-1]
    return mask


def _ball_slices(
    ball: Ball, count: int, seed: int, key: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Uniform sample of `count` grid points from the ball, in slices.

    The sample is keyed_rng(seed, key)'s first 2*count doubles: u is the
    first count and v the next count, the bits of one whole draw. Each
    double is one output of the bit generator, so a second copy of the
    stream advanced by count draws v alongside u, and the residues come
    out _BLOCK_ELEMENTS points at a time with no array larger than a slice.
    """
    u_rng, v_rng = keyed_rng(seed, key), keyed_rng(seed, key)
    v_rng.bit_generator.advance(count)
    for lo in range(0, count, _BLOCK_ELEMENTS):
        size = min(_BLOCK_ELEMENTS, count - lo)
        yield ball.points(u_rng.random(size), v_rng.random(size))


class MeasureEstimate(NamedTuple):
    estimate: float
    std_error: float


def _local_range_guard(region: RegionSpec) -> None:
    if region.kind is RegionKind.BALL:
        return
    depth = {
        RegionKind.A_Q: 1,
        RegionKind.U_KAPPA: max(region.kappa, 1),
        RegionKind.Q_KAPPA: region.kappa + 1,
    }[region.kind]
    if region.ball.T.lam_abs ** (depth * region.q) * region.ball.radius >= 0.5:
        raise OutOfLocalRange(
            f"lam^({depth}q) * radius >= 1/2: preimages wrap at kappa={region.kappa}"
        )


def _measure_chunk(args: tuple) -> int:
    region, seed, index, size = args
    return sum(
        int(np.count_nonzero(membership_mask(region, px, py)))
        for px, py in _ball_slices(region.ball, size, seed, index)
    )


def monte_carlo_measure(
    region: RegionSpec, samples: int, seed: int, workers: int = 1
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
    _local_range_guard(region)
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    jobs = [(region, seed, i, size) for i, size in enumerate(sizes)]
    hits = sum(map_jobs(_measure_chunk, jobs, workers))
    ball = region.ball
    area = ball_measure(ball.radius, ball.metric, ball.T.basis_det)
    p = hits / samples
    return MeasureEstimate(area * p, area * math.sqrt(p * (1.0 - p) / samples))


def escape_region(cfg: ExperimentConfig) -> RegionSpec:
    """The escape region A_q of an ExperimentConfig's threshold ball at its detected period q."""
    return RegionSpec(cfg.ball, RegionKind.A_Q, q=cfg.q)


def separation_check(cfg: ExperimentConfig, samples: int, seed: int) -> bool:
    """True iff no sampled escape-region point returns within the wrap window.

    Samples the escape region of cfg's threshold ball and pulls every
    member backward j = 1 .. q*g(n) steps, testing escape-region
    membership of each preimage. The j = 0 term is excluded: the region
    trivially meets itself. The sample is checked a slice at a time, up
    to the first slice with a return. A centre of period 0 has no escape
    region and raises ValueError.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    region = escape_region(cfg)
    q = region.q
    window = q * cfg.g_n
    if window == 0:
        return True
    for px, py in _ball_slices(region.ball, samples, seed, 0):
        forward = _ball_masks(region, px, py, q)
        keep = _escape_masks(forward, q)[0]
        # ball masks of the slice's A_q points at times -window .. q; row i holds time i - window
        backward = _ball_masks(region, px[keep], py[keep], window, Direction.BACKWARD)
        balls = np.concatenate([backward[::-1], forward[1:, keep]])
        if _escape_masks(balls, q)[:window].any():
            return False
    return True
