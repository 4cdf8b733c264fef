"""Exact region membership and an independent Monte Carlo measure oracle.

Regions are subsets of a small metric ball (torus.Ball) around a centre.
Each is one walk (stride, inside, outside) of the table _walk: the points
whose orbit at times 0, s, 2s, .. (s = stride) is in the ball `inside`
times, then out of it `outside` times.

* BALL    (1, 1, 0)         - the ball itself, key(z) < key_radius;
* A_Q     (1, 1, q)         - escape region: in the ball, the next q images outside;
* U_KAPPA (q, kappa + 1, 0) - nested set: images at times 0, q, .., kappa*q inside;
* Q_KAPPA (q, kappa + 1, 1) - strip: in U_KAPPA but not in U_(KAPPA+1).

One routine, _members, decides every membership: each row of keys of a
walk of the orbits is compared with a band [lo, hi) around key_radius
and folded into a member mask and an unsure mask, one row at a time.
membership_mask feeds it the exact walk, _exact_keys, with bands of zero
width, which leave no point unsure: orbits by the exact residue kernel
of the torus module (points are snapped to the 2**61 grid, after which
there is no drift), each image tested with the ball's key, so decisions
are exact up to a boundary fuzz of one part in 1e16 of the radius. The
table also sets the local range guard: a walk reads images up to
(inside + outside - 1) * stride steps on.

The measure oracle samples uniformly from the ball rather than the whole
torus, a variance reduction of about 1/(pi r^2), and multiplies the hit
fraction by the ball area. Sampling is split into fixed-size chunks
whose random streams are keyed by (seed, chunk index); the merged
estimate is a pure function of the seed, independent of how chunks are
assigned to workers. The chunks run through torus.map_jobs, whose pool
is the one a caller holds open with torus.process_pool when it has as
many processes (validate holds one for its whole run, so criterion 2's
eight calls share it), else one started and joined for the call. A
sample is one keyed stream: u is its first
`count` doubles and v the `count` after them. _uniform_slices draws
both a slice of _SLICE points at a time, v from a copy of the
stream advanced `count` draws on, so no caller holds an array larger
than a slice, whatever the sample size.

_decided_slices decides a sample a slice at a time: a float walk of the
slice's Ball.rough_offsets (float32 trig, no residues, _rough_keys) with
bands as wide as its error bound, then the few samples the bands leave
unsure (about 1 in 1e5 at criterion 2) on their exact Ball.points by
membership_mask, so every sample is decided as on its exact point. Time
0 takes no key:
Ball.placed places a sample's point there in the ball from its uniforms
alone (u < u*, for the Euclidean metric, with 1 - u* about 6e-6), and
the samples it does not place are unsure. The oracle counts the
members. The separation scan maps the members alone to exact points
and pulls them back with one walk, counting each point's rows out of
the ball since its last row in it. escape_region builds an
experiment's escape region, for the scan and the ratio estimator.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import OutOfLocalRange
from .formulas import _power, ball_measure
from .torus import MODULUS, Ball, check_count, check_type, keyed_rng, map_jobs, orbit_blocks, power_norm_sq
from .torus import _power as _matrix_power

if TYPE_CHECKING:  # simulate imports this module
    from .simulate import ExperimentConfig

_CHUNK = 1 << 18
# Points per slice of a sample, the width of the oracle's workspace, and
# orbit_blocks' budget for the exact walks of a slice: one row of a slice
# per block. At 3 * 2^12 criterion 2's chunks take as long as at 2^14
# (2^12, 2^13 and 2^16 were about 30, 15 and 10 % slower), and the seven
# rows the float walk touches stay under six rows of 2^14.
_SLICE = 3 << 12
MIN_SAMPLES = 1000  # the fewest samples the oracle and the separation scan take
# the most: 2^53 is the largest count whose hit fraction a double holds exactly
MAX_SAMPLES = 1 << 53


def check_samples(name: str, value, minimum: int | None = MIN_SAMPLES) -> int:
    """The sample rule of the oracle and the separation scan: an int (check_count) in [minimum, MAX_SAMPLES]."""
    return check_count(name, value, minimum, MAX_SAMPLES)


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
        check_type("ball", self.ball, Ball)
        check_type("kind", self.kind, RegionKind)
        if not (0.0 < self.ball.radius < 0.25):
            raise ValueError("radius must lie in (0, 0.25)")
        object.__setattr__(self, "q", check_count("q", self.q, 0 if self.kind is RegionKind.BALL else 1))
        object.__setattr__(self, "kappa", check_count("kappa", self.kappa, 0))


def _walk(region: RegionSpec) -> tuple[int, int, int]:
    """The region's walk (stride, inside, outside); see the module notes."""
    return {
        RegionKind.BALL: (1, 1, 0),
        RegionKind.A_Q: (1, 1, region.q),
        RegionKind.U_KAPPA: (region.q, region.kappa + 1, 0),
        RegionKind.Q_KAPPA: (region.q, region.kappa + 1, 1),
    }[region.kind]


def _members(
    region: RegionSpec, keys: Iterable[np.ndarray], lo: np.ndarray, hi: np.ndarray, placed: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(member, unsure): the points the region's walk decides are in it, and
    the points whose keys it cannot decide, from the rows of keys of one walk.

    keys yields the walk's rows of keys in time order, from row 0, or from
    row 1 when placed decides row 0: the float walk (_rough_keys) or the
    exact one (_exact_keys). lo and hi hold a key band [lo[t], hi[t]) per
    row t. A point is unsure if a key lies in its row's band, and a member
    if its key is below lo[t] at the rows t < inside and at least hi[t] at
    the rows after; a key in its band fails both tests, so no unsure point
    is a member. With lo = hi = key_radius at every row, no point is
    unsure. placed, if given, decides row 0 with no key: the points it
    holds have keys below lo[0] there (Ball.placed), and the rest are
    unsure.
    """
    inside = _walk(region)[1]
    member, unsure, t = (True, False, 0) if placed is None else (placed, ~placed, 1)
    for key in keys:
        unsure = unsure | ((lo[t] <= key) & (key < hi[t]))
        member = member & ((key < lo[t]) if t < inside else (key >= hi[t]))
        t += 1
    return member, unsure


def _exact_keys(region: RegionSpec, px: np.ndarray, py: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of keys of the region's walk from the residue points (px, py), from row 0."""
    ball = region.ball
    stride, inside, outside = _walk(region)
    for block in orbit_blocks(px, py, ball.T, inside + outside - 1, stride, elements=_SLICE):
        yield from ball.key(block.x, block.y)


def membership_mask(region: RegionSpec, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Vectorised membership of residue-array points in the region: _members with exact bands."""
    _, inside, outside = _walk(region)
    radius = np.full(inside + outside, region.ball.key_radius)
    return _members(region, _exact_keys(region, px, py), radius, radius)[0]


def _float_rows(region: RegionSpec) -> list[tuple[tuple[float, ...], float, float]]:
    """((a, b, c, d), cx, cy) of each row t >= 1 of the region's walk: A^(st),
    the exact integer power, as doubles (clamped at 2^1000, where the row's
    band holds every key), and c_t, the folded offset of A^(st) z from the
    centre, z the centre's grid point: 0 where A^(st) fixes z.
    """
    ball, mask, cap = region.ball, MODULUS - 1, 1 << 1000
    stride, inside, outside = _walk(region)
    centre = (ball.centre.x, ball.centre.y)
    zx, zy = (round(x * MODULUS) & mask for x in centre)
    rows = []
    for t in range(1, inside + outside):
        power = _matrix_power(ball.T.entries, stride * t, mask=-1)
        a, b, c, d = power
        drift = (((a * zx + b * zy) & mask) / MODULUS - centre[0], ((c * zx + d * zy) & mask) / MODULUS - centre[1])
        rows.append((tuple(float(max(-cap, min(e, cap))) for e in power), *(x - round(x) for x in drift)))
    return rows


def _rough_keys(ball: Ball, rows: list, ox: np.ndarray, oy: np.ndarray, work: np.ndarray) -> Iterator[np.ndarray]:
    """The float walk from the offsets (ox, oy): Ball.offset_key(A^(st) (ox, oy) + c_t)
    at each of _float_rows' rows, in the rows of work, a (4, len(ox)) float64
    array, so each row of keys holds until the next is yielded.
    """
    dx, dy = work[:2]
    for (a, b, c, d), cx, cy in rows:
        np.multiply(ox, a, out=dx)
        dx += np.multiply(oy, b, out=work[2])
        np.multiply(ox, c, out=dy)
        dy += np.multiply(oy, d, out=work[2])
        if cx or cy:
            dx += cx
            dy += cy
        yield ball.offset_key(dx, dy, work[2:])


def _uniform_slices(
    count: int, seed: int, key: int, out: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The uniforms (u, v) of a sample of `count` points, _SLICE at a time.

    The sample is keyed_rng(seed, key)'s first 2*count doubles: u is the
    first count and v the next count, the bits of one whole draw. Each
    double is one output of the bit generator, so a second copy of the
    stream advanced by count draws v alongside u. Every slice is drawn
    into the two rows of out, a (2, min(count, _SLICE)) array,
    so a slice's arrays hold until the next slice is drawn.
    """
    u_rng, v_rng = keyed_rng(seed, key), keyed_rng(seed, key)
    v_rng.bit_generator.advance(count)
    for lo in range(0, count, _SLICE):
        size = min(_SLICE, count - lo)
        yield u_rng.random(out=out[0, :size]), v_rng.random(out=out[1, :size])


class MeasureEstimate(NamedTuple):
    estimate: float
    std_error: float


def _local_range_guard(region: RegionSpec) -> None:
    """Raise OutOfLocalRange if an image the region's walk reads may wrap the torus."""
    stride, inside, outside = _walk(region)
    reach = (inside + outside - 1) * stride
    if _power(region.ball.T.lam_abs, reach) * region.ball.radius >= 0.5:
        raise OutOfLocalRange(
            f"lam^({reach // region.q}q) * radius >= 1/2: preimages wrap at kappa={region.kappa}"
        )


def _decided_slices(region: RegionSpec, count: int, seed: int, key: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(u, v, member) of each _uniform_slices slice of a sample of `count`
    points, member deciding each sample on its float walk where an error
    bound proves the answer and on its exact point elsewhere. The arrays
    hold until the next slice is drawn.

    Why member is membership_mask's on Ball.points(u, v), bit for bit: with
    o the offset that Ball.points folds to the grid point p, o' the rough
    offset and z the centre's grid point, p's image at row t (time k = s t)
    is A^k (p - z) + c_k from the centre on the torus, and the float walk
    takes fl(A^k o') + fl(c_k). Their distance, with the keys' roundings,
    is within eps_t = ||A^k||_F delta' (delta' = Ball.rough_error; the
    Frobenius norm, exact by torus.power_norm_sq, bounds any matrix's
    stretch and is at least sqrt 2, so an absolute error e is under
    ||A^k||_F e / sqrt 2):
    * |o - o'| <= sqrt(2) r 2^-21 + r 2^-52: float32 cos and sin of
      float32(2 pi v) are within 2^-21 of float64 ones (the worst of 2^22
      draws is 2.56e-7); doubled, sqrt(2) r 2^-20 absorbs the bands'
      relative roundings. Adapted offsets take no trig: o' = o.
    * |(p - z) - o|: the fold and the snap of p, 2^-53 + 2^-62 a coordinate,
      and z - centre, 2^-62: under 2^-52.4, times ||A^k||_F.
    * the walk: entries as doubles, products and sum, each a relative
      2^-53, move A^k o' by under 3.01 2^-53 ||A^k||_F 2r; adding c_k rounds
      under 2^-53 (2r ||A^k||_F + 1/2) a coordinate, and c_k is read from a
      residue within 2^-52, as the exact key reads one. The folds are exact.
    * the keys: each rounds under 2^-51 (Euclidean) or, near the radius,
      r 2^-50.9 N (adapted, N = Ball._stretch, by which key_band grows), as
      do the band's edges.
    The terms in r sum to under r 2^-48.8, the rest to under 2^-49.4, so
    delta' = sqrt(2) r 2^-20 (Euclidean) + r 2^-48 + 2^-48. Near the radius
    (keys below 1/4) both folds pick the nearest representatives, each
    coordinate being within 2r < 1/2 of 0; so a rough key outside
    Ball.key_band(eps_t) is on the exact key's side of key_radius. A row of
    norm 2^48 or more has eps_t >= 1: its band holds every key.

    _members walks the rough offsets with these bands, and membership_mask
    the unsure samples, none of them a member, on their exact points, which
    Ball.points gives from their own u and v alone. Row 0 takes no key:
    Ball.placed proves from u and v that a sample's exact key there is below
    lo[0], and leaves the few others (about 6 in 1e6 for a Euclidean ball)
    unsure.
    """
    ball = region.ball
    stride, inside, outside = _walk(region)
    # past 2^1000, eps_t exceeds every key (the band holds them all) and float() would overflow
    norms = [math.sqrt(min(power_norm_sq(ball.T, stride * t), 1 << 1000)) for t in range(inside + outside)]
    lo, hi = ball.key_band(ball.rough_error * np.array(norms))
    rows = _float_rows(region)
    # the uniforms, the rough offsets, and the float walk's two rows and its keys' scratch
    work = np.empty((8, min(count, _SLICE)))
    for u, v in _uniform_slices(count, seed, key, work[:2]):
        ox, oy = ball.rough_offsets(u, v, work[2:6])
        keys = _rough_keys(ball, rows, ox, oy, work[4:, : u.size])
        member, unsure = _members(region, keys, lo, hi, ball.placed(u, v, lo[0]))
        if unsure.any():
            member[unsure] = membership_mask(region, *ball.points(u[unsure], v[unsure]))
        yield u, v, member


def _measure_chunk(args: tuple) -> int:
    """The hits of one chunk: the members of its sample that _decided_slices finds."""
    region, seed, index, size = args
    return sum(int(np.count_nonzero(member)) for _, _, member in _decided_slices(region, size, seed, index))


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
    check_type("region", region, RegionSpec)
    samples = check_samples("samples", samples)
    _local_range_guard(region)
    sizes = [min(_CHUNK, samples - lo) for lo in range(0, samples, _CHUNK)]
    jobs = [(region, seed, i, size) for i, size in enumerate(sizes)]
    hits = sum(map_jobs(_measure_chunk, jobs, workers))
    ball = region.ball
    area = ball_measure(ball.radius, ball.metric, ball.T.basis_det)
    p = hits / samples
    return MeasureEstimate(area * p, area * math.sqrt(p * (1.0 - p) / samples))


def escape_region(cfg: ExperimentConfig) -> RegionSpec:
    """The escape region A_q of an ExperimentConfig's threshold ball at its detected period q."""
    from .simulate import ExperimentConfig  # at call time: simulate imports this module

    check_type("cfg", cfg, ExperimentConfig)
    return RegionSpec(cfg.ball, RegionKind.A_Q, q=cfg.q)


def separation_check(cfg: ExperimentConfig, samples: int, seed: int) -> bool:
    """True iff no sampled escape-region point returns within the wrap window.

    Samples the escape region A_q of cfg's threshold ball and pulls every
    member back j = 1 .. q*g(n) steps: the preimage at time -j is in A_q
    if it is in the ball and its next q images are out (j = 0, the
    region meeting itself, is excluded). The scan stops at the first
    return. A centre of period 0 has no escape region and raises ValueError.
    """
    samples = check_samples("samples", samples)
    region = escape_region(cfg)
    window = region.q * cfg.g_n  # steps, and rows too: the escape walk's stride is 1
    if window == 0:
        return True
    ball, outside = region.ball, _walk(region)[2]
    for u, v, member in _decided_slices(region, samples, seed, 0):
        # the members at times 0, -1, .., -window; run: each one's rows out of the ball since its last in
        px, py = ball.points(u[member], v[member])
        run = np.zeros(px.size, np.int64)
        for block in orbit_blocks(px, py, ball.T, window, -1, elements=_SLICE):
            for key in ball.key(block.x, block.y):
                inside = key < ball.key_radius
                if (inside & (run >= outside)).any():
                    return False
                run = np.where(inside, 0, run + 1)
    return True
