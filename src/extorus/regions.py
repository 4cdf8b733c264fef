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
and folded into two masks, one row at a time and in any order: strict,
the points every row decides in the region's favour, and loose, those
no row decisively fails; the unsure points are loose but not strict.
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

_decided_slices decides a sample a slice at a time on rough keys with
bands as wide as their error bounds, then the few samples the bands
leave unsure (about 1 in 1e5 at criterion 2) on their exact Ball.points
by membership_mask, so every sample is decided as on its exact point.
The rough key of a row (_row_plan) is the quadratic form where it may
be: a Euclidean row whose stride fixes the centre keys each sample by
o^T G o, G the exact Gram matrix of the row's matrix power, from u and
the float32 cos and sin of the doubled angle 4 pi v (Ball.rough_doubled,
_form_keys), with no offsets and no fold. Every other row keys the
float walk of the slice's Ball.rough_offsets (float32 trig, no
residues, _rough_keys). Time 0 takes no key:
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
from .torus import MODULUS, Ball, MetricKind, check_count, check_type, keyed_rng, map_jobs, orbit_blocks
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
# The largest ||A^(st)||_F of a row that takes the quadratic form (_row_plan): every row of
# criteria 2 and 3 (the deepest, the cat map's A^4, has norm 47). The form's band is about
# ||A^(st)||_F / 8 times the float walk's, and the samples it leaves unsure soon send slice
# after slice to the exact path, whose fixed cost is about 70 us a slice: on 1000,999,1,1's
# first row (norm 1413) at radius 1e-7 the form left 5.5e-4 of the samples unsure, the walk
# 1.5e-5, and a chunk took 28-30 ns a sample against the walk's 23.
_FORM_NORM = 64.0


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
    region: RegionSpec, keys: Iterable[tuple[int, np.ndarray]], lo: np.ndarray, hi: np.ndarray,
    placed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(member, unsure): the points the region's walk decides are in it, and
    the points whose keys it cannot decide, from the rows of keys of one walk.

    keys yields (t, key) for each row t of the walk once, in any order, row
    0 among them unless placed decides it: the float walk and the quadratic
    form (_slice_keys) or the exact walk (_exact_keys). lo and hi hold a key
    band [lo[t], hi[t]) per row t. Each row is folded into two masks: strict,
    the points whose keys are below lo[t] at the rows t < inside and at
    least hi[t] at the rows after, and loose, the points no row decisively
    fails, whose keys are below hi[t] at the rows t < inside and at least
    lo[t] after. A member is strict; an unsure point is loose but not
    strict, so a point that some row decisively fails is out whatever its
    band rows say. With lo = hi = key_radius at every row, the two masks
    agree and no point is unsure. placed, if given, decides row 0 with no
    key: the points it holds have keys below lo[0] there (Ball.placed), and
    the rest are loose.
    """
    inside = _walk(region)[1]
    strict, loose = (True if placed is None else placed), True
    for t, key in keys:
        if t < inside:
            strict = strict & (key < lo[t])
            loose = loose & (key < hi[t])
        else:
            strict = strict & (key >= hi[t])
            loose = loose & (key >= lo[t])
    return strict, loose & ~strict


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
    return _members(region, enumerate(_exact_keys(region, px, py)), radius, radius)[0]


class _Row(NamedTuple):
    """Row t >= 1 of a region's walk, as the float walk and the quadratic form read it."""

    matrix: tuple[float, float, float, float]  # A^(st) as doubles, clamped at 2^1000
    cx: float  # c_t: the folded offset of A^(st) z from the centre, z the centre's grid point
    cy: float
    gram: tuple[int, int, int]  # (alpha, beta, gamma), the exact entries of G_t = (A^(st))^T A^(st)


def _float_rows(region: RegionSpec) -> list[_Row]:
    """Each row t >= 1 of the region's walk: A^(st), the exact integer power,
    as doubles (clamped at 2^1000, where the row's band holds every key), the
    drift c_t, 0 where A^(st) fixes z, and the exact Gram matrix G_t, whose
    trace alpha + gamma is ||A^(st)||_F^2 (torus.power_norm_sq).
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
        matrix = tuple(float(max(-cap, min(e, cap))) for e in power)
        rows.append(_Row(matrix, *(x - round(x) for x in drift), (a * a + c * c, a * b + c * d, b * b + d * d)))
    return rows


def _rough_keys(
    ball: Ball, rows: Iterable[_Row], ox: np.ndarray, oy: np.ndarray, work: np.ndarray
) -> Iterator[np.ndarray]:
    """The float walk from the offsets (ox, oy): Ball.offset_key(A^(st) (ox, oy) + c_t)
    at each of the rows, in the rows of work, a (4, len(ox)) float64 array,
    so each row of keys holds until the next is yielded.
    """
    dx, dy = work[:2]
    for (a, b, c, d), cx, cy, _ in rows:
        np.multiply(ox, a, out=dx)
        dx += np.multiply(oy, b, out=work[2])
        np.multiply(ox, c, out=dy)
        dy += np.multiply(oy, d, out=work[2])
        if cx or cy:
            dx += cx
            dy += cy
        yield ball.offset_key(dx, dy, work[2:])


def _form_keys(
    forms: Iterable[tuple[float, float, float]], u: np.ndarray, cos: np.ndarray, sin: np.ndarray, work: np.ndarray
) -> Iterator[np.ndarray]:
    """The quadratic form's keys u (p + q cos + b sin) for each (p, q, b) of forms,
    cos and sin those of the doubled angle (Ball.rough_doubled), in the first
    row of work, a (2, len(u)) float64 array, so each row of keys holds until
    the next is yielded.
    """
    key, tmp = work
    for p, q, b in forms:
        np.multiply(cos, q, out=key)
        key += np.multiply(sin, b, out=tmp)
        key += p
        key *= u
        yield key


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
    points, member deciding each sample on its rough keys where an error
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

    The quadratic form keys a Euclidean row with no drift in place of the
    walk. With G = (A^k)^T A^k = [[alpha, beta], [beta, gamma]], exact in
    integers, |A^k o|^2 = o^T G o, and for o = r sqrt(u) (cos, sin)(2 pi v)
    that is r^2 u (P + Q cos 4 pi v + beta sin 4 pi v), P = (alpha + gamma)/2
    = ||A^k||_F^2 / 2 and Q = (alpha - gamma)/2. The form's key F takes the
    doubled angle's cos and sin from Ball.rough_doubled and no offset, fold
    or drift: five array operations a row, against thirteen for the walk.
    A row may take it (_form_band) where |c_k| <= 2^-50 in both coordinates
    (the centre's grid point is fixed by A^k up to the reading of a
    residue; c_k is 0 where the stride fixes z exactly, as at the origin)
    and (||A^k||_F + 1) r + 2 eps'_t < 1, with eps'_t = ||A^k||_F
    Ball.rounding_error; it does where ||A^k||_F <= _FORM_NORM too. Its band
    is [(r - eps'_t)^2 - E_t, (r + eps'_t)^2 + E_t) (lo clamped as in
    Ball.key_band), E_t = r^2 ((|Q| + |beta|) 2^-21 + (P + |Q| + |beta|) 2^-48):
    * F is within E_t of |A^k o|^2. The trig is within 2^-21 of float64 cos
      and sin of the same float64 angle; those of 2 pi frac(2v) and the
      doubled angle of o's own float64 trig are within 2^-49.3, as each
      angle rounds once, which the 2^-21 absorbs (its worst case on 2^22
      draws is 2^-21.9). By Q and beta the trig moves F by (|Q| + |beta|)
      times that. The rest are relative roundings of terms no larger than
      r^2 (P + |Q| + |beta|): o's coordinates and r sqrt(u), 2^-51; the
      squares and products of o's float64 cos and sin against the doubled
      angle's, 2^-51; the coefficients, products, sums and the factor u of
      F, 2^-50.4; with the rest, under 2^-48. Subnormal roundings, under
      2^-1074 each, are far below eps'_t^2.
    * |A^k o| is within ||A^k||_F 2^-52.4 + |c_k| + 2^-52 of the distance of
      p's image from the centre along the unfolded A^k (p - z) + c_k, and
      the exact key rounds that distance by under 2^-51: in all under
      ||A^k||_F 2^-49.9 <= eps'_t, since ||A^k||_F >= sqrt 2.
    So F < lo_t puts the exact key below key_radius, and F >= hi_t puts the
    unfolded image at least r + eps'_t from the centre. No other
    representative of it comes nearer: the image is within ||A^k||_F r +
    eps'_t / 4 of the centre, so the others are at least 1 - ||A^k||_F r -
    eps'_t / 4 > r + eps'_t away, by the guard. Every other row takes the
    walk: adapted rows, drifting rows, rows whose images could wrap and rows
    past _FORM_NORM.

    _members folds the rows with these bands, and membership_mask takes
    the unsure samples, none of them a member, on their exact points, which
    Ball.points gives from their own u and v alone. Row 0 takes no key:
    Ball.placed proves from u and v that a sample's exact key there is below
    lo[0], and leaves the few others (about 6 in 1e6 for a Euclidean ball)
    unsure.
    """
    ball = region.ball
    lo, hi, forms, walks = _row_plan(region)
    # the uniforms, then the form's doubled trig and keys, or the rough offsets and the float walk's rows
    work = np.empty((8, min(count, _SLICE)))
    for u, v in _uniform_slices(count, seed, key, work[:2]):
        keys = _slice_keys(ball, forms, walks, u, v, work[2:, : u.size])
        member, unsure = _members(region, keys, lo, hi, ball.placed(u, v, lo[0]))
        if unsure.any():
            member[unsure] = membership_mask(region, *ball.points(u[unsure], v[unsure]))
        yield u, v, member


def _row_plan(region: RegionSpec) -> tuple[np.ndarray, np.ndarray, list, list]:
    """(lo, hi, forms, walks): the key band [lo[t], hi[t]) of each row t of the
    region's walk, and its rows t >= 1 split between the quadratic form,
    forms = [(t, (p, q, b))] (_form_band), and the float walk,
    walks = [(t, _Row)]: a row takes the form where _form_band allows it
    and ||A^(st)||_F <= _FORM_NORM.
    """
    ball = region.ball
    rows = _float_rows(region)
    # ||A^(st)||_F; past 2^1000, eps_t exceeds every key (the band holds them all) and float() would overflow
    norms = [math.sqrt(2)] + [math.sqrt(min(row.gram[0] + row.gram[2], 1 << 1000)) for row in rows]
    lo, hi = ball.key_band(ball.rough_error * np.array(norms))
    forms, walks = [], []
    for t, row in enumerate(rows, 1):
        form = _form_band(ball, row, norms[t]) if norms[t] <= _FORM_NORM else None
        if form is None:
            walks.append((t, row))
        else:
            lo[t], hi[t], coefficients = form
            forms.append((t, coefficients))
    return lo, hi, forms, walks


def _form_band(ball: Ball, row: _Row, norm: float) -> tuple[float, float, tuple[float, float, float]] | None:
    """(lo, hi, (p, q, b)) of the quadratic form at a row of norm ||A^(st)||_F:
    its key band and r^2 (P, Q, beta), or None where the row may not take it
    (an adapted ball, a drift, or images that could fold back into the ball).
    _decided_slices proves the band.
    """
    r, r2 = ball.radius, ball.key_radius
    eps = norm * ball.rounding_error
    if (
        ball.metric is not MetricKind.EUCLIDEAN
        or max(abs(row.cx), abs(row.cy)) > 2.0**-50
        or (norm + 1.0) * r + 2.0 * eps >= 1.0
    ):
        return None
    alpha, beta, gamma = row.gram
    p, q = (alpha + gamma) / 2, (alpha - gamma) / 2
    trig = r2 * ((abs(q) + abs(beta)) * 2.0**-21 + (p + abs(q) + abs(beta)) * 2.0**-48)
    (lo,), (hi,) = ball.key_band(np.array([eps]))
    return lo - trig, hi + trig, (r2 * p, r2 * q, r2 * beta)


def _slice_keys(
    ball: Ball, forms: list, walks: list, u: np.ndarray, v: np.ndarray, work: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """(t, key) of each row t >= 1 of a slice's walk, _row_plan's forms first and
    then its walks, in the rows of work, a (6, len(u)) float64 array: the
    form takes its doubled trig in rows 0-2 and its keys in rows 2-3, and
    the walk its rough offsets in rows 0-3 and its keys in rows 2-5. Each
    key holds until the next is yielded.
    """
    if forms:
        ts, coefficients = zip(*forms)
        cos, sin = ball.rough_doubled(v, work[:3])
        yield from zip(ts, _form_keys(coefficients, u, cos, sin, work[2:4]))
    if walks:
        ts, rows = zip(*walks)
        ox, oy = ball.rough_offsets(u, v, work[:4])
        yield from zip(ts, _rough_keys(ball, rows, ox, oy, work[2:6]))


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
