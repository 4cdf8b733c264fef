"""Scalar Python-int and Python-float reference paths for the array kernels.

These are the independent oracles the tests compare the vectorised
routines of extorus.torus against: exact orbit steps on Python integers,
and the torus distance as a minimum of the plane metric over lattice
shifts. The step-at-a-time trial engine, with its own one-line array
step, is the reference for the time-blocked one in extorus.simulate, and
the residues of 16 random bytes are the reference for its trial starts
taken from raw bit-generator outputs. The float-remainder ball sampler
and the out-of-place ball key are the references that the floor-folded
and in-place methods of extorus.torus.Ball must equal bit for bit; both
whole-draw samplers, which draw all of u and then all of v, are the
references for the sampler of extorus.regions that streams them a slice
at a time. The whole-array separation check, which samples, maps and
masks every point at once and reads escape membership off whole ball-mask
matrices, is the reference for the sliced, row-walking one, and the
Python-int orbit read against each region's definition is the reference
for region membership. The row-at-a-time CSV reader and the
per-exceedance loop estimators, on per-trial tuples, are the references
for the columnar reader and estimators of extorus.cli and
extorus.simulate. The paper's four-arcsin
grouping of the Euclidean cluster-size law is the reference for the
stable strip-gap ratio of extorus.formulas.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from extorus.errors import ExtorusError
from extorus.regions import RegionKind, RegionSpec
from extorus.cli import BLOCK_MAX_HEADER, EXCEEDANCE_HEADER, _config_from_echo, _fmt
from extorus.errors import NoExceedances
from extorus.simulate import Clusters, ExperimentConfig, Records, _initial_states
from extorus.torus import (
    MODULUS,
    OBSERVABLE_CAP,
    Ball,
    MetricKind,
    ToralAutomorphism,
    TorusPoint,
    keyed_rng,
    orbit_blocks,
    rational_point,
)

# Shifts probed when projecting a plane metric to the torus; the zero
# shift comes first so exact ties keep the interior representative.
_SHIFTS = ((0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


class Direction(Enum):
    """The matrix step_exact applies: A forward, its integral inverse backward."""

    FORWARD = 1
    BACKWARD = -1


class ShiftSetInsufficient(ExtorusError):
    """The lattice-shift search window cannot certify the torus distance.

    Raised when the minimising shift lies on the boundary of the
    {-1,0,1}^2 window and the resulting distance exceeds 0.25, so a wider
    window might produce a smaller value (sheared eigenbasis metrics only;
    every distance below 0.25 is certified exact).
    """


@dataclass(frozen=True)
class ExactOrbitState:
    """A rational torus point (px/modulus, py/modulus) as residues."""

    px: int
    py: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if not (0 <= self.px < self.modulus and 0 <= self.py < self.modulus):
            raise ValueError("residues must lie in [0, modulus)")

    def to_point(self) -> TorusPoint:
        return TorusPoint(self.px / self.modulus, self.py / self.modulus)


def step_exact(
    state: ExactOrbitState, T: ToralAutomorphism, direction: Direction = Direction.FORWARD
) -> ExactOrbitState:
    """One exact orbit step in modular integer arithmetic (no rounding)."""
    if direction is Direction.FORWARD:
        a, b, c, d = T.entries
    else:
        a, b, c, d = T.inverse_entries
    m = state.modulus
    return ExactOrbitState((a * state.px + b * state.py) % m, (c * state.px + d * state.py) % m, m)


def _plane_distance(dx: float, dy: float, T: ToralAutomorphism, metric: MetricKind) -> float:
    if metric is MetricKind.EUCLIDEAN:
        return math.hypot(dx, dy)
    (b00, b01), (b10, b11) = T.eigen_inverse
    xu = b00 * dx + b01 * dy
    xs = b10 * dx + b11 * dy
    return max(abs(xu), abs(xs))


def torus_distance(
    z: TorusPoint, w: TorusPoint, T: ToralAutomorphism, metric: MetricKind
) -> float:
    """Distance on the torus: minimum of the plane metric over lattice shifts.

    The search window {-1,0,1}^2 certifies any distance below 0.25 in
    both metrics. If the minimising shift lands on the window boundary
    while the distance exceeds 0.25, a shift outside the window could in
    principle do better for the sheared adapted metric, so
    ShiftSetInsufficient is raised rather than returning a possibly
    non-minimal value.
    """
    dx0 = z.x - w.x
    dy0 = z.y - w.y
    best = math.inf
    best_shift = (0, 0)
    for kx, ky in _SHIFTS:
        dist = _plane_distance(dx0 + kx, dy0 + ky, T, metric)
        if dist < best:
            best = dist
            best_shift = (kx, ky)
    if best > 0.25 and best_shift != (0, 0):
        raise ShiftSetInsufficient(
            f"minimising shift {best_shift} is on the window boundary at distance {best}"
        )
    return best


def region_member(region: RegionSpec, px: int, py: int) -> tuple[bool, float]:
    """Membership of the grid point (px, py) / MODULUS in the region, from its Python-int orbit.

    Each kind's definition read directly: BALL is d(z) < r; A_Q is z in
    the ball and T^j z out of it for j = 1 .. q; U_KAPPA is T^(jq) z in it
    for j = 0 .. kappa; Q_KAPPA is U_KAPPA with T^((kappa+1)q) z out. The
    orbit is stepped forward to the last time read, and the distances are
    taken stepping back from there to z. Also returns the least |d / r - 1|
    over the distances read, so that a caller can leave out points on a
    boundary. A distance the shift window cannot certify is at least 0.25,
    outside every ball of a region.
    """
    ball, q, kappa = region.ball, region.q, region.kappa
    nested = [j * q for j in range(kappa + 1)]
    inside, outside = {
        RegionKind.BALL: ([0], []),
        RegionKind.A_Q: ([0], list(range(1, q + 1))),
        RegionKind.U_KAPPA: (nested, []),
        RegionKind.Q_KAPPA: (nested, [(kappa + 1) * q]),
    }[region.kind]
    last = max(inside + outside)
    state = ExactOrbitState(px, py, MODULUS)
    for _ in range(last):
        state = step_exact(state, ball.T)
    distances = {}
    for t in range(last, -1, -1):
        try:
            distances[t] = torus_distance(state.to_point(), ball.centre, ball.T, ball.metric)
        except ShiftSetInsufficient:
            distances[t] = math.inf
        if t:
            state = step_exact(state, ball.T, Direction.BACKWARD)
    assert (state.px, state.py) == (px, py)
    member = all(distances[t] < ball.radius for t in inside) and all(
        distances[t] >= ball.radius for t in outside
    )
    return member, min(abs(d / ball.radius - 1.0) for d in distances.values())


def observable_value(
    z: TorusPoint, zeta: TorusPoint, T: ToralAutomorphism, metric: MetricKind
) -> float:
    """-log distance to the centre; +inf at the centre itself."""
    dist = torus_distance(z, zeta, T, metric)
    return math.inf if dist == 0.0 else -math.log(dist)


def _printed_gap(lam_abs: float, power: int) -> float:
    """asin(L/sqrt(L^2+1)) - asin(1/sqrt(L^2+1)) at L = lam_abs**power.

    Above L = 100, where the asin form loses digits, its identical atan
    form atan(L) - atan(1/L).
    """
    big = lam_abs**power
    if big > 100.0:
        return math.atan(big) - math.atan(1.0 / big)
    root = math.sqrt(big * big + 1.0)
    return math.asin(big / root) - math.asin(1.0 / root)


def printed_multiplicity_pi(lam_abs: float, q: int, kappa: int) -> float:
    """The Euclidean pi(kappa) in the paper's four-arcsin grouping.

    (2 g(kappa q) - g((kappa-1) q) - g((kappa+1) q)) / g(q), with g the
    angular gap at L = lam**p. Well conditioned only while lam^(kappa q)
    stays moderate: the grouping cancels to the double noise floor.
    """
    low = _printed_gap(lam_abs, (kappa - 1) * q)
    mid = _printed_gap(lam_abs, kappa * q)
    high = _printed_gap(lam_abs, (kappa + 1) * q)
    return (2.0 * mid - low - high) / _printed_gap(lam_abs, q)


def initial_states_from_bytes(seed: int, trial_ids) -> list[tuple[int, int]]:
    """Each trial's start: two residues of 16 bytes of keyed_rng(seed, k), read little-endian."""
    states = []
    for tid in trial_ids:
        rng = keyed_rng(seed, int(tid))
        x, y = (int.from_bytes(rng.bytes(16), "little") % MODULUS for _ in range(2))
        states.append((x, y))
    return states


def simulate_chunk_stepwise(
    cfg: ExperimentConfig,
    trial_ids: list[int],
    initial_states: list[tuple[int, int]] | None = None,
) -> Records:
    """Lockstep-vectorised orbits for a batch of trials, one time step per iteration."""
    ball = cfg.ball
    # the Euclidean key is the squared distance: -log d = -0.5 log key
    log_scale = -0.5 if cfg.metric is MetricKind.EUCLIDEAN else -1.0
    a, b, c, d = cfg.automorphism.entries
    mask = MODULUS - 1

    def observable(key: float) -> float:
        return OBSERVABLE_CAP if key == 0.0 else log_scale * math.log(key)

    if initial_states is None:
        initial_states = _initial_states(cfg, trial_ids)
    px = np.array([s[0] for s in initial_states], dtype=np.int64)
    py = np.array([s[1] for s in initial_states], dtype=np.int64)

    width = len(trial_ids)
    times: list[list[int]] = [[] for _ in range(width)]
    values: list[list[float]] = [[] for _ in range(width)]
    best = np.full(width, np.inf)

    for step in range(cfg.n):
        dist = ball.key(px, py)
        hits = dist < ball.key_radius
        np.minimum(best, dist, out=best)
        if hits.any():
            for i in np.nonzero(hits)[0]:
                times[i].append(step)
                values[i].append(observable(float(dist[i])))
        if step + 1 < cfg.n:
            px, py = (a * px + b * py) & mask, (c * px + d * py) & mask

    return records_of(
        [(times[i], values[i], observable(float(best[i]))) for i in range(len(trial_ids))]
    )


def records_of(trials) -> Records:
    """Records from each trial's (exceedance times, values, block maximum), times increasing."""
    return Records(
        np.array([k for k, (times, _, _) in enumerate(trials) for _ in times], dtype=np.int64),
        np.array([t for times, _, _ in trials for t in times], dtype=np.int64),
        np.array([v for _, values, _ in trials for v in values], dtype=np.float64),
        np.array([m for _, _, m in trials], dtype=np.float64),
    )


def clusters_of(trials) -> Clusters:
    """Clusters from each trial's (cluster sizes, cluster times), times increasing."""
    return Clusters(
        np.array([k for k, (sizes, _) in enumerate(trials) for _ in sizes], dtype=np.int64),
        np.array([s for sizes, _ in trials for s in sizes], dtype=np.int64),
        np.array([t for _, times in trials for t in times], dtype=np.float64),
        len(trials),
    )


def decluster(times: tuple[int, ...], run_gap: int, v_n: float):
    """Runs declustering of one trial's increasing times: (cluster sizes, cluster times)."""
    if not times:
        return (), ()
    sizes: list[int] = []
    starts: list[int] = []
    current = 1
    start = times[0]
    for prev, cur in zip(times, times[1:]):
        if cur - prev <= run_gap:
            current += 1
        else:
            sizes.append(current)
            starts.append(start)
            current = 1
            start = cur
    sizes.append(current)
    starts.append(start)
    return tuple(sizes), tuple(s / v_n for s in starts)


def empirical_multiplicity(sizes_by_trial) -> dict[int, float]:
    """Normalised histogram of the cluster sizes of every trial."""
    counts: dict[int, int] = {}
    total = 0
    for sizes in sizes_by_trial:
        for size in sizes:
            counts[size] = counts.get(size, 0) + 1
            total += 1
    if total == 0:
        raise NoExceedances("no clusters across the supplied summaries")
    return {k: v / total for k, v in sorted(counts.items())}


def pooled_gaps(times_by_trial, window_span: float) -> np.ndarray:
    """Gaps between cluster times, trial i glued on at offset i * window_span."""
    glued: list[float] = []
    for i, times in enumerate(times_by_trial):
        offset = i * window_span
        glued.extend(t + offset for t in times)
    arr = np.asarray(glued)
    return np.diff(arr) if arr.size else arr


def repp_counts(times_by_trial, horizon_steps: int) -> np.ndarray:
    """Each trial's exceedance count before horizon_steps."""
    return np.array(
        [sum(1 for t in times if t < horizon_steps) for times in times_by_trial], dtype=np.int64
    )


def _csv_rows(path: Path, header: str, parse):
    """(line number, parse(*fields)) of each data row; parse puts the float value last."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}:1: expected header {header!r}")
    for lineno, line in enumerate(lines[1:], 2):
        try:
            row = parse(*line.split(","))
        except (TypeError, ValueError):  # TypeError: wrong field count
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from None
        if not math.isfinite(row[-1]):
            raise ValueError(f"{path}:{lineno}: non-finite value in {line!r}")
        yield lineno, row


def read_records_rowwise(indir: Path) -> tuple[ExperimentConfig, Records]:
    """A simulate directory read one row at a time by int() and float(), every row checked."""
    path = indir / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)):
        raise ValueError(f"{path}: not a JSON object holding a config object")
    cfg = _config_from_echo(manifest["config"], path)

    maxima: dict[int, float] = {}
    path = indir / "block_maxima.csv"
    rows = _csv_rows(path, BLOCK_MAX_HEADER, lambda trial, m: (int(trial), float(m)))
    for lineno, (trial, maximum) in rows:
        if not 0 <= trial < cfg.trials:
            raise ValueError(
                f"{path}:{lineno}: trial {trial} is not in the manifest's 0..{cfg.trials - 1}"
            )
        if trial in maxima:
            raise ValueError(f"{path}:{lineno}: duplicate trial {trial}")
        maxima[trial] = maximum
    if len(maxima) != cfg.trials:
        raise ValueError(
            f"{path}:{len(maxima) + 2}: {len(maxima)} trials, the manifest says {cfg.trials}"
        )

    # (time, line, value) of each trial's exceedances
    hits: dict[int, list[tuple[int, int, float]]] = {t: [] for t in maxima}
    u_n, n = cfg.u_n, cfg.n
    path = indir / "exceedances.csv"
    rows = _csv_rows(path, EXCEEDANCE_HEADER, lambda trial, t, v: (int(trial), int(t), float(v)))
    for lineno, (trial, t, v) in rows:
        if trial not in hits:
            raise ValueError(f"{path}:{lineno}: trial {trial} has no block maximum")
        if not 0 <= t < n:
            raise ValueError(f"{path}:{lineno}: time {t} is not in the manifest's [0, {n})")
        if v <= u_n:
            raise ValueError(f"{path}:{lineno}: value {_fmt(v)} is not above u_n = {_fmt(u_n)}")
        hits[trial].append((t, lineno, v))

    trials = []
    for trial in sorted(maxima):
        ordered = sorted(hits[trial])
        times = tuple(t for t, _, _ in ordered)
        if not all(map(operator.lt, times, times[1:])):
            t, lineno, _ = next(b for a, b in zip(ordered, ordered[1:]) if a[0] == b[0])
            raise ValueError(f"{path}:{lineno}: repeated time {t} of trial {trial}")
        trials.append((times, tuple(v for _, _, v in ordered), maxima[trial]))
    return cfg, records_of(trials)


def sample_ball_remainder(
    ball: Ball, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform sample of `count` points of the ball's grid from the ball."""
    r = ball.radius
    if ball.metric is MetricKind.EUCLIDEAN:
        rho = r * np.sqrt(rng.random(count))
        ang = 2.0 * math.pi * rng.random(count)
        ox = rho * np.cos(ang)
        oy = rho * np.sin(ang)
    else:
        xu = r * (2.0 * rng.random(count) - 1.0)
        xs = r * (2.0 * rng.random(count) - 1.0)
        eu, es = ball.T.e_unstable, ball.T.e_stable
        ox = xu * eu[0] + xs * es[0]
        oy = xu * eu[1] + xs * es[1]
    x = (ball.centre.x + ox) % 1.0
    y = (ball.centre.y + oy) % 1.0
    px = np.round(x * MODULUS).astype(np.int64) % MODULUS
    py = np.round(y * MODULUS).astype(np.int64) % MODULUS
    return px, py


def ball_key_out_of_place(px: np.ndarray, py: np.ndarray, ball: Ball) -> np.ndarray:
    """The ball's key of residue-array points, one new array per operation."""
    inv = 1.0 / MODULUS
    dx = px * inv - ball.centre.x
    dy = py * inv - ball.centre.y
    dx -= np.rint(dx)
    dy -= np.rint(dy)
    if ball.metric is MetricKind.EUCLIDEAN:
        return dx * dx + dy * dy
    (b00, b01), (b10, b11) = ball.T.eigen_inverse
    return np.maximum(np.abs(b00 * dx + b01 * dy), np.abs(b10 * dx + b11 * dy))


def sample_ball(ball: Ball, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform sample of `count` points of the ball's grid from the ball, whole."""
    return ball.points(rng.random(count), rng.random(count))


def _ball_masks(ball: Ball, px: np.ndarray, py: np.ndarray, steps: int, stride: int) -> np.ndarray:
    """Ball masks of the orbits at times 0, s, .., steps*s (s = stride): one (steps + 1, width) array."""
    blocks = orbit_blocks(px, py, ball.T, steps, stride)
    return np.concatenate([ball.key(block.x, block.y) < ball.key_radius for block in blocks])


def _escape_mask(balls: np.ndarray, t: int, q: int) -> np.ndarray:
    """A_q membership at time t from the ball masks at times t .. t+q."""
    return balls[t] & ~balls[t + 1 : t + q + 1].any(axis=0)


def separation_check(cfg: ExperimentConfig, samples: int, seed: int) -> bool:
    """True iff no sampled escape-region point returns within the wrap window.

    Samples the escape region of the config's threshold ball (on the
    2^61 grid, at its detected period q) and pulls every member backward
    j = 1 .. q*g(n) steps, testing escape-region membership of each
    preimage. The j = 0 term is excluded: the region trivially meets
    itself. Every mask is one whole array: the sample's ball masks at
    times 0 .. q, and its members' at times -window .. q.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    ball = Ball(cfg.automorphism, rational_point(cfg.zeta), cfg.radius, cfg.metric)
    if cfg.q < 1:
        raise ValueError("a_q requires q >= 1")
    q, window = cfg.q, cfg.q * cfg.g_n
    px, py = sample_ball(ball, samples, keyed_rng(seed, 0))
    forward = _ball_masks(ball, px, py, q, 1)
    keep = _escape_mask(forward, 0, q)
    if not keep.any() or window == 0:
        return True
    # ball masks at times -window .. q; row i holds time i - window
    backward = _ball_masks(ball, px[keep], py[keep], window, -1)
    balls = np.concatenate([backward[::-1], forward[1:, keep]])
    return not any(_escape_mask(balls, window - j, q).any() for j in range(1, window + 1))
