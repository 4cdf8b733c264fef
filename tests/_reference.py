"""Scalar Python-int and Python-float reference paths for the array kernels.

These are the independent oracles the tests compare the vectorised
routines of extorus.torus against: exact orbit steps on Python integers,
and the torus distance as a minimum of the plane metric over lattice
shifts. The step-at-a-time trial engine, with its own one-line array
step, is the reference for the time-blocked one in extorus.simulate.
The float-remainder ball sampler and the out-of-place ball distance are
the references that the in-place and floor-folded routines of
extorus.regions and extorus.torus must equal bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from extorus.errors import ExtorusError
from extorus.regions import RegionSpec
from extorus.simulate import OBSERVABLE_CAP, ExperimentConfig, TrialRecord, _initial_states
from extorus.torus import (
    DEFAULT_MODULUS,
    Direction,
    MetricKind,
    ToralAutomorphism,
    TorusPoint,
    ball_distance,
    radius_key,
    rational_point,
)

# Shifts probed when projecting a plane metric to the torus; the zero
# shift comes first so exact ties keep the interior representative.
_SHIFTS = ((0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


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


def observable_value(
    z: TorusPoint, zeta: TorusPoint, T: ToralAutomorphism, metric: MetricKind
) -> float:
    """-log distance to the centre; +inf at the centre itself."""
    dist = torus_distance(z, zeta, T, metric)
    return math.inf if dist == 0.0 else -math.log(dist)


def simulate_chunk_stepwise(
    cfg: ExperimentConfig,
    trial_ids: list[int],
    initial_states: list[tuple[int, int]] | None = None,
) -> list[TrialRecord]:
    """Lockstep-vectorised orbits for a batch of trials, one time step per iteration."""
    T = cfg.automorphism
    modulus = cfg.modulus
    metric = cfg.metric
    zeta = rational_point(cfg.zeta)
    key_radius = radius_key(cfg.radius, metric)
    # the Euclidean key is the squared distance: -log d = -0.5 log key
    log_scale = -0.5 if metric is MetricKind.EUCLIDEAN else -1.0
    a, b, c, d = T.entries
    mask = modulus - 1

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
        dist = ball_distance(px, py, modulus, zeta, T, metric)
        hits = dist < key_radius
        np.minimum(best, dist, out=best)
        if hits.any():
            for i in np.nonzero(hits)[0]:
                times[i].append(step)
                values[i].append(observable(float(dist[i])))
        if step + 1 < cfg.n:
            px, py = (a * px + b * py) & mask, (c * px + d * py) & mask

    return [
        TrialRecord(int(tid), tuple(times[i]), tuple(values[i]), observable(float(best[i])))
        for i, tid in enumerate(trial_ids)
    ]


def sample_ball_remainder(
    region: RegionSpec, T: ToralAutomorphism, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform sample of `count` points of the default grid from the bounding ball."""
    modulus = DEFAULT_MODULUS
    r = region.radius
    if region.metric is MetricKind.EUCLIDEAN:
        rho = r * np.sqrt(rng.random(count))
        ang = 2.0 * math.pi * rng.random(count)
        ox = rho * np.cos(ang)
        oy = rho * np.sin(ang)
    else:
        xu = r * (2.0 * rng.random(count) - 1.0)
        xs = r * (2.0 * rng.random(count) - 1.0)
        eu, es = T.e_unstable, T.e_stable
        ox = xu * eu[0] + xs * es[0]
        oy = xu * eu[1] + xs * es[1]
    x = (region.zeta.x + ox) % 1.0
    y = (region.zeta.y + oy) % 1.0
    px = np.round(x * modulus).astype(np.int64) % modulus
    py = np.round(y * modulus).astype(np.int64) % modulus
    return px, py


def ball_distance_out_of_place(
    px: np.ndarray,
    py: np.ndarray,
    modulus: int,
    zeta: TorusPoint,
    T: ToralAutomorphism,
    metric: MetricKind,
) -> np.ndarray:
    """Distance key from residue-array points to zeta, one new array per operation."""
    inv = 1.0 / modulus
    dx = px * inv - zeta.x
    dy = py * inv - zeta.y
    dx -= np.rint(dx)
    dy -= np.rint(dy)
    if metric is MetricKind.EUCLIDEAN:
        return dx * dx + dy * dy
    (b00, b01), (b10, b11) = T.eigen_inverse
    return np.maximum(np.abs(b00 * dx + b01 * dy), np.abs(b10 * dx + b11 * dy))
