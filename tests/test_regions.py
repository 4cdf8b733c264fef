"""Region membership, the Monte Carlo measure oracle, separation."""

from __future__ import annotations

import itertools
import math
import os
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference as ref
from _reference import sample_ball, sample_ball_remainder
from extorus import (
    Ball,
    ExperimentConfig,
    MetricKind,
    OutOfLocalRange,
    RegionKind,
    RegionSpec,
    ToralAutomorphism,
    TorusPoint,
    area_A_q,
    monte_carlo_measure,
    nested_area_U,
    separation_check,
    strip_area_Q,
    wrap_time_g,
)
from extorus import acceptance, regions, simulate, torus
from extorus.regions import (
    _SLICE,
    _decided_slices,
    _exact_keys,
    _float_rows,
    _local_range_guard,
    _measure_chunk,
    _members,
    _rough_keys,
    _uniform_slices,
    membership_mask,
)
from extorus.torus import MODULUS, keyed_rng, orbit_blocks

CAT = ToralAutomorphism(2, 1, 1, 1)
ORIGIN = TorusPoint(0.0, 0.0)
S = 0.01
BALL = Ball(CAT, ORIGIN, S, MetricKind.EUCLIDEAN)


def sliced_sample(ball, count, seed, key):
    """Ball.points of each _uniform_slices slice, concatenated."""
    work = np.empty((2, min(count, _SLICE)))
    slices = [ball.points(u, v) for u, v in _uniform_slices(count, seed, key, work)]
    assert all(len(px) <= _SLICE for px, _ in slices)
    return tuple(np.concatenate(part) for part in zip(*slices))


def ball_region():
    return RegionSpec(BALL, RegionKind.BALL)


class TestRegionSpec:
    def test_radius_bound(self):
        with pytest.raises(ValueError):
            RegionSpec(Ball(CAT, ORIGIN, 0.25, MetricKind.EUCLIDEAN), RegionKind.BALL)

    def test_kinds_require_period(self):
        for kind in (RegionKind.A_Q, RegionKind.U_KAPPA, RegionKind.Q_KAPPA):
            with pytest.raises(ValueError):
                RegionSpec(BALL, kind)


class TestContains:
    def test_centre_in_ball_and_nested_sets(self):
        centre = np.zeros(1, dtype=np.int64)  # the origin's residue
        assert membership_mask(ball_region(), centre, centre)[0]
        for kappa in range(4):
            region = RegionSpec(BALL, RegionKind.U_KAPPA, q=1, kappa=kappa)
            assert membership_mask(region, centre, centre)[0]

    def test_nested_level_zero_is_ball(self):
        # membership of U at kappa=0 agrees with the plain ball on 1e5 points
        rng = np.random.default_rng(2)
        ball = ball_region()
        u0 = RegionSpec(BALL, RegionKind.U_KAPPA, q=1, kappa=0)
        px, py = sample_ball(BALL, 100_000, rng)
        # widen: also points outside the ball
        px = np.concatenate([px, rng.integers(0, MODULUS, 1000)])
        py = np.concatenate([py, rng.integers(0, MODULUS, 1000)])
        a = membership_mask(ball, px, py)
        b = membership_mask(u0, px, py)
        assert np.array_equal(a, b)

    def test_strip_partition_is_exact(self):
        # every sampled ball point lies in exactly one strip, kappa <= 60
        rng = np.random.default_rng(3)
        ball = ball_region()
        px, py = sample_ball(BALL, 30_000, rng)
        inside = membership_mask(ball, px, py)
        px, py = px[inside], py[inside]
        counts = np.zeros(px.shape[0], dtype=np.int64)
        for kappa in range(61):
            strip = RegionSpec(BALL, RegionKind.Q_KAPPA, q=1, kappa=kappa)
            counts += membership_mask(strip, px, py).astype(np.int64)
        assert np.all(counts == 1)

    def test_strip_dynamics(self):
        # the q-fold map sends strip kappa+1 onto strip kappa
        rng = np.random.default_rng(4)
        px, py = sample_ball(BALL, 200_000, rng)
        q2 = RegionSpec(BALL, RegionKind.Q_KAPPA, q=1, kappa=2)
        member = membership_mask(q2, px, py)
        assert member.any()
        _, fwd = orbit_blocks(px[member], py[member], CAT, 1)
        q1 = RegionSpec(BALL, RegionKind.Q_KAPPA, q=1, kappa=1)
        assert membership_mask(q1, fwd.x[0], fwd.y[0]).all()


# coordinates at both ends of [0, 1) and anywhere in between
COORDINATES = st.one_of(
    st.sampled_from([0.0, 1.0 - 2.0**-53]), st.floats(0.0, 1.0, exclude_max=True)
)


CRITERION_2_REGIONS = [(RegionKind.A_Q, 0)] + [(RegionKind.Q_KAPPA, k) for k in range(4)] + [
    (RegionKind.U_KAPPA, k) for k in range(1, 4)
]
# a centre at the top of [0, 1) in both coordinates, where offsets fold across 1
TOP = TorusPoint(1.0 - 2.0**-53, 1.0 - 2.0**-53)
# the cat map's point (1/5, 2/5), of period 2: a stride-1 walk moves it, so its rows carry a drift
PERIOD_TWO = TorusPoint(0.2, 0.4)
# (metric, kind, kappa, matrix, centre, radius, size) of one oracle chunk. First every
# kind of both metrics at sizes around the slice (38,528 is the last chunk of a
# 10M-sample oracle call: 10M mod 2^18); then Euclidean chunks of 2^18, whose points
# are rough wherever the key band decides them: kappa 0..3 of both walks at stride q,
# matrices with negative entries and a large trace, both centres, radii 1e-7, 0.01
# and the local range guard's edge
CHUNK_CASES = [
    pytest.param(metric, kind, 2, (2, 1, 1, 1), ORIGIN, S, size, id=f"{size}-{kind}-{metric}")
    for size in (1, _SLICE - 1, _SLICE, _SLICE + 1, 38_528)
    for kind in RegionKind
    for metric in MetricKind
] + [
    pytest.param(MetricKind.EUCLIDEAN, kind, kappa, matrix, centre, radius, 1 << 18,
                 id=f"filter-{','.join(map(str, matrix))}-{'top' if centre is TOP else 0}-{radius}-{kind.value}{kappa}")
    for matrix, centre, radius, kind, kappa in (
        [((2, 1, 1, 1), ORIGIN, S, kind, kappa) for kind, kappa in CRITERION_2_REGIONS]
        + [((3, 1, 2, 1), TOP, "edge", kind, kappa)
           for kind in (RegionKind.Q_KAPPA, RegionKind.U_KAPPA) for kappa in range(4)]
        + [((-3, 1, -1, 0), ORIGIN, 1e-7, RegionKind.Q_KAPPA, kappa) for kappa in range(4)]
        + [((-3, 1, -1, 0), TOP, S, RegionKind.U_KAPPA, kappa) for kappa in range(4)]
        + [((1000, 999, 1, 1), TOP, 1e-7, kind, kappa)
           for kind, kappa in CRITERION_2_REGIONS[:2] + [(RegionKind.U_KAPPA, 1)]]
        + [((1000, 999, 1, 1), ORIGIN, "edge", RegionKind.Q_KAPPA, kappa) for kappa in range(2)]
        + [((1000, 999, 1, 1), ORIGIN, "edge", RegionKind.BALL, 0)]
    )
]


class TestSampler:
    @settings(max_examples=60, deadline=None)
    @given(
        metric=st.sampled_from(list(MetricKind)),
        x=COORDINATES,
        y=COORDINATES,
        radius=st.floats(1e-6, 0.2499),
        matrix=st.sampled_from([(2, 1, 1, 1), (-1000, -999, -1, -1)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_remainder_fold(self, metric, x, y, radius, matrix, seed):
        # x - floor(x) and the mask give the bits of x % 1.0 and % MODULUS
        ball = Ball(ToralAutomorphism(*matrix), TorusPoint(x, y), radius, metric)
        # more points than one slice holds: the slices must join into the whole sample
        count = _SLICE + 3000
        px, py = sliced_sample(ball, count, seed, 0)
        ref_x, ref_y = sample_ball_remainder(ball, count, keyed_rng(seed, 0))
        np.testing.assert_array_equal(px, ref_x)
        np.testing.assert_array_equal(py, ref_y)

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize(
        # 38,528 is the last chunk of a 10M-sample oracle call: 10M mod 2^18
        "count", [1000, _SLICE, _SLICE + 1, 1 << 18, 10_000_000 % (1 << 18)]
    )
    def test_streamed_slices_are_the_whole_draw(self, metric, count):
        # u is the stream's first count doubles and v the next count, drawn whole
        ball = Ball(ToralAutomorphism(3, 1, 2, 1), TorusPoint(0.3, 0.7), 0.01, metric)
        px, py = sliced_sample(ball, count, 2**70 + 5, 3)
        ref_x, ref_y = sample_ball_remainder(ball, count, keyed_rng(2**70 + 5, 3))
        np.testing.assert_array_equal(px, ref_x)
        np.testing.assert_array_equal(py, ref_y)

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (1.0 - 2.0**-53, 0.0), (0.0, 1.0 - 2.0**-53)])
    def test_edge_uniforms_bit_identical(self, metric, x, y):
        # offsets in (-2^-54, 0) from a centre at 0 fold to 1.0, whose residue wraps to 0:
        # u = 1e-40 (Euclidean) and u, v = 0.5 - 2^-55 (adapted) make them
        edges = np.array([0.0, 1e-40, 0.25, 0.5 - 2.0**-55, 0.5, 0.5 + 2.0**-54, 1.0 - 2.0**-53])
        u, v = (a.ravel() for a in np.meshgrid(edges, edges))

        class Uniforms:  # a generator stand-in that hands out u, then v
            def __init__(self):
                self.arrays = [u, v]

            def random(self, count):
                return self.arrays.pop(0)

        ball = Ball(CAT, TorusPoint(x, y), 0.2, metric)
        px, py = ball.points(u, v)
        ref_x, ref_y = sample_ball_remainder(ball, u.size, Uniforms())
        np.testing.assert_array_equal(px, ref_x)
        np.testing.assert_array_equal(py, ref_y)
        assert px.min() >= 0 and py.min() >= 0
        assert px.max() < MODULUS and py.max() < MODULUS

    @pytest.mark.parametrize("metric, kind, kappa, matrix, centre, radius, size", CHUNK_CASES)
    def test_sliced_chunk_counts_whole_chunk(self, metric, kind, kappa, matrix, centre, radius, size):
        T = ToralAutomorphism(*matrix)
        if radius == "edge":  # the largest radius the local range guard accepts
            stride, inside, outside = regions._walk(RegionSpec(BALL, kind, q=1, kappa=kappa))
            radius = min(math.nextafter(0.5 / T.lam_abs ** ((inside + outside - 1) * stride), 0.0), 0.2499)
        region = RegionSpec(Ball(T, centre, radius, metric), kind, q=1, kappa=kappa)
        _local_range_guard(region)
        # chunk 29 of seed 5 holds a point that is in the cat map's ball of radius 0.01 at
        # times 0, 1 and 2, while its float32-trig point leaves it at time 2: there, a
        # zero-width key band would miscount Q_1, Q_2 and U_2
        px, py = sample_ball(region.ball, size, keyed_rng(5, 29))
        whole = int(np.count_nonzero(membership_mask(region, px, py)))
        assert _measure_chunk((region, 5, 29, size)) == whole
        assert whole > 0 or size == 1  # the count is not vacuous

    @settings(max_examples=60, deadline=None)
    @given(
        metric=st.sampled_from(list(MetricKind)),
        kind=st.sampled_from(list(RegionKind)),
        kappa=st.integers(0, 3),
        matrix=st.sampled_from([(2, 1, 1, 1), (3, 1, 2, 1), (-3, 1, -1, 0)]),
        # the origin; a point of period 2, whose stride-1 rows carry a drift; a centre where offsets fold across 1
        centre=st.sampled_from([ORIGIN, PERIOD_TWO, TOP]),
        q=st.sampled_from([1, 2]),
        radius=st.sampled_from([1e-7, 0.005, S, 0.02]),
        count=st.integers(1, 2 * _SLICE + 100),
        seed=st.integers(0, 2**32 - 1),
        key=st.integers(0, 100),
    )
    # chunk 29 of seed 5, where a zero-width key band would miscount Q_1 (see above)
    @example(MetricKind.EUCLIDEAN, RegionKind.Q_KAPPA, 1, (2, 1, 1, 1), ORIGIN, 1, S, 1 << 18, 5, 29)
    # regions that mix quadratic-form rows and float-walk rows (TestQuadraticForm.test_rows_that_take_the_form)
    @example(MetricKind.EUCLIDEAN, RegionKind.A_Q, 0, (2, 1, 1, 1), PERIOD_TWO, 2, S, 1 << 16, 3, 1)
    @example(MetricKind.EUCLIDEAN, RegionKind.Q_KAPPA, 3, (2, 1, 1, 1), PERIOD_TWO, 1, S, 1 << 16, 3, 2)
    def test_decided_slices_are_exact_membership(self, metric, kind, kappa, matrix, centre, q, radius, count, seed, key):
        region = RegionSpec(Ball(ToralAutomorphism(*matrix), centre, radius, metric), kind, q=q, kappa=kappa)
        drawn = 0
        for u, v, member in _decided_slices(region, count, seed, key):
            np.testing.assert_array_equal(member, membership_mask(region, *region.ball.points(u, v)))
            drawn += u.size
        assert drawn == count

    def test_exact_fallback_share_at_criterion_2(self, monkeypatch):
        # criterion 2's eight regions: under 1e-4 of the samples take the exact points
        exact = []
        points = Ball.points
        monkeypatch.setattr(Ball, "points", lambda ball, u, v: exact.append(u.size) or points(ball, u, v))
        for i, (kind, kappa) in enumerate(CRITERION_2_REGIONS):
            _measure_chunk((RegionSpec(BALL, kind, q=1, kappa=kappa), acceptance._SEED + i, 0, 1 << 18))
        assert 0 < sum(exact) < 1e-4 * 8 * (1 << 18)

    def test_exact_fallback_share_of_the_dense_ratio(self, monkeypatch):
        # the measure ratio of the dense adapted run at the fixed point: 200k samples of A_1, whose
        # band is the float walk's rounding alone; under 1e-4 of them take the exact points
        cfg = ExperimentConfig(n=50_000, metric=MetricKind.ADAPTED, tau=40.0)
        exact = []
        points = Ball.points
        monkeypatch.setattr(Ball, "points", lambda ball, u, v: exact.append(u.size) or points(ball, u, v))
        monte_carlo_measure(regions.escape_region(cfg), 200_000, cfg.seed + 1)
        assert sum(exact) < 1e-4 * 200_000


# uniforms at the ends of [0, 1), around the quarters and at the middle, in every (u, v) pair
RIM = [a.ravel() for a in np.meshgrid(*[[0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]] * 2)]


class TestFloatWalk:
    """The oracle's float walk of rough offsets against the exact walk of Ball.points, row by row."""

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("matrix", [(2, 1, 1, 1), (3, 1, 2, 1), (-3, 1, -1, 0), (1000, 999, 1, 1)])
    @pytest.mark.parametrize("centre", [ORIGIN, TOP, PERIOD_TWO], ids=["origin", "top", "period-2"])
    @pytest.mark.parametrize("radius", [1e-7, 1e-4, 0.01, 0.2499])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_keys_within_the_widened_band(self, metric, matrix, centre, radius, stride):
        T = ToralAutomorphism(*matrix)
        ball = Ball(T, centre, radius, metric)
        # the most rows the local range guard accepts: U_kappa walks kappa rows past time 0
        kappa = 0
        while T.lam_abs ** (stride * (kappa + 1)) * radius < 0.5:
            kappa += 1
        region = RegionSpec(ball, RegionKind.U_KAPPA, q=stride, kappa=kappa)
        _local_range_guard(region)
        rng = np.random.default_rng(25)
        # uniforms at the rim as well as across the ball
        u = np.concatenate([RIM[0], 1.0 - 1e-4 * rng.random(1 << 13), rng.random(1 << 13)])
        v = np.concatenate([RIM[1], rng.random(1 << 14)])
        exact = list(_exact_keys(region, *ball.points(u, v)))[1:]
        rows = _float_rows(region)
        offsets = ball.rough_offsets(u, v, np.empty((4, u.size)))
        rough = [key.copy() for key in _rough_keys(ball, rows, *offsets, np.empty((4, u.size)))]
        assert len(rough) == len(exact) == kappa
        # the drift is 0 at the origin, which every power fixes, and not elsewhere
        assert [(row.cx, row.cy) == (0.0, 0.0) for row in rows] == [centre is ORIGIN] * kappa
        for t, (key, rough_key) in enumerate(zip(exact, rough), 1):
            eps = math.sqrt(torus.power_norm_sq(T, stride * t)) * ball.rough_error
            if metric is MetricKind.EUCLIDEAN:
                gap = np.abs(np.sqrt(key) - np.sqrt(rough_key))
            else:  # below 1/4 the folded offsets are the nearest ones, and the key grows by eps times N at most
                near = np.minimum(key, rough_key) < 0.24
                gap = np.abs(key - rough_key)[near] / ball._stretch
            assert gap.max(initial=0.0) <= eps
            # so a rough key outside the band decides the exact one
            (lo,), (hi,) = ball.key_band(np.array([eps]))
            assert (key[rough_key < lo] < ball.key_radius).all()
            assert (key[rough_key >= hi] >= ball.key_radius).all()


def form_band(ball, t):
    """regions._form_band at row t of a stride-1 walk from the ball's centre: None where the row may
    not take the quadratic form."""
    row = _float_rows(RegionSpec(ball, RegionKind.U_KAPPA, q=1, kappa=t))[t - 1]
    return regions._form_band(ball, row, math.sqrt(torus.power_norm_sq(ball.T, t)))


def form_limit(T, t):
    """The largest radius below 1/4 at which row t of a stride-1 walk from the origin may take the
    quadratic form, or None if it may at 1/4 too: by bisection on _form_band."""
    def takes(radius):
        return form_band(Ball(T, ORIGIN, radius, MetricKind.EUCLIDEAN), t) is not None

    inside, outside = 1e-9, 0.2499
    if takes(outside):
        return None
    while math.nextafter(inside, 1.0) < outside:
        middle = 0.5 * (inside + outside)
        middle = middle if inside < middle < outside else math.nextafter(inside, 1.0)
        inside, outside = (middle, outside) if takes(middle) else (inside, middle)
    return inside


class TestQuadraticForm:
    """The oracle's quadratic-form keys against the exact keys of Ball.points, row by row."""

    @pytest.mark.parametrize("matrix", [(2, 1, 1, 1), (3, 1, 2, 1), (-3, 1, -1, 0), (1000, 999, 1, 1)])
    @pytest.mark.parametrize("radius", [1e-7, 1e-4, 0.01, "limit"])
    def test_keys_within_the_band(self, matrix, radius):
        T = ToralAutomorphism(*matrix)
        if radius == "limit":  # the guard's limit for the first row whose limit is below 1/4
            radius = next(limit for t in itertools.count(1) if (limit := form_limit(T, t)) is not None)
        ball = Ball(T, ORIGIN, radius, MetricKind.EUCLIDEAN)
        # every row the guard allows, whatever its norm; the first row it refuses ends the walk
        bands = []
        while (band := form_band(ball, len(bands) + 1)) is not None:
            bands.append(band)
        if not bands:  # 1000,999,1,1 at 0.01: the images of row 1 could fold back into the ball
            assert (math.sqrt(torus.power_norm_sq(T, 1)) + 1.0) * radius >= 1.0
            return
        region = RegionSpec(ball, RegionKind.U_KAPPA, q=1, kappa=len(bands))
        rows = _float_rows(region)
        rng = np.random.default_rng(32)
        u = [RIM[0], 1.0 - 1e-4 * rng.random(1 << 13), rng.random(1 << 13)]
        v = [RIM[1], rng.random(1 << 14)]
        # uniforms on each row's ellipse |A^t o| = r, u = 1 / (P + Q cos 4 pi v + beta sin 4 pi v),
        # where it lies in the disc, and a relative 1e-12 to either side
        turn = np.arange(1 << 12) / (1 << 12)
        worst = []  # each row's worst-case trig uniforms, as a slice of the sample
        for row in rows:
            alpha, beta, gamma = row.gram
            edge = 1.0 / ((alpha + gamma) / 2 + (alpha - gamma) / 2 * np.cos(4 * np.pi * turn)
                          + beta * np.sin(4 * np.pi * turn))
            for shift in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
                inside = edge * shift < 1.0
                u.append(edge[inside] * shift)
                v.append(turn[inside])
            # the trig's worst case at the rim: where the form moves fastest with the doubled angle
            # phi, phi - atan2(-Q, beta) = pi (mod 2 pi), in [pi, 2 pi), where float32(phi) rounds by
            # up to 2^-23 (2^-22 from 4 on), every 1/64 of a float32 step over 8 steps
            phi = math.atan2(-(alpha - gamma) / 2, beta) % math.pi + math.pi
            steps = phi + np.arange(-256, 257) * 2.0**-27 * (2.0 if phi >= 4.0 else 1.0)
            worst.append(slice(sum(map(len, u)), sum(map(len, u)) + steps.size))
            u.append(np.full(steps.size, 1.0 - 2.0**-53))
            v.append(steps / (4.0 * math.pi))
        u, v = np.concatenate(u), np.concatenate(v)
        exact = list(_exact_keys(region, *ball.points(u, v)))[1:]
        cos, sin = ball.rough_doubled(v, np.empty((3, u.size)))
        forms = [coefficients for _, _, coefficients in bands]
        rough = [key.copy() for key in regions._form_keys(forms, u, cos, sin, np.empty((2, u.size)))]
        assert len(rough) == len(exact) == len(bands)
        r2 = ball.key_radius
        for t, (key, form, (lo, hi, coefficients), row, rim) in enumerate(zip(exact, rough, bands, rows, worst), 1):
            # the band's parts: eps' for the distance, E for the form's trig and roundings
            alpha, beta, gamma = row.gram
            P, Q = (alpha + gamma) / 2, (alpha - gamma) / 2
            assert coefficients == (r2 * P, r2 * Q, r2 * beta)
            trig = r2 * ((abs(Q) + abs(beta)) * 2.0**-21 + (P + abs(Q) + abs(beta)) * 2.0**-48)
            eps = math.sqrt(torus.power_norm_sq(T, t)) * ball.rounding_error
            (edge_lo,), (edge_hi,) = ball.key_band(np.array([eps]))
            assert (lo, hi) == (edge_lo - trig, edge_hi + trig)
            # the exact distance lies within eps' of those that the form key and E allow ...
            assert (np.sqrt(key) <= np.sqrt(form + trig) + eps).all()
            near = form + trig < 0.2  # below that, no other representative of the image is nearer
            assert (np.sqrt(key[near]) >= np.sqrt(np.maximum(form[near] - trig, 0.0)) - eps).all()
            # ... so a form key outside the band decides the exact one
            assert (key[form < lo] < r2).all()
            assert (key[form >= hi] >= r2).all()
            # and the band decides: non-members at every row, members too where it leaves room below
            assert (form >= hi).any()
            assert lo <= 0.0 or (form < lo).any()
            # the trig's term is tight within a factor 8: the worst-case uniforms reach an eighth of it
            # wherever their images are near (float32(phi) rounds by 2^-23 or 2^-22 of the 2^-21 it
            # allows, and the form moves by sqrt(Q^2 + beta^2) >= (|Q| + |beta|) / sqrt 2 per radian)
            if near[rim].all():
                assert np.abs(form - key)[rim].max() >= r2 * (abs(Q) + abs(beta)) * 2.0**-21 / 8

    def test_rows_that_take_the_form(self):
        def plan(ball, kind, q=1, kappa=0):
            _, _, forms, walks = regions._row_plan(RegionSpec(ball, kind, q=q, kappa=kappa))
            return [t for t, _ in forms], [t for t, _ in walks]

        # every row of criteria 2 and 3
        for kind, kappa in CRITERION_2_REGIONS:
            forms, walks = plan(BALL, kind, kappa=kappa)
            assert forms and not walks
        cfg = ExperimentConfig(matrix=(2, 1, 1, 1), zeta=(Fraction(0), Fraction(0)), n=100_000, tau=1.0)
        assert plan(cfg.ball, RegionKind.A_Q) == ([1], [])
        # at the cat map's point (1/5, 2/5), of period 2, the even rows: the drift of the odd ones is not 0
        assert plan(Ball(CAT, PERIOD_TWO, S, MetricKind.EUCLIDEAN), RegionKind.A_Q, q=2) == ([2], [1])
        assert plan(Ball(CAT, PERIOD_TWO, S, MetricKind.EUCLIDEAN), RegionKind.Q_KAPPA, kappa=3) == ([2, 4], [1, 3])
        # no adapted row, no row whose images could fold back into the ball, no row past _FORM_NORM
        assert plan(Ball(CAT, ORIGIN, S, MetricKind.ADAPTED), RegionKind.U_KAPPA, kappa=3) == ([], [1, 2, 3])
        assert plan(Ball(CAT, ORIGIN, 0.1, MetricKind.EUCLIDEAN), RegionKind.U_KAPPA, kappa=3) == ([1, 2], [3])
        assert form_band(Ball(CAT, ORIGIN, 1e-4, MetricKind.EUCLIDEAN), 5) is not None  # ||A^5||_F = 123
        assert plan(Ball(CAT, ORIGIN, 1e-4, MetricKind.EUCLIDEAN), RegionKind.U_KAPPA, kappa=5) == ([1, 2, 3, 4], [5])
        # a form row's band is _form_band's, a walk row's the float walk's
        ball = Ball(CAT, PERIOD_TWO, S, MetricKind.EUCLIDEAN)
        lo, hi, _, _ = regions._row_plan(RegionSpec(ball, RegionKind.A_Q, q=2))
        eps = math.sqrt(torus.power_norm_sq(CAT, 1)) * ball.rough_error
        assert (lo[1], hi[1]) == tuple(edge[0] for edge in ball.key_band(np.array([eps])))
        assert (lo[2], hi[2]) == form_band(ball, 2)[:2]


def near_lines(width, seed):
    """Residues of points offset from the origin along the cat map's eigenlines, thin along
    either one at random, so that forward and backward walks both stay near the ball."""
    rng = np.random.default_rng(seed)
    xu, xs = 1.5 * S * rng.uniform(-1, 1, (2, width)) * CAT.lam_abs ** -rng.integers(0, 8, (2, width))
    return tuple(
        np.round((xu * eu + xs * es) % 1.0 * MODULUS).astype(np.int64) % MODULUS
        for eu, es in zip(CAT.e_unstable, CAT.e_stable)
    )


class TestMembers:
    """_members, folded a row at a time, against the whole key matrix of the walk."""

    @settings(max_examples=120, deadline=None)
    @given(
        stride=st.sampled_from([-3, -2, -1, 1, 2, 3]),
        inside=st.integers(1, 4),
        outside=st.integers(0, 4),
        width=st.integers(0, 9),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_against_brute_force_key_matrix(self, stride, inside, outside, width, seed, data):
        rows = inside + outside
        # band edges as fractions of key_radius below and above it; 0 on both sides is a zero-width band
        widths = st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 0.5])
        below, above = (np.array(data.draw(st.lists(widths, min_size=rows, max_size=rows))) for _ in "ab")
        lo, hi = BALL.key_radius * (1.0 - below), BALL.key_radius * (1.0 + above)
        px, py = near_lines(width, seed)
        keys = np.concatenate([BALL.key(b.x, b.y) for b in orbit_blocks(px, py, CAT, rows - 1, stride)])
        assert keys.shape == (rows, width)
        # the rows in time order, and shuffled: the two masks do not depend on the order
        order = data.draw(st.permutations(range(rows)))
        with mock.patch.object(regions, "_walk", lambda region: (stride, inside, outside)):
            # the exact walk's rows of keys are the matrix's rows
            np.testing.assert_array_equal(np.array(list(_exact_keys(ball_region(), px, py))).reshape(keys.shape), keys)
            member, unsure = _members(ball_region(), enumerate(keys), lo, hi)
            shuffled = _members(ball_region(), ((t, keys[t]) for t in order), lo, hi)
        for got, want in zip(shuffled, (member, unsure)):
            np.testing.assert_array_equal(got, want)
        lo, hi = lo[:, None], hi[:, None]
        # strict: every row decided in the region's favour; loose: no row decisively against it
        strict = (keys[:inside] < lo[:inside]).all(axis=0) & (keys[inside:] >= hi[inside:]).all(axis=0)
        loose = (keys[:inside] < hi[:inside]).all(axis=0) & (keys[inside:] >= lo[inside:]).all(axis=0)
        np.testing.assert_array_equal(member, strict)
        np.testing.assert_array_equal(unsure, loose & ~strict)
        assert not (member & unsure).any()
        # an unsure point has a key in some band; a point decisively out of some row is not unsure
        in_band = ((lo <= keys) & (keys < hi)).any(axis=0)
        assert not (unsure & ~in_band).any()
        assert not (unsure & ~loose).any()
        if not (below.any() or above.any()):
            assert not unsure.any()
        # placed decides row 0 in place of its keys: members there, the rest loose
        placed = np.array(data.draw(st.lists(st.booleans(), min_size=width, max_size=width)), bool)
        given_placed = placed.copy()
        with mock.patch.object(regions, "_walk", lambda region: (stride, inside, outside)):
            member, unsure = _members(ball_region(), ((t, keys[t]) for t in range(1, rows)), lo[:, 0], hi[:, 0], placed)
        np.testing.assert_array_equal(placed, given_placed)
        later_strict = (keys[1:inside] < lo[1:inside]).all(axis=0) & (keys[inside:] >= hi[inside:]).all(axis=0)
        later_loose = (keys[1:inside] < hi[1:inside]).all(axis=0) & (keys[inside:] >= lo[inside:]).all(axis=0)
        np.testing.assert_array_equal(member, placed & later_strict)
        np.testing.assert_array_equal(unsure, later_loose & ~(placed & later_strict))


def probe_points(ball, q, rng):
    """Residues of points in and around the ball, most of them thin along its stable line.

    A point of U_kappa lies within about r lam^(-kappa q) of the stable
    line, so the thin points have unstable offsets down to r lam^(-5q).
    """
    T, r, count = ball.T, ball.radius, 300
    xu = 1.5 * r * rng.uniform(-1, 1, count) * T.lam_abs ** -rng.integers(0, 5 * q + 1, count)
    xs = 1.5 * r * rng.uniform(-1, 1, count)
    thin = [
        np.round(((centre + xu * eu + xs * es) % 1.0) * MODULUS).astype(np.int64) % MODULUS
        for centre, eu, es in zip((ball.centre.x, ball.centre.y), T.e_unstable, T.e_stable)
    ]
    px, py = sample_ball(ball, 100, rng)
    return np.concatenate([px, thin[0]]), np.concatenate([py, thin[1]])


class TestMembershipAgainstPythonInt:
    """membership_mask equals each region's definition read on Python-int orbits."""

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("matrix", [(2, 1, 1, 1), (3, 1, 2, 1), (-3, 1, -1, 0)])
    @pytest.mark.parametrize("q", [1, 2])
    def test_every_kind(self, q, matrix, metric):
        ball = Ball(ToralAutomorphism(*matrix), ORIGIN, 0.02, metric)
        px, py = probe_points(ball, q, np.random.default_rng(q))
        specs = [RegionSpec(ball, RegionKind.BALL), RegionSpec(ball, RegionKind.A_Q, q=q)]
        specs += [
            RegionSpec(ball, kind, q=q, kappa=kappa)
            for kind in (RegionKind.U_KAPPA, RegionKind.Q_KAPPA)
            for kappa in range(4)
        ]
        for region in specs:
            mask = membership_mask(region, px, py)
            compared = []
            for i in range(px.size):
                member, margin = ref.region_member(region, int(px[i]), int(py[i]))
                if margin > 1e-9:  # leave out points within rounding of a boundary
                    assert mask[i] == member, (region, i)
                    compared.append(member)
            # members and non-members both compared
            assert 0 < sum(compared) < len(compared), region


class TestMonteCarloMeasure:
    def test_ball_sanity(self):
        est, se = monte_carlo_measure(ball_region(), 100_000, 1)
        assert abs(est - math.pi * S * S) <= 3 * se + 1e-12

    def test_escape_region_oracle(self):
        # this is the independent oracle for the escape-area closed form
        region = RegionSpec(BALL, RegionKind.A_Q, q=1)
        est, se = monte_carlo_measure(region, 1_000_000, 2)
        assert abs(est - area_A_q(S, CAT, 1)) <= 3 * se

    def test_adapted_escape_region(self):
        region = RegionSpec(Ball(CAT, ORIGIN, 0.005, MetricKind.ADAPTED), RegionKind.A_Q, q=1)
        est, se = monte_carlo_measure(region, 1_000_000, 3)
        theta = 1.0 - 1.0 / CAT.lam_abs
        ball_area = 4 * 0.005**2 * CAT.basis_det
        assert abs(est - theta * ball_area) <= 3 * se

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_nested_sets_match_strip_complements(self, kappa):
        region = RegionSpec(BALL, RegionKind.U_KAPPA, q=1, kappa=kappa
        )
        est, se = monte_carlo_measure(region, 1_000_000, 4 + kappa)
        assert abs(est - nested_area_U(S, CAT, 1, kappa)) <= 3 * se

    @pytest.mark.parametrize("kappa", [0, 1, 2, 3])
    def test_strips_match_closed_form(self, kappa):
        region = RegionSpec(BALL, RegionKind.Q_KAPPA, q=1, kappa=kappa
        )
        est, se = monte_carlo_measure(region, 1_000_000, 8 + kappa)
        assert abs(est - strip_area_Q(S, CAT, 1, kappa)) <= 3 * se

    @pytest.mark.xfail(
        strict=True,
        reason="configured nested-set tail bound lam^(-kq) s^2 omits the covering "
        "rectangle factor 4: the exact area is 4 s^2 atan(lam^(-kq)), which exceeds "
        "the bound for every kappa; kept as stated and reported honestly",
    )
    def test_nested_tail_bound_as_configured(self):
        for kappa in range(1, 6):
            ball = Ball(CAT, ORIGIN, 0.003, MetricKind.EUCLIDEAN)
            region = RegionSpec(ball, RegionKind.U_KAPPA, q=1, kappa=kappa)
            est, se = monte_carlo_measure(region, 200_000, 20 + kappa)
            assert est <= CAT.lam_abs ** (-kappa) * 0.003**2 + 3 * se

    def test_strips_partition_ball_measure(self):
        # MC strip measures for kappa 0..3 plus the remaining nested set
        # must recombine into the MC ball measure within combined errors
        total, var = 0.0, 0.0
        for kappa in range(4):
            region = RegionSpec(BALL, RegionKind.Q_KAPPA, q=1, kappa=kappa
            )
            est, se = monte_carlo_measure(region, 400_000, 40 + kappa)
            total += est
            var += se * se
        rest = RegionSpec(BALL, RegionKind.U_KAPPA, q=1, kappa=4)
        est, se = monte_carlo_measure(rest, 400_000, 44)
        total += est
        var += se * se
        ball_est, ball_se = monte_carlo_measure(ball_region(), 400_000, 45)
        var += ball_se * ball_se
        assert abs(total - ball_est) <= 3.0 * math.sqrt(var) + 1e-12

    def test_deterministic_and_worker_invariant(self):
        region = RegionSpec(BALL, RegionKind.A_Q, q=1)
        one = monte_carlo_measure(region, 600_000, 7, workers=1)
        again = monte_carlo_measure(region, 600_000, 7, workers=1)
        multi = monte_carlo_measure(region, 600_000, 7, workers=2)
        assert one == again == multi

    def test_pool_capped_at_jobs_and_cores(self, monkeypatch):
        # a stand-in pool records its size and runs the jobs in-process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(torus, "ProcessPoolExecutor", RecordingPool)
        samples = 2 * (1 << 18) + 1000  # three chunks
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        many = monte_carlo_measure(ball_region(), samples, 5, workers=100_000)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        few = monte_carlo_measure(ball_region(), samples, 5, workers=100_000)
        assert sizes == [3, 2]
        assert many == few == monte_carlo_measure(ball_region(), samples, 5)

    # a bool, a float or a string is not a count: True would run as one worker
    @pytest.mark.parametrize("workers", [0, -5, True, 2.5, "2"])
    def test_worker_counts_below_one_rejected(self, monkeypatch, workers):
        # the count is checked before any work; a pool would fail the test
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(torus, "ProcessPoolExecutor", no_pool)
        wrong = f"an int, got {workers!r}" if type(workers) is not int else f">= 1, got {workers}"
        with pytest.raises(ValueError, match=f"worker count must be {wrong}"):
            monte_carlo_measure(ball_region(), 1 << 19, 5, workers=workers)

    def test_error_shrinks_like_sqrt_samples(self):
        region = RegionSpec(Ball(CAT, ORIGIN, 0.02, MetricKind.EUCLIDEAN), RegionKind.A_Q, q=1)
        small = monte_carlo_measure(region, 250_000, 9)
        large = monte_carlo_measure(region, 1_000_000, 9)
        assert large.std_error == pytest.approx(small.std_error / 2.0, rel=0.1)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_measure(ball_region(), 999, 1)

    def test_local_range_guard(self):
        # lam^5 * 0.01 > 1/2: strip 4 wraps, strip 3 is the last local one
        bad = RegionSpec(BALL, RegionKind.Q_KAPPA, q=1, kappa=4)
        with pytest.raises(OutOfLocalRange):
            monte_carlo_measure(bad, 1000, 1)


class TestLocalRangeGuard:
    """The guard reads each walk's reach, (inside + outside - 1) * stride steps."""

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_nested_level_zero_measures_past_lam_q_radius(self, metric):
        # U_0 reads no image: it is the ball, sample for sample, even where lam^q r >= 1/2
        ball = Ball(ToralAutomorphism(1, 140, 140, 19601), ORIGIN, S, metric)
        assert ball.T.lam_abs * S >= 0.5
        u0 = RegionSpec(ball, RegionKind.U_KAPPA, q=1, kappa=0)
        estimate = monte_carlo_measure(u0, 100_000, 3)
        assert estimate == monte_carlo_measure(RegionSpec(ball, RegionKind.BALL), 100_000, 3)
        assert estimate.estimate > 0

    @pytest.mark.parametrize("kind", [RegionKind.A_Q, RegionKind.U_KAPPA, RegionKind.Q_KAPPA])
    def test_raises_where_the_depth_rule_does(self, kind):
        # the rule before the walk table: lam^(depth q) r >= 1/2 with depth 1 for A_q,
        # max(kappa, 1) for U_kappa and kappa + 1 for Q_kappa, kept for all but U_0
        raised = 0
        for q, kappa in itertools.product((1, 2, 3), range(6)):
            if kind is RegionKind.U_KAPPA and kappa == 0:
                continue
            depth = {RegionKind.A_Q: 1, RegionKind.U_KAPPA: kappa, RegionKind.Q_KAPPA: kappa + 1}[kind]
            edge = 0.5 / CAT.lam_abs ** (depth * q)
            for radius in (0.001, 0.01, 0.05, 0.2, edge, math.nextafter(edge, 0.0)):
                if not 0.0 < radius < 0.25:
                    continue
                region = RegionSpec(Ball(CAT, ORIGIN, radius, MetricKind.EUCLIDEAN), kind, q, kappa)
                if CAT.lam_abs ** (depth * q) * radius >= 0.5:
                    raised += 1
                    with pytest.raises(OutOfLocalRange, match=re.escape(f"lam^({depth}q) * radius")):
                        _local_range_guard(region)
                else:
                    _local_range_guard(region)
        assert raised > 0

    def test_raises_past_the_overflow_of_lam_to_the_reach(self):
        # lam^750 is past the largest double: the guard raises OutOfLocalRange, not OverflowError
        with pytest.raises(OutOfLocalRange, match=re.escape("lam^(1q) * radius >= 1/2")):
            _local_range_guard(RegionSpec(BALL, RegionKind.A_Q, q=750))

    def test_ball_and_nested_level_zero_never_raise(self):
        T = ToralAutomorphism(1, 140, 140, 19601)
        for radius in (0.001, 0.1, 0.2499):
            ball = Ball(T, ORIGIN, radius, MetricKind.ADAPTED)
            _local_range_guard(RegionSpec(ball, RegionKind.BALL))
            for q in (1, 5):
                _local_range_guard(RegionSpec(ball, RegionKind.U_KAPPA, q=q, kappa=0))


# sample counts around the slice size: one slice, one short of two, just over two
SLICED_SAMPLES = [1000, _SLICE - 1, _SLICE + 1]


def separation_cfg(zeta=(0, 0), matrix=(2, 1, 1, 1), metric=MetricKind.EUCLIDEAN):
    """n = 1e5 and tau = 1; by default the cat map, Euclidean, as criterion 3 runs it."""
    zeta = tuple(Fraction(c) for c in zeta)
    return ExperimentConfig(matrix=matrix, zeta=zeta, metric=metric, n=100_000, tau=1.0)


def inflate_radius(monkeypatch, factor):
    """Configs made from now on have factor times the threshold radius (and ball)."""
    s_n = simulate.threshold_radius
    monkeypatch.setattr(simulate, "threshold_radius", lambda *args: s_n(*args) * factor)


class TestSlicedAgainstWholeArray:
    """The sliced separation check equals the whole-array one of _reference."""

    @pytest.mark.parametrize("samples", SLICED_SAMPLES)
    @pytest.mark.parametrize(
        "zeta, q", [((0, 0), 1), ((Fraction(1, 2), Fraction(1, 2)), 3), ((Fraction(1, 5), Fraction(2, 5)), 2)]
    )
    def test_separation_same_answer(self, zeta, q, samples):
        cfg = separation_cfg(zeta)
        assert cfg.q == q
        args = (cfg, samples, 7)
        assert regions.separation_check(*args) is ref.separation_check(*args) is True

    @pytest.mark.parametrize("samples", SLICED_SAMPLES)
    @pytest.mark.parametrize(
        "matrix, metric",
        [((2, 1, 1, 1), MetricKind.ADAPTED)]
        + [(matrix, metric) for matrix in [(3, 1, 2, 1), (-3, 1, -1, 0)] for metric in MetricKind],
    )
    @pytest.mark.parametrize("zeta", [(0, 0), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 5), Fraction(2, 5))])
    def test_separation_non_symmetric_and_adapted(self, zeta, matrix, metric, samples):
        cfg = separation_cfg(zeta, matrix, metric)
        assert cfg.q >= 1
        args = (cfg, samples, 7)
        assert regions.separation_check(*args) is ref.separation_check(*args) is True

    @pytest.mark.parametrize("samples", SLICED_SAMPLES)
    def test_separation_inflated_radius_same_answer(self, monkeypatch, samples):
        inflate_radius(monkeypatch, CAT.lam_abs ** wrap_time_g(100_000, CAT, 1, 1.0))
        args = (separation_cfg(), samples, 7)
        assert regions.separation_check(*args) is ref.separation_check(*args) is False

    def test_separation_window_edge_same_answer(self, monkeypatch):
        # at radius s_n lam^4 the first return is at j = 5: windows 4 and 5 differ
        inflate_radius(monkeypatch, CAT.lam_abs**4)
        for window, separated in ((4, True), (5, False)):
            monkeypatch.setattr(simulate, "wrap_time_g", lambda *args: window)
            cfg = separation_cfg()
            assert cfg.q * cfg.g_n == window
            args = (cfg, _SLICE + 1, 7)
            assert regions.separation_check(*args) is ref.separation_check(*args) is separated

    @pytest.mark.parametrize("samples", SLICED_SAMPLES)
    def test_separation_inflated_radius_at_period_two(self, monkeypatch, samples):
        # a radius lam^5 times s_n, just under 1/4: points of A_2 return within the window 2 g(n) = 4
        inflate_radius(monkeypatch, CAT.lam_abs**5)
        cfg = separation_cfg((Fraction(1, 5), Fraction(2, 5)))
        assert (cfg.q, cfg.q * cfg.g_n) == (2, 4)
        args = (cfg, samples, 7)
        assert regions.separation_check(*args) is ref.separation_check(*args) is False

    def test_separation_window_edge_at_period_two(self, monkeypatch):
        # at radius s_n lam^3 the first return is at j = 7: windows 2*3 and 2*4 differ
        inflate_radius(monkeypatch, CAT.lam_abs**3)
        for g, separated in ((3, True), (4, False)):
            monkeypatch.setattr(simulate, "wrap_time_g", lambda *args: g)
            cfg = separation_cfg((Fraction(1, 5), Fraction(2, 5)))
            assert (cfg.q, cfg.g_n) == (2, g)
            args = (cfg, _SLICE + 1, 7)
            assert regions.separation_check(*args) is ref.separation_check(*args) is separated


def traced_peak(fn):
    """fn()'s result and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    """No array outgrows a slice: peak memory does not grow with the sample size."""

    def test_separation_scan_of_a_million_samples(self):
        # criterion 3's scan; drawing u and v whole would hold 16 MiB of them
        separated, peak = traced_peak(lambda: separation_check(separation_cfg(), 1_000_000, 7))
        assert separated
        assert peak < 4 << 20

    def test_one_worker_oracle_of_four_chunks(self):
        region = RegionSpec(BALL, RegionKind.Q_KAPPA, q=1, kappa=3)
        (estimate, _), peak = traced_peak(lambda: monte_carlo_measure(region, 1 << 20, 5, workers=1))
        assert estimate > 0
        assert peak < 4 << 20


class TestSeparation:
    def test_holds_at_fixed_point(self):
        assert separation_check(separation_cfg(), 200_000, 7)

    def test_fails_with_inflated_radius(self, monkeypatch):
        # negative control: a radius lam^g times s_n lets escape points return
        inflate_radius(monkeypatch, CAT.lam_abs ** wrap_time_g(100_000, CAT, 1, 1.0))
        assert not separation_check(separation_cfg(), 200_000, 7)

    def test_period_three_point(self):
        assert separation_check(separation_cfg((Fraction(1, 2), Fraction(1, 2))), 100_000, 11)

    def test_non_periodic_centre_has_no_escape_region(self):
        cfg = separation_cfg((Fraction(2**0.5 - 1), Fraction(3**0.5 - 1)))
        assert cfg.q == 0
        with pytest.raises(ValueError, match="q must be >= 1, got 0"):
            separation_check(cfg, 1000, 1)

    def test_minimum_samples(self):
        with pytest.raises(ValueError, match="samples must be >= 1000"):
            separation_check(separation_cfg(), 999, 1)

    @pytest.mark.parametrize("zeta, q", [((0, 0), 1), ((Fraction(1, 5), Fraction(2, 5)), 2)])
    @pytest.mark.parametrize("rows_out, separated", [(0, False), (1, True)], ids=["q-out", "q-1-out"])
    def test_run_rule_on_a_hand_built_walk(self, monkeypatch, zeta, q, rows_out, separated):
        # one member whose preimages are the centre (in the ball) or a point 0.4 away (out of
        # it): in the ball after exactly q rows out it is in A_q, a return; after q - 1 it is not
        cfg = separation_cfg(zeta)
        assert cfg.q == q and cfg.q * cfg.g_n > q
        centre = [round(Fraction(c) * MODULUS) for c in zeta]
        away = [(c + round(0.4 * MODULUS)) % MODULUS for c in centre]
        rows = np.array([centre] + [away] * (q - rows_out) + [centre])

        def walk(px, py, T, steps, stride, elements):
            yield SimpleNamespace(x=rows[:, :1], y=rows[:, 1:])

        member = (np.array([0.5]), np.array([0.5]), np.array([True]))
        monkeypatch.setattr(regions, "_decided_slices", lambda *args: iter([member]))
        monkeypatch.setattr(regions, "orbit_blocks", walk)
        assert separation_check(cfg, 1000, 7) is separated
