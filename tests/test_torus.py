"""Torus core: eigen-structure, metrics, exact orbits, periods.

The array routines (the orbit walker orbit_blocks, the key of Ball) are
checked against the scalar Python-int and Python-float references in
_reference.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _reference import (
    Direction,
    ExactOrbitState,
    ShiftSetInsufficient,
    ball_key_out_of_place,
    observable_value,
    step_exact,
    torus_distance,
)
from extorus import (
    DeterminantNotOne,
    ExperimentConfig,
    MetricKind,
    NotHyperbolic,
    ToralAutomorphism,
    TorusPoint,
    compute_period,
)
from extorus import torus
from extorus.torus import MODULUS, OBSERVABLE_CAP, Ball, orbit_blocks, wrap_unit

CAT = ToralAutomorphism(2, 1, 1, 1)
OTHER = ToralAutomorphism(1, 1, 1, 2)


def walk(px, py, T, steps, stride=1):
    """The whole walk of orbit_blocks stacked into (steps + 1, width) arrays."""
    blocks = list(orbit_blocks(px, py, T, steps, stride))
    return np.concatenate([b.x for b in blocks]), np.concatenate([b.y for b in blocks])


def jump(px, py, T, stride):
    """The residues `stride` steps on (back for a negative stride): the last row of a one-step walk."""
    *_, last = orbit_blocks(px, py, T, 1, stride)
    return last.x[0], last.y[0]


def brute_adapted_distance(z, w, T: ToralAutomorphism, span: int = 3) -> float:
    """Widened-shift oracle: independent eigen solve, shifts in {-span..span}^2."""
    basis = np.array([[T.e_unstable[0], T.e_stable[0]], [T.e_unstable[1], T.e_stable[1]]])
    best = math.inf
    for kx in range(-span, span + 1):
        for ky in range(-span, span + 1):
            v = np.array([z.x - w.x + kx, z.y - w.y + ky])
            xu, xs = np.linalg.solve(basis, v)
            best = min(best, max(abs(xu), abs(xs)))
    return best


# float.hex of (lam, e_unstable, e_stable, basis_det), recorded before the eigen data moved into
# ToralAutomorphism.__post_init__: the constructor keeps the arithmetic and its order
PINNED_EIGEN = {
    (2, 1, 1, 1): ("0x1.4f1bbcdcbfa54p+1", ("0x1.b38880b4603e4p-1", "0x1.0d2ca0da1530dp-1"),
                   ("0x1.0d2ca0da1530dp-1", "-0x1.b38880b4603e4p-1"), "0x1.ffffffffffffep-1"),
    (3, 1, 2, 1): ("0x1.ddb3d742c2655p+1", ("0x1.9d21c37fd75a2p-1", "0x1.2e6efc0876766p-1"),
                   ("0x1.5ff91fb094741p-2", "-0x1.e0cde35ae5f7ap-1"), "0x1.ebe9e77d23f70p-1"),
    (-3, 1, -1, 0): ("-0x1.4f1bbcdcbfa54p+1", ("0x1.de4bd6e524e20p-1", "0x1.6d62c51843606p-2"),
                     ("0x1.6d62c51843605p-2", "0x1.de4bd6e524e1fp-1"), "0x1.7d9f4cf754636p-1"),
    (1000, 999, 1, 1): ("0x1.f47fdf43c38cap+9", ("0x1.ffffef3907000p-1", "0x1.0624e5c1bcd15p-10"),
                        ("0x1.69db92140c7e5p-1", "-0x1.6a3834cedea8dp-1"), "0x1.6a94cba822324p-1"),
}


class TestToralAutomorphism:
    @pytest.mark.parametrize("matrix", sorted(PINNED_EIGEN), ids=lambda m: ",".join(map(str, m)))
    def test_eigen_data_keeps_its_bits(self, matrix):
        T = ToralAutomorphism(*matrix)
        got = (T.lam.hex(), tuple(map(float.hex, T.e_unstable)), tuple(map(float.hex, T.e_stable)), T.basis_det.hex())
        assert got == PINNED_EIGEN[matrix]

    def test_the_four_entries_are_the_only_arguments(self):
        assert [f.name for f in dataclasses.fields(ToralAutomorphism) if f.init] == ["a", "b", "c", "d"]
        with pytest.raises(TypeError):
            ToralAutomorphism(2, 1, 1, 1, 2.618)  # derived eigen data cannot be passed in
        # a NumPy integer entry is kept as an int, and gives the automorphism of the equal int
        T = ToralAutomorphism(np.int64(2), 1, 1, np.int8(1))
        assert T == CAT and all(type(e) is int for e in T.entries)

    def test_cat_map_eigen_structure(self):
        # characteristic polynomial x^2 - 3x + 1, dominant root (3+sqrt5)/2
        assert CAT.lam == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-14)
        assert CAT.lam * (1 / CAT.lam) == pytest.approx(1.0, abs=1e-14)
        assert math.hypot(*CAT.e_unstable) == pytest.approx(1.0, abs=1e-12)
        assert math.hypot(*CAT.e_stable) == pytest.approx(1.0, abs=1e-12)
        # symmetric matrix: orthogonal eigenvectors, unit basis determinant
        assert CAT.basis_det == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mat", [(2, 1, 1, 1), (1, 1, 1, 2), (3, 2, 1, 1), (5, 2, 2, 1)])
    def test_eigenvector_property(self, mat):
        T = ToralAutomorphism(*mat)
        a, b, c, d = T.entries
        m = np.array([[a, b], [c, d]], dtype=float)
        for vec, mu in ((T.e_unstable, T.lam), (T.e_stable, 1 / T.lam)):
            assert np.allclose(m @ np.array(vec), mu * np.array(vec), atol=1e-12)
        assert 0.0 < T.basis_det <= 1.0

    def test_symmetric_basis_det_does_not_round_above_one(self):
        # the rounded eigenvector product of this symmetric matrix is 1 + 2^-52
        T = ToralAutomorphism(1, 140, 140, 19601)
        assert T.basis_det == 1.0
        ExperimentConfig(matrix=T.entries, metric=MetricKind.ADAPTED)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            ToralAutomorphism(1, 1, 0, 1)

    def test_rejects_wrong_determinant(self):
        with pytest.raises(DeterminantNotOne):
            ToralAutomorphism(2, 0, 0, 2)


class TestStepExact:
    def test_origin_is_fixed(self):
        st0 = ExactOrbitState(0, 0, 977)
        assert step_exact(st0, CAT) == st0
        assert step_exact(st0, OTHER, Direction.BACKWARD) == st0

    def test_small_modulus_example(self):
        out = step_exact(ExactOrbitState(4, 2, 10), CAT)
        assert (out.px, out.py) == (0, 6)

    @given(px=st.integers(0, MODULUS - 1), py=st.integers(0, MODULUS - 1))
    @settings(max_examples=200, deadline=None)
    def test_forward_backward_roundtrip(self, px, py):
        state = ExactOrbitState(px, py, MODULUS)
        back = step_exact(step_exact(state, CAT), CAT, Direction.BACKWARD)
        assert back == state

    def test_roundtrip_bulk(self):
        rng = np.random.default_rng(5)
        px = rng.integers(0, MODULUS, 10_000)
        py = rng.integers(0, MODULUS, 10_000)
        fx, fy = jump(px, py, CAT, 1)
        bx, by = jump(fx, fy, CAT, -1)
        assert np.array_equal(bx, px) and np.array_equal(by, py)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            ExactOrbitState(5, 0, 5)
        with pytest.raises(ValueError):
            ExactOrbitState(0, 0, 1)


@st.composite
def hyperbolic_matrices(draw):
    """Determinant-1 integer matrices with |trace| up to 1e6 and entries of either sign."""
    a = draw(st.integers(-500_000, 500_000))
    d = draw(st.integers(-500_000, 500_000))
    assume(abs(a + d) > 2)
    # b divides a*d - 1, so c = (a*d - 1) / b is an integer and det = 1
    b = draw(st.sampled_from((1, -1))) * math.gcd(a * d - 1, draw(st.integers(1, 60)))
    return ToralAutomorphism(a, b, (a * d - 1) // b, d)


RESIDUE_PAIRS = st.lists(
    st.tuples(st.integers(0, (1 << 62) - 1), st.integers(0, (1 << 62) - 1)),
    min_size=1,
    max_size=8,
)


def residue_arrays(points):
    states = [ExactOrbitState(x % MODULUS, y % MODULUS, MODULUS) for x, y in points]
    px = np.array([s.px for s in states], dtype=np.int64)
    py = np.array([s.py for s in states], dtype=np.int64)
    return states, px, py


class TestOrbitBlocks:
    @given(
        T=hyperbolic_matrices(),
        steps=st.integers(0, 40),
        stride=st.integers(1, 5) | st.integers(-5, -1),
        elements=st.integers(1, 64),
        points=RESIDUE_PAIRS,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_python_int_reference(self, T, steps, stride, elements, points):
        """Row t of the walk is the orbit after t * |stride| single steps, of the inverse
        for a negative stride, across block boundaries."""
        direction = Direction.FORWARD if stride > 0 else Direction.BACKWARD
        states, px, py = residue_arrays(points)
        with patch.object(torus, "_BLOCK_ELEMENTS", elements):
            xs, ys = walk(px, py, T, steps, stride)
        assert xs.shape == ys.shape == (steps + 1, len(states))
        assert xs.dtype == ys.dtype == np.int64
        for i, state in enumerate(states):
            for t in range(steps + 1):
                assert (int(xs[t, i]), int(ys[t, i])) == (state.px, state.py)
                for _ in range(abs(stride)):
                    state = step_exact(state, T, direction)
        # walking back from the end with the negated stride retraces the walk
        with patch.object(torus, "_BLOCK_ELEMENTS", elements):
            bx, by = walk(xs[-1], ys[-1], T, steps, -stride)
        assert np.array_equal(bx[::-1], xs) and np.array_equal(by[::-1], ys)

    @given(
        steps=st.integers(0, 100),
        width=st.integers(1, 9),
        elements=st.integers(1, 64),
        stride=st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_layout(self, steps, width, elements, stride):
        """Time 0 comes alone, then full blocks of B = max(1, min(steps, elements // width)) rows."""
        px = np.arange(width, dtype=np.int64)
        with patch.object(torus, "_BLOCK_ELEMENTS", elements):
            rows = [len(b.x) for b in orbit_blocks(px, px, CAT, steps, stride=stride)]
        block = max(1, min(steps, elements // width))
        assert rows[0] == 1 and sum(rows) == steps + 1
        assert all(r == block for r in rows[1:-1]) and all(0 < r <= block for r in rows[1:])

    def test_block_matches_python_int_reference(self):
        """At the real block size the walk crosses block boundaries without drift.

        The first two blocks are broadcast from the row before; the third
        and the short last one come from the trace recurrence. Y is asked
        for after the walk has ended, whole and at chosen positions, and
        again block by block as the walk goes, when the walker's carry is
        Y's last row.
        """
        T = ToralAutomorphism(-1000, -999, -1, -1)
        points = [(1, 2), (MODULUS - 1, 12345), (987654321987654321, MODULUS // 3)]
        block = torus._BLOCK_ELEMENTS // len(points)
        steps = 3 * block + 5
        rng = np.random.default_rng(3)
        for direction in Direction:
            states, px, py = residue_arrays(points)
            blocks = list(orbit_blocks(px, py, T, steps, direction.value))
            assert [len(b.x) for b in blocks] == [1, block, block, block, 5]
            for b in blocks:
                rows = rng.integers(0, len(b.x), 50)
                cols = rng.integers(0, len(points), 50)
                assert np.array_equal(b.y_at(rows, cols), b.y[rows, cols])
            xs = np.concatenate([b.x for b in blocks])
            ys = np.concatenate([b.y for b in blocks])
            eager = [b.y for b in orbit_blocks(px, py, T, steps, direction.value)]
            assert np.array_equal(np.concatenate(eager), ys)
            for i, state in enumerate(states):
                for t in range(steps + 1):
                    assert (int(xs[t, i]), int(ys[t, i])) == (state.px, state.py)
                    state = step_exact(state, T, direction)

    def test_long_jump_composes(self):
        """Stride j + k equals stride k then stride j, far beyond any block length."""
        rng = np.random.default_rng(8)
        T = ToralAutomorphism(-1000, -999, -1, -1)
        px = rng.integers(0, MODULUS, 64)
        py = rng.integers(0, MODULUS, 64)
        j, k = 123_457, 1_000_003
        once = jump(px, py, T, j + k)
        twice = jump(*jump(px, py, T, k), T, j)
        assert np.array_equal(once[0], twice[0]) and np.array_equal(once[1], twice[1])
        xs, ys = walk(px, py, T, 3, stride=j)
        thrice = jump(px, py, T, 3 * j)
        assert np.array_equal(xs[-1], thrice[0]) and np.array_equal(ys[-1], thrice[1])
        back = jump(*once, T, -(j + k))
        assert np.array_equal(back[0], px) and np.array_equal(back[1], py)

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_zero_stride_raises(self, steps):
        px = np.arange(3, dtype=np.int64)
        with pytest.raises(ValueError, match="stride must be nonzero"):
            next(orbit_blocks(px, px, CAT, steps, 0))


class TestPowerNormSq:
    @pytest.mark.parametrize("matrix", [(2, 1, 1, 1), (3, 1, 2, 1), (-3, 1, -1, 0), (1000, 999, 1, 1)])
    def test_matches_python_int_products(self, matrix):
        T = ToralAutomorphism(*matrix)
        a, b, c, d = matrix
        (p, q), (r, s) = (1, 0), (0, 1)  # A^m, from m = 0
        for m in range(41):
            assert torus.power_norm_sq(T, m) == p * p + q * q + r * r + s * s
            assert torus.power_norm_sq(T, -m) == torus.power_norm_sq(T, m)
            (p, q), (r, s) = (p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d)


# centre coordinates at both ends of [0, 1) and anywhere in between
COORDINATES = st.one_of(
    st.sampled_from([0.0, 1.0 - 2.0**-53]), st.floats(0.0, 1.0, exclude_max=True)
)


class TestBallDistance:
    @pytest.mark.parametrize("metric", ["euclidean", "adapted", None])
    def test_metric_must_be_a_metric_kind(self, metric):
        with pytest.raises(ValueError, match="metric must be a MetricKind"):
            Ball(CAT, TorusPoint(0.0, 0.0), 0.01, metric)

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("radius", [-0.01, 0.0, math.nan, math.inf, True])
    def test_radius_must_be_finite_and_positive(self, metric, radius):
        # each was a ball: -0.01 the Euclidean ball of 0.01 (its key radius is r^2),
        # nan one holding nothing, inf one holding every point
        with pytest.raises(ValueError, match="^radius must be finite and positive, got "):
            Ball(CAT, TorusPoint(0.0, 0.0), radius, metric)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_matches_scalar_reference(self, metric):
        # points within 0.25 of zeta, where folding is exact in both metrics
        rng = np.random.default_rng(41)
        for T in (CAT, OTHER, ToralAutomorphism(5, 2, 2, 1)):
            zeta = TorusPoint(rng.random(), rng.random())
            rho = 0.25 * np.sqrt(rng.random(2000))
            ang = 2.0 * math.pi * rng.random(2000)
            px = np.round(((zeta.x + rho * np.cos(ang)) % 1.0) * MODULUS).astype(np.int64)
            py = np.round(((zeta.y + rho * np.sin(ang)) % 1.0) * MODULUS).astype(np.int64)
            px %= MODULUS
            py %= MODULUS
            keys = Ball(T, zeta, 0.25, metric).key(px, py)
            checked = 0
            for x, y, key in zip(px, py, keys):
                z = TorusPoint(wrap_unit(int(x) / MODULUS), wrap_unit(int(y) / MODULUS))
                try:
                    ref = torus_distance(z, zeta, T, metric)
                except ShiftSetInsufficient:
                    continue
                if ref >= 0.25:
                    continue
                expected = ref * ref if metric is MetricKind.EUCLIDEAN else ref
                assert key == pytest.approx(expected, abs=1e-12)
                checked += 1
            assert checked >= 1000

    @settings(max_examples=60, deadline=None)
    @given(
        metric=st.sampled_from(list(MetricKind)),
        x=COORDINATES,
        y=COORDINATES,
        matrix=st.sampled_from([(2, 1, 1, 1), (-1000, -999, -1, -1)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_out_of_place(self, metric, x, y, matrix, seed):
        # (rows, width) blocks as the walker yields them, points anywhere on the torus
        rng = np.random.default_rng(seed)
        px, py = rng.integers(0, MODULUS, size=(2, 5, 300), dtype=np.int64)
        zeta = TorusPoint(x, y)
        T = ToralAutomorphism(*matrix)
        ball = Ball(T, zeta, 0.25, metric)
        keys = ball.key(px, py)
        ref = ball_key_out_of_place(px, py, ball)
        np.testing.assert_array_equal(keys.view(np.int64), ref.view(np.int64))


    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("matrix", [(2, 1, 1, 1), (3, 1, 2, 1), (-3, 1, -1, 0)])
    def test_radius_and_observable_match_scalar_reference(self, metric, matrix):
        # inside iff key < key_radius iff distance < radius; observable = -log distance
        T = ToralAutomorphism(*matrix)
        zeta = TorusPoint(0.3, 0.7)
        ball = Ball(T, zeta, 0.05, metric)
        rng = np.random.default_rng(7)
        px, py = Ball(T, zeta, 0.1, metric).points(rng.random(400), rng.random(400))
        keys = ball.key(px, py)
        values = ball.observable(keys)
        for x, y, key, value in zip(px, py, keys, values):
            z = TorusPoint(int(x) / MODULUS, int(y) / MODULUS)
            dist = torus_distance(z, zeta, T, metric)
            assert (key < ball.key_radius) == (dist < ball.radius)
            assert value == pytest.approx(observable_value(z, zeta, T, metric), rel=1e-9)
        assert 50 < np.count_nonzero(keys < ball.key_radius) < 350
        assert ball.observable(np.zeros(1)).tolist() == [OBSERVABLE_CAP]

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("matrix", [(2, 1, 1, 1), (3, 1, 2, 1), (-3, 1, -1, 0)])
    def test_x_extent_is_the_sampled_balls_reach_in_x(self, metric, matrix):
        ball = Ball(ToralAutomorphism(*matrix), TorusPoint(0.5, 0.5), 0.01, metric)
        # the disc's rim at angles 0 and pi, and the square's corners
        edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
        u, v = (a.ravel() for a in np.meshgrid(edges, edges))
        px, _ = ball.points(u, v)
        reach = np.abs(px / MODULUS - 0.5).max()
        assert ball.x_extent * (1 - 1e-9) <= reach <= ball.x_extent * (1 + 1e-9)


# uniforms at the ends of [0, 1), around its quarters, and at the tie of the rim's angle
EDGE_UNIFORMS = np.array([
    0.0, 2.0**-53, math.nextafter(0.25, 0.0), 0.25, math.nextafter(0.25, 1.0), 0.5, 0.75, 1.0 - 2.0**-53
])


class TestRoughPoints:
    """The facts the oracle's key band and its time-0 rule rest on."""

    def test_float32_trig_within_2_to_the_minus_21(self):
        # float32 cos and sin of float32(2 pi v) against float64 cos and sin of 2 pi v
        rng = np.random.default_rng(21)
        worst = 0.0
        for v in [EDGE_UNIFORMS, *(rng.random(1 << 18) for _ in range(16))]:  # 2^22 in all
            ang = 2.0 * math.pi * v
            for f in (np.cos, np.sin):
                worst = max(worst, float(np.abs(f(ang.astype(np.float32)) - f(ang)).max()))
        assert worst <= 2.0**-21

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("centre", [TorusPoint(0.0, 0.0), TorusPoint(1.0 - 2.0**-53, 1.0 - 2.0**-53)])
    @pytest.mark.parametrize("radius", [1e-7, 0.01, 0.2499])
    def test_rough_points_within_rough_error(self, metric, centre, radius):
        ball = Ball(CAT, centre, radius, metric)
        rng = np.random.default_rng(22)
        u, v = (np.concatenate([EDGE_UNIFORMS, a]) for a in rng.random((2, 1 << 16)))
        exact = ball.points(u, v)
        rough = ball.rough_points(u, v, np.empty((4, u.size)))
        offsets = [((r - e + MODULUS // 2) & (MODULUS - 1)) - MODULUS // 2 for r, e in zip(rough, exact)]
        gap = np.hypot(*offsets) / MODULUS
        assert gap.max() <= ball.rough_error
        assert bool(gap.max() > 0) == (metric is MetricKind.EUCLIDEAN)  # adapted points take no trig

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("matrix", [(2, 1, 1, 1), (3, 1, 2, 1), (1000, 999, 1, 1)])
    @pytest.mark.parametrize("centre", [TorusPoint(0.0, 0.0), TorusPoint(1.0 - 2.0**-53, 1.0 - 2.0**-53)])
    @pytest.mark.parametrize("radius", [1e-7, 0.01, 0.2499])
    def test_placed_points_have_keys_below_the_band(self, metric, matrix, centre, radius):
        ball = Ball(ToralAutomorphism(*matrix), centre, radius, metric)
        rng = np.random.default_rng(24)
        # uniforms at the rim as well as across the ball
        u = np.concatenate([EDGE_UNIFORMS, 1.0 - 1e-4 * rng.random(1 << 15), rng.random(1 << 15)])
        v = np.concatenate([EDGE_UNIFORMS, rng.random(1 << 16)])
        r = radius
        if metric is MetricKind.EUCLIDEAN:  # the bounds that Ball.placed proves, on how far a key exceeds
            level, excess = r * r * u, r * r * 2.0**-19.4 + r * 2.0**-50.4
        else:
            level = r * np.maximum(np.abs(2.0 * u - 1.0), np.abs(2.0 * v - 1.0))
            excess = ball._stretch * (r * 2.0**-49.2 + 2.0**-51.4)
        lo = ball.key_band(np.array([math.sqrt(2.0) * ball.rough_error]))[0][0]  # row 0's band, ||I||_F = sqrt 2
        placed = ball.placed(u, v, lo)
        for px, py in (ball.points(u, v), ball.rough_points(u, v, np.empty((4, u.size)))):
            keys = ball.key(px, py)
            assert (keys - level).max() <= excess
            assert (keys[placed] < lo).all()
        # at most a few in 1e5 of the samples are left to the exact walk
        assert np.count_nonzero(~placed[-(1 << 15):]) <= 3

    def test_placed_leaves_about_6_in_a_million_of_a_euclidean_ball(self):
        ball = Ball(CAT, TorusPoint(0.0, 0.0), 0.01, MetricKind.EUCLIDEAN)
        lo = ball.key_band(np.array([math.sqrt(2.0) * ball.rough_error]))[0][0]
        u = 1.0 - np.array([2e-5, 1e-5, 7e-6, 5e-6, 2e-6, 0.0])
        assert ball.placed(u, np.full(u.size, 0.3), lo).tolist() == [True, True, True, False, False, False]

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_points_of_an_index_set_are_the_indexed_points(self, metric):
        # each point reads its own u and v alone, whatever the array's length and alignment
        ball = Ball(CAT, TorusPoint(0.3, 1.0 - 2.0**-53), 0.01, metric)
        rng = np.random.default_rng(23)
        size = (1 << 14) + 3
        u, v = rng.random((2, size))
        u[:8], v[-8:] = EDGE_UNIFORMS, EDGE_UNIFORMS
        px, py = ball.points(u, v)
        index_sets = [
            np.flatnonzero(rng.random(size) < 1e-3),
            np.flatnonzero(rng.random(size) < 0.5),
            np.array([], dtype=np.int64),
            np.array([0]),
            np.array([size - 1]),
            np.arange(3, 20),
            np.arange(1, size, 2),
            np.arange(size - 1),
            np.array([size - 1, 0, 5, 5]),
        ]
        for idx in index_sets:
            sub_x, sub_y = ball.points(u[idx], v[idx])
            np.testing.assert_array_equal(sub_x, px[idx])
            np.testing.assert_array_equal(sub_y, py[idx])


class TestTorusDistance:
    def test_wraparound(self):
        d = torus_distance(TorusPoint(0.9, 0.0), TorusPoint(0.0, 0.0), CAT, MetricKind.EUCLIDEAN)
        assert d == pytest.approx(0.1, abs=1e-12)

    def test_half_diagonal(self):
        d = torus_distance(TorusPoint(0.5, 0.5), TorusPoint(0.0, 0.0), CAT, MetricKind.EUCLIDEAN)
        assert d == pytest.approx(math.sqrt(0.5), abs=1e-12)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_identity(self, metric):
        z = TorusPoint(0.3, 0.7)
        assert torus_distance(z, z, CAT, metric) == 0.0

    def test_adapted_against_widened_shift_oracle(self):
        rng = np.random.default_rng(11)
        for T in (CAT, OTHER):
            checked = 0
            while checked < 300:
                z = TorusPoint(rng.random(), rng.random())
                w = TorusPoint((z.x + 0.3 * (rng.random() - 0.5)) % 1.0,
                               (z.y + 0.3 * (rng.random() - 0.5)) % 1.0)
                oracle = brute_adapted_distance(z, w, T)
                if oracle >= 0.2:
                    continue
                assert torus_distance(z, w, T, MetricKind.ADAPTED) == pytest.approx(
                    oracle, abs=1e-12
                )
                checked += 1

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_symmetry_triangle_translation(self, metric):
        rng = np.random.default_rng(23)
        for T in (CAT, OTHER):
            for _ in range(200):
                base = rng.random(2)
                pts = [
                    TorusPoint((base[0] + 0.05 * rng.random()) % 1.0,
                               (base[1] + 0.05 * rng.random()) % 1.0)
                    for _ in range(3)
                ]
                z, w, v = pts
                dzw = torus_distance(z, w, T, metric)
                assert dzw == pytest.approx(torus_distance(w, z, T, metric), abs=1e-12)
                assert dzw <= (
                    torus_distance(z, v, T, metric) + torus_distance(v, w, T, metric) + 1e-12
                )
                shift = rng.random(2)
                zs = TorusPoint((z.x + shift[0]) % 1.0, (z.y + shift[1]) % 1.0)
                ws = TorusPoint((w.x + shift[0]) % 1.0, (w.y + shift[1]) % 1.0)
                assert torus_distance(zs, ws, T, metric) == pytest.approx(dzw, abs=1e-12)

    def test_boundary_guard_raises_for_sheared_metric(self):
        # min over shifts sits at (-1, 0) with value well above 0.25
        with pytest.raises(ShiftSetInsufficient):
            torus_distance(TorusPoint(0.55, 0.0), TorusPoint(0.0, 0.0), CAT, MetricKind.ADAPTED)

    def test_euclidean_tie_prefers_interior_shift(self):
        # exact tie between shift (0,0) and boundary shifts: no guard trip
        d = torus_distance(TorusPoint(0.5, 0.0), TorusPoint(0.0, 0.0), CAT, MetricKind.EUCLIDEAN)
        assert d == pytest.approx(0.5, abs=1e-15)


class TestObservable:
    def test_log_inversion(self):
        z = TorusPoint(0.5, 0.5)
        w = TorusPoint(0.5 + math.exp(-4.0), 0.5)
        assert observable_value(w, z, CAT, MetricKind.EUCLIDEAN) == pytest.approx(4.0, abs=1e-12)

    def test_centre_is_infinite(self):
        z = TorusPoint(0.25, 0.75)
        assert observable_value(z, z, CAT, MetricKind.ADAPTED) == math.inf

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_exceedance_equivalence(self, metric):
        # observable > u iff distance < exp(-u)
        rng = np.random.default_rng(31)
        zeta = TorusPoint(0.3, 0.4)
        for _ in range(10_000):
            z = TorusPoint(rng.random(), rng.random())
            u = 0.5 + 5.5 * rng.random()
            try:
                dist = torus_distance(z, zeta, CAT, metric)
            except ShiftSetInsufficient:
                continue
            obs = math.inf if dist == 0 else -math.log(dist)
            assert (obs > u) == (dist < math.exp(-u))


class TestComputePeriod:
    def test_origin_is_fixed_point(self):
        assert compute_period((0, 0), 1, CAT, 10) == 1

    def test_half_half_period_three(self):
        # independent oracle: exhaustive iteration over the 4 points mod 2
        x, y = 1, 1
        seen = 0
        for k in range(1, 5):
            x, y = (2 * x + y) % 2, (x + y) % 2
            seen = k
            if (x, y) == (1, 1):
                break
        assert seen == 3
        assert compute_period((1, 1), 2, CAT, 100) == 3

    def test_fifth_lattice_point(self):
        # oracle: exhaustive iteration mod 5; period cannot exceed 25
        x, y = 1, 2
        oracle = None
        for k in range(1, 26):
            x, y = (2 * x + y) % 5, (x + y) % 5
            if (x, y) == (1, 2):
                oracle = k
                break
        q = compute_period((1, 2), 5, CAT, 25)
        assert q == oracle
        assert q is not None and q <= 25

    def test_absent_when_capped(self):
        assert compute_period((1, 1), 2, CAT, 2) is None

    def test_validates_numerators(self):
        with pytest.raises(ValueError):
            compute_period((2, 0), 2, CAT, 10)


def test_measure_preservation_statistical():
    """Pushforward of 1e6 uniform exact states stays uniform on a 16x16 grid."""
    rng = np.random.default_rng(99)
    n = 1_000_000
    px = rng.integers(0, MODULUS, n)
    py = rng.integers(0, MODULUS, n)
    px, py = jump(px, py, CAT, 10)
    cells = (px >> 57) * 16 + (py >> 57)  # top 4 bits of each coordinate
    counts = np.bincount(cells, minlength=256)
    p = 1.0 / 256.0
    sigma = math.sqrt(n * p * (1 - p))
    assert np.max(np.abs(counts - n * p)) <= 4.0 * sigma


class TestMapJobs:
    @staticmethod
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    def test_one_worker_or_one_job_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(torus, "ProcessPoolExecutor", self.no_pool)
        monkeypatch.setattr(torus.os, "cpu_count", lambda: 8)
        assert torus.map_jobs(abs, [-1, 2, -3], 1) == [1, 2, 3]
        assert torus.map_jobs(abs, [-4], 8) == [4]
        assert torus.map_jobs(abs, [], 8) == []

    def test_one_core_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(torus, "ProcessPoolExecutor", self.no_pool)
        monkeypatch.setattr(torus.os, "cpu_count", lambda: 1)
        assert torus.map_jobs(abs, [-1, 2, -3], 4) == [1, 2, 3]

    def test_pool_capped_at_jobs_and_cores_in_job_order(self, monkeypatch):
        sizes = []

        class ReversingPool:  # records its size, runs the jobs last to first
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return reversed([fn(job) for job in reversed(list(jobs))])

        monkeypatch.setattr(torus, "ProcessPoolExecutor", ReversingPool)
        monkeypatch.setattr(torus.os, "cpu_count", lambda: 4)
        assert torus.map_jobs(abs, [-1, 2, -3], 100) == [1, 2, 3]
        assert torus.map_jobs(abs, list(range(-9, 0)), None) == list(range(9, 0, -1))
        assert sizes == [3, 4]

    def test_a_held_pool_of_the_same_size_is_shared(self, monkeypatch):
        sizes = []

        class RecordingPool:  # records its size, runs the jobs here
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(torus, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(torus.os, "cpu_count", lambda: 4)
        with torus.process_pool(1) as none:
            assert none is None and torus.map_jobs(abs, [-1, 2, -3], 3) == [1, 2, 3]
        assert sizes == [3]
        with torus.process_pool(3) as held:
            with torus.process_pool(3) as inner:
                assert inner is held
            assert torus.map_jobs(abs, [-1, 2, -3], 4) == [1, 2, 3]  # 3 processes: the held pool
            assert torus.map_jobs(abs, [-1, 2], 4) == [1, 2]  # 2: a pool of its own
            assert torus.map_jobs(abs, list(range(-6, 0)), 3) == list(range(6, 0, -1))  # 3: held
        assert sizes == [3, 3, 2]
        assert torus.map_jobs(abs, [-1, 2, -3], 4) == [1, 2, 3]  # the held pool is gone
        assert sizes == [3, 3, 2, 3]

    def test_no_child_outlives_a_pool_whose_job_raised(self):
        with pytest.raises(ValueError, match="math domain error"):
            with torus.process_pool(2):
                assert torus.map_jobs(math.sqrt, [4.0, 9.0], 2) == [2.0, 3.0]
                torus.map_jobs(math.sqrt, [4.0, -1.0, 9.0, 16.0], 2)
        assert multiprocessing.active_children() == []

    # a bool, a float or a string is not a count: True would run as one worker
    @pytest.mark.parametrize("workers", [0, -5, True, 2.5, "2"])
    def test_worker_counts_below_one_rejected(self, monkeypatch, workers):
        monkeypatch.setattr(torus, "ProcessPoolExecutor", self.no_pool)
        wrong = f"an int, got {workers!r}" if type(workers) is not int else f">= 1, got {workers}"
        with pytest.raises(ValueError, match=f"worker count must be {wrong}"):
            torus.map_jobs(abs, [1, 2], workers)
