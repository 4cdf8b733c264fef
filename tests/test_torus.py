"""Torus core: eigen-structure, metrics, exact orbits, periods.

The array routines (the orbit walker orbit_blocks, ball_distance) are
checked against the scalar Python-int and Python-float references in
_reference.
"""

from __future__ import annotations

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _reference import (
    ExactOrbitState,
    ShiftSetInsufficient,
    ball_distance_out_of_place,
    observable_value,
    step_exact,
    torus_distance,
)
from extorus import (
    DeterminantNotOne,
    Direction,
    ExperimentConfig,
    MetricKind,
    NotHyperbolic,
    ToralAutomorphism,
    TorusPoint,
    build_automorphism,
    compute_period,
)
from extorus import torus
from extorus.torus import DEFAULT_MODULUS, ball_distance, orbit_blocks, wrap_unit

CAT = build_automorphism(2, 1, 1, 1)
OTHER = build_automorphism(1, 1, 1, 2)


def walk(px, py, T, modulus, steps, direction=Direction.FORWARD, stride=1):
    """The whole walk of orbit_blocks stacked into (steps + 1, width) arrays."""
    blocks = list(orbit_blocks(px, py, T, modulus, steps, direction, stride))
    return np.concatenate([b.x for b in blocks]), np.concatenate([b.y for b in blocks])


def jump(px, py, T, stride, direction=Direction.FORWARD, modulus=DEFAULT_MODULUS):
    """The residues `stride` steps on: the last row of a one-step walk."""
    *_, last = orbit_blocks(px, py, T, modulus, 1, direction, stride)
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


class TestBuildAutomorphism:
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
        T = build_automorphism(*mat)
        a, b, c, d = T.entries
        m = np.array([[a, b], [c, d]], dtype=float)
        for vec, mu in ((T.e_unstable, T.lam), (T.e_stable, 1 / T.lam)):
            assert np.allclose(m @ np.array(vec), mu * np.array(vec), atol=1e-12)
        assert 0.0 < T.basis_det <= 1.0

    def test_symmetric_basis_det_does_not_round_above_one(self):
        # the rounded eigenvector product of this symmetric matrix is 1 + 2^-52
        T = build_automorphism(1, 140, 140, 19601)
        assert T.basis_det == 1.0
        ExperimentConfig(matrix=T.entries, metric=MetricKind.ADAPTED)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            build_automorphism(1, 1, 0, 1)

    def test_rejects_wrong_determinant(self):
        with pytest.raises(DeterminantNotOne):
            build_automorphism(2, 0, 0, 2)


class TestStepExact:
    def test_origin_is_fixed(self):
        st0 = ExactOrbitState(0, 0, 977)
        assert step_exact(st0, CAT) == st0
        assert step_exact(st0, OTHER, Direction.BACKWARD) == st0

    def test_small_modulus_example(self):
        out = step_exact(ExactOrbitState(4, 2, 10), CAT)
        assert (out.px, out.py) == (0, 6)

    @given(px=st.integers(0, DEFAULT_MODULUS - 1), py=st.integers(0, DEFAULT_MODULUS - 1))
    @settings(max_examples=200, deadline=None)
    def test_forward_backward_roundtrip(self, px, py):
        state = ExactOrbitState(px, py, DEFAULT_MODULUS)
        back = step_exact(step_exact(state, CAT), CAT, Direction.BACKWARD)
        assert back == state

    def test_roundtrip_bulk(self):
        rng = np.random.default_rng(5)
        px = rng.integers(0, DEFAULT_MODULUS, 10_000)
        py = rng.integers(0, DEFAULT_MODULUS, 10_000)
        fx, fy = jump(px, py, CAT, 1)
        bx, by = jump(fx, fy, CAT, 1, Direction.BACKWARD)
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
    return build_automorphism(a, b, (a * d - 1) // b, d)


MODULI = st.sampled_from((1 << 32, 1 << 61, 1 << 62))
RESIDUE_PAIRS = st.lists(
    st.tuples(st.integers(0, (1 << 62) - 1), st.integers(0, (1 << 62) - 1)),
    min_size=1,
    max_size=8,
)


def residue_arrays(points, modulus):
    states = [ExactOrbitState(x % modulus, y % modulus, modulus) for x, y in points]
    px = np.array([s.px for s in states], dtype=np.int64)
    py = np.array([s.py for s in states], dtype=np.int64)
    return states, px, py


class TestOrbitBlocks:
    @given(
        T=hyperbolic_matrices(),
        modulus=MODULI,
        steps=st.integers(0, 40),
        stride=st.integers(1, 5),
        elements=st.integers(1, 64),
        points=RESIDUE_PAIRS,
        direction=st.sampled_from(Direction),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_python_int_reference(
        self, T, modulus, steps, stride, elements, points, direction
    ):
        """Row t of the walk is the orbit after t * stride single steps, across block boundaries."""
        states, px, py = residue_arrays(points, modulus)
        with patch.object(torus, "_BLOCK_ELEMENTS", elements):
            xs, ys = walk(px, py, T, modulus, steps, direction, stride)
        assert xs.shape == ys.shape == (steps + 1, len(states))
        assert xs.dtype == ys.dtype == np.int64
        for i, state in enumerate(states):
            for t in range(steps + 1):
                assert (int(xs[t, i]), int(ys[t, i])) == (state.px, state.py)
                for _ in range(stride):
                    state = step_exact(state, T, direction)
        # walking back from the end retraces the walk
        other = Direction.BACKWARD if direction is Direction.FORWARD else Direction.FORWARD
        with patch.object(torus, "_BLOCK_ELEMENTS", elements):
            bx, by = walk(xs[-1], ys[-1], T, modulus, steps, other, stride)
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
            rows = [len(b.x) for b in orbit_blocks(px, px, CAT, 1 << 32, steps, stride=stride)]
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
        T = build_automorphism(-1000, -999, -1, -1)
        modulus = 1 << 62
        points = [(1, 2), (modulus - 1, 12345), (987654321987654321, modulus // 3)]
        block = torus._BLOCK_ELEMENTS // len(points)
        steps = 3 * block + 5
        rng = np.random.default_rng(3)
        for direction in Direction:
            states, px, py = residue_arrays(points, modulus)
            blocks = list(orbit_blocks(px, py, T, modulus, steps, direction))
            assert [len(b.x) for b in blocks] == [1, block, block, block, 5]
            for b in blocks:
                rows = rng.integers(0, len(b.x), 50)
                cols = rng.integers(0, len(points), 50)
                assert np.array_equal(b.y_at(rows, cols), b.y[rows, cols])
            xs = np.concatenate([b.x for b in blocks])
            ys = np.concatenate([b.y for b in blocks])
            eager = [b.y for b in orbit_blocks(px, py, T, modulus, steps, direction)]
            assert np.array_equal(np.concatenate(eager), ys)
            for i, state in enumerate(states):
                for t in range(steps + 1):
                    assert (int(xs[t, i]), int(ys[t, i])) == (state.px, state.py)
                    state = step_exact(state, T, direction)

    def test_long_jump_composes(self):
        """Stride j + k equals stride k then stride j, far beyond any block length."""
        rng = np.random.default_rng(8)
        T = build_automorphism(-1000, -999, -1, -1)
        px = rng.integers(0, DEFAULT_MODULUS, 64)
        py = rng.integers(0, DEFAULT_MODULUS, 64)
        j, k = 123_457, 1_000_003
        once = jump(px, py, T, j + k)
        twice = jump(*jump(px, py, T, k), T, j)
        assert np.array_equal(once[0], twice[0]) and np.array_equal(once[1], twice[1])
        xs, ys = walk(px, py, T, DEFAULT_MODULUS, 3, stride=j)
        thrice = jump(px, py, T, 3 * j)
        assert np.array_equal(xs[-1], thrice[0]) and np.array_equal(ys[-1], thrice[1])
        back = jump(*once, T, j + k, Direction.BACKWARD)
        assert np.array_equal(back[0], px) and np.array_equal(back[1], py)


# centre coordinates at both ends of [0, 1) and anywhere in between
COORDINATES = st.one_of(
    st.sampled_from([0.0, 1.0 - 2.0**-53]), st.floats(0.0, 1.0, exclude_max=True)
)


class TestBallDistance:
    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_matches_scalar_reference(self, metric):
        # points within 0.25 of zeta, where folding is exact in both metrics
        rng = np.random.default_rng(41)
        for T in (CAT, OTHER, build_automorphism(5, 2, 2, 1)):
            zeta = TorusPoint(rng.random(), rng.random())
            rho = 0.25 * np.sqrt(rng.random(2000))
            ang = 2.0 * math.pi * rng.random(2000)
            px = np.round(((zeta.x + rho * np.cos(ang)) % 1.0) * DEFAULT_MODULUS).astype(np.int64)
            py = np.round(((zeta.y + rho * np.sin(ang)) % 1.0) * DEFAULT_MODULUS).astype(np.int64)
            px %= DEFAULT_MODULUS
            py %= DEFAULT_MODULUS
            keys = ball_distance(px, py, DEFAULT_MODULUS, zeta, T, metric)
            checked = 0
            for x, y, key in zip(px, py, keys):
                z = TorusPoint(wrap_unit(int(x) / DEFAULT_MODULUS), wrap_unit(int(y) / DEFAULT_MODULUS))
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
        modulus_bits=st.sampled_from([32, 61, 62]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_out_of_place(self, metric, x, y, matrix, modulus_bits, seed):
        # (rows, width) blocks as the walker yields them, points anywhere on the torus
        modulus = 1 << modulus_bits
        rng = np.random.default_rng(seed)
        px, py = rng.integers(0, modulus, size=(2, 5, 300), dtype=np.int64)
        zeta = TorusPoint(x, y)
        T = build_automorphism(*matrix)
        keys = ball_distance(px, py, modulus, zeta, T, metric)
        ref = ball_distance_out_of_place(px, py, modulus, zeta, T, metric)
        np.testing.assert_array_equal(keys.view(np.int64), ref.view(np.int64))


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
    px = rng.integers(0, DEFAULT_MODULUS, n)
    py = rng.integers(0, DEFAULT_MODULUS, n)
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
        monkeypatch.delenv("EXTORUS_THREADS", raising=False)
        assert torus.map_jobs(abs, [-1, 2, -3], 100) == [1, 2, 3]
        assert torus.map_jobs(abs, list(range(-9, 0)), None) == list(range(9, 0, -1))
        assert sizes == [3, 4]

    @pytest.mark.parametrize("workers", [0, -5])
    def test_worker_counts_below_one_rejected(self, monkeypatch, workers):
        monkeypatch.setattr(torus, "ProcessPoolExecutor", self.no_pool)
        with pytest.raises(ValueError, match=f"worker count must be >= 1, got {workers}"):
            torus.map_jobs(abs, [1, 2], workers)
