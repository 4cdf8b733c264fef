"""Trial engine, declustering, and empirical extreme-value estimators."""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _reference as ref
from extorus import (
    ClusterSummary,
    ExperimentConfig,
    MetricKind,
    NoExceedances,
    RadiusTooLarge,
    Records,
    RegionKind,
    RegionSpec,
    TooFewGaps,
    TrialRecord,
    ball_measure,
    decluster_all,
    ei_measure_ratio,
    empirical_extremal_index,
    empirical_multiplicity,
    estimate_block_maxima_cdf,
    estimate_run,
    extremal_index,
    extremal_model,
    gap_ks_statistic,
    monte_carlo_measure,
    repp_counts,
    run_experiment,
)
from _reference import clusters_of, records_of, simulate_chunk_stepwise
from extorus import simulate
from extorus.simulate import (
    _chi2_sf,
    _initial_states,
    _kolmogorov_sf,
    _simulate_chunk,
    chi_square_vs_pmf,
    pooled_gaps,
)
from extorus.torus import _BLOCK_ELEMENTS, MODULUS, OBSERVABLE_CAP, Ball, rational_point

ORIGIN = (Fraction(0), Fraction(0))


def small_cfg(**kw):
    base = dict(zeta=ORIGIN, n=2000, trials=200, seed=42)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_radius_validation(self):
        with pytest.raises(RadiusTooLarge):
            ExperimentConfig(tau=25.0, n=100)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0])
    def test_tau_must_be_finite_and_positive(self, tau):
        with pytest.raises(ValueError, match=f"tau must be finite and positive, got {tau}"):
            ExperimentConfig(tau=tau)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)

    @pytest.mark.parametrize("metric", ["euclidean", "adapted", None, 0])
    def test_metric_must_be_a_metric_kind(self, metric):
        # a str once ran the adapted metric: every metric test reads `is EUCLIDEAN`
        with pytest.raises(ValueError, match="metric must be a MetricKind"):
            ExperimentConfig(n=1000, metric=metric)

    def test_each_metric_kind_gives_its_radius(self):
        euclidean = ExperimentConfig(n=1000, metric=MetricKind.EUCLIDEAN)
        adapted = ExperimentConfig(n=1000, metric=MetricKind.ADAPTED)
        assert euclidean.radius == pytest.approx(0.01784, abs=1e-5)
        assert adapted.radius == pytest.approx(0.01581, abs=1e-5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 1000.5),
            ("n", True),
            ("trials", True),
            ("trials", 2.0),
            ("seed", 1.5),
            ("seed", False),
            ("seed", "1"),
        ],
    )
    def test_integer_fields_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int, got"):
            ExperimentConfig(**{"n": 1000, field: value})

    @pytest.mark.parametrize("matrix", [(2.0, 1, 1, 1), (2, 1, 1, True), (True, 1, 1, 1)])
    def test_matrix_entries_must_be_ints(self, matrix):
        with pytest.raises(ValueError, match="matrix entry must be an int, got"):
            ExperimentConfig(n=1000, matrix=matrix)

    @pytest.mark.parametrize("tau", [True, False])
    def test_tau_must_not_be_a_bool(self, tau):
        with pytest.raises(ValueError, match=f"tau must be finite and positive, got {tau}"):
            ExperimentConfig(n=1000, tau=tau)

    @pytest.mark.parametrize(
        "zeta",
        [
            (Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)),  # ran at (1/2, 1/2)
            (Fraction(1, 2),),
            (True, 0),  # ran at the origin
            (Fraction(0), False),
        ],
    )
    def test_zeta_must_be_two_coordinates_none_a_bool(self, zeta):
        with pytest.raises(ValueError, match=r"zeta must be two finite coordinates, none a bool, got \("):
            ExperimentConfig(n=1000, zeta=zeta)

    def test_cli_values_pass(self):
        # the values the CLI parses are ints, floats, Fractions and MetricKinds
        cfg = ExperimentConfig(
            matrix=(3, 1, 2, 1), zeta=(Fraction(1, 5), Fraction(0.4)), metric=MetricKind.ADAPTED,
            tau=2, n=1000, trials=3, seed=-7,
        )
        assert (cfg.zeta, cfg.tau, cfg.seed) == ((Fraction(1, 5), Fraction(0.4)), 2, -7)

    def test_period_detection(self):
        assert small_cfg().q == 1
        assert small_cfg(zeta=(Fraction(1, 2), Fraction(1, 2))).q == 3
        decimal = small_cfg(zeta=(Fraction(math.sqrt(2) - 1), Fraction(math.sqrt(3) - 1)))
        assert decimal.q == 0

    GENERIC = (Fraction(math.sqrt(2) - 1), Fraction(math.sqrt(3) - 1))

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize(
        "matrix, zeta, q",
        [
            ((2, 1, 1, 1), GENERIC, 0),
            ((2, 1, 1, 1), ORIGIN, 1),
            ((2, 1, 1, 1), (Fraction(1, 2), Fraction(1, 2)), 3),
            ((5, 2, 2, 1), GENERIC, 0),
            ((5, 2, 2, 1), ORIGIN, 1),
            ((5, 2, 2, 1), (Fraction(0), Fraction(1, 7)), 3),
        ],
    )
    def test_model_is_the_law_at_the_detected_period(self, matrix, zeta, q, metric):
        cfg = small_cfg(matrix=matrix, zeta=zeta, metric=metric)
        assert cfg.q == q
        assert cfg.model == extremal_model(cfg.automorphism, cfg.q, cfg.metric)

    def test_model_is_derived_only_when_read(self):
        # 3,1,2,1 is not symmetric: the config and its run stand, the Euclidean law at q = 1 is refused
        cfg = small_cfg(matrix=(3, 1, 2, 1), n=1000, trials=3)
        assert (cfg.q, cfg.metric) == (1, MetricKind.EUCLIDEAN)
        assert len(run_experiment(cfg, workers=1).maxima) == 3
        with pytest.raises(ValueError, match=r"need a symmetric matrix \(b == c\)"):
            cfg.model

    def test_run_gap_defaults(self):
        periodic = small_cfg(n=100_000)
        assert periodic.run_gap == periodic.q * periodic.g_n
        generic = small_cfg(n=100_000, zeta=(Fraction(math.sqrt(2) - 1), Fraction(0.3)))
        assert generic.run_gap == generic.g_n


class TestKacRescale:
    def test_exact_euclidean(self):
        assert ExperimentConfig(n=12345).v_n == 12345.0

    def test_example(self):
        assert ExperimentConfig(n=10**4, tau=2.0).v_n == 5000.0

    def test_inverts_ball_measure(self):
        rng = np.random.default_rng(8)
        for metric in MetricKind:
            for _ in range(10):
                n = int(rng.integers(100, 10**6))
                tau = float(rng.uniform(0.2, 3.0))
                cfg = ExperimentConfig(n=n, tau=tau, metric=metric)
                area = ball_measure(cfg.radius, metric, cfg.automorphism.basis_det)
                assert cfg.v_n * area == pytest.approx(1.0, rel=1e-12)


class TestInitialStates:
    @pytest.mark.parametrize("seed", [0, 1, 42, -3, 2**63, 2**70 + 5])
    def test_raw_outputs_are_the_byte_residues(self, seed):
        # trials of every chunk a 4096-trial run has, and ids far past them
        ids = [*range(0, 4096, 3), 2**31, 2**62 + 1]
        states = _initial_states(small_cfg(seed=seed), ids)
        assert states == ref.initial_states_from_bytes(seed, ids)
        assert all(type(c) is int and 0 <= c < MODULUS for state in states for c in state)


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_cfg()
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=1)

    def test_start_at_centre_records_capped_value(self, monkeypatch):
        cfg = small_cfg(trials=1)
        monkeypatch.setattr(simulate, "_initial_states", lambda cfg, ids: [(0, 0)])
        (rec,) = run_experiment(cfg, workers=1)
        assert rec.exceedance_times[0] == 0
        assert rec.exceedance_values[0] == OBSERVABLE_CAP
        assert rec.block_maximum == OBSERVABLE_CAP

    def test_times_sorted_and_values_above_threshold(self):
        cfg = small_cfg(trials=300)
        records = run_experiment(cfg, workers=1)
        u = cfg.u_n
        for rec in records:
            times = rec.exceedance_times
            assert all(b > a for a, b in zip(times, times[1:]))
            assert all(0 <= t < cfg.n for t in times)
            assert all(v > u for v in rec.exceedance_values)
            if rec.exceedance_times.size:
                assert rec.block_maximum >= max(rec.exceedance_values)

    def test_mean_exceedances_near_tau(self):
        cfg = small_cfg(n=2000, trials=2000, tau=1.0, zeta=(Fraction(0.37), Fraction(0.58)))
        records = run_experiment(cfg)
        counts = np.array([len(r.exceedance_times) for r in records])
        # Poisson-like: sd of the mean ~ sqrt(tau/trials) ~ 0.022
        assert abs(counts.mean() - cfg.tau) <= 0.1

    def test_worker_count_invariance(self):
        cfg = small_cfg(trials=2100, n=500)  # spans three chunks
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=2)

    def test_worker_counts_capped_at_cores(self, monkeypatch):
        # only the computed count is checked; no pool is started
        from extorus.torus import resolve_workers

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert resolve_workers() == 4
        assert resolve_workers(100_000) == 4
        assert resolve_workers(3) == 3
        assert type(resolve_workers(np.int64(3))) is int  # a count JSON can write
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(5) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert resolve_workers() == 8

    def test_worker_counts_below_one_rejected(self):
        from extorus.torus import resolve_workers

        with pytest.raises(ValueError, match="worker count must be >= 1, got 0"):
            resolve_workers(0)


CENTRES = {
    0: (Fraction(math.sqrt(2) - 1), Fraction(math.sqrt(3) - 1)),
    1: ORIGIN,
    3: (Fraction(1, 2), Fraction(1, 2)),
}


class TestBlockedEngine:
    """The time-blocked x-first engine reproduces the step-at-a-time reference exactly."""

    @staticmethod
    def records_from_centre(cfg, monkeypatch):
        """Both engines' records, with trial 0 started exactly at the centre."""
        ids = list(range(cfg.trials))
        states = _initial_states(cfg, ids)
        states[0] = (int(cfg.zeta[0] * MODULUS), int(cfg.zeta[1] * MODULUS))
        monkeypatch.setattr(simulate, "_initial_states", lambda cfg, ids: states)
        return _simulate_chunk(cfg, ids), simulate_chunk_stepwise(cfg, ids, states)

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("q", sorted(CENTRES))
    @pytest.mark.parametrize(
        "width, n",
        [
            (1, 1),  # a single step
            (3, 1),
            (1, 300),  # n below the block length: the block is clipped to n
            (1, _BLOCK_ELEMENTS + 1234),  # two blocks, the last one short
            (3, 12_000),  # blocks of _BLOCK_ELEMENTS // 3 steps, n not a multiple
            (1024, 50),  # blocks of 16 steps, n not a multiple
        ],
    )
    def test_records_equal_stepwise_reference(self, metric, q, width, n, monkeypatch):
        cfg = ExperimentConfig(
            zeta=CENTRES[q], metric=metric, n=n, trials=width, tau=min(40.0, 0.1 * n), seed=9
        )
        assert cfg.q == q
        blocked, reference = self.records_from_centre(cfg, monkeypatch)
        assert blocked == reference
        # a capped hit at time 0 and, for a periodic centre, again at every
        # multiple of q, across blocks
        first = blocked[0]
        assert first.exceedance_values[0] == OBSERVABLE_CAP
        assert first.block_maximum == OBSERVABLE_CAP
        if q:
            assert first.exceedance_times.tolist() == list(range(0, n, q))
            assert set(first.exceedance_values) == {OBSERVABLE_CAP}

    @pytest.mark.parametrize("matrix", [(1000, 999, 1, 1), (-1000, -999, -1, -1)])
    def test_other_matrices(self, matrix):
        cfg = ExperimentConfig(matrix=matrix, zeta=CENTRES[0], n=7000, trials=5, tau=40.0, seed=4)
        ids = list(range(cfg.trials))
        records = _simulate_chunk(cfg, ids)
        assert sum(len(r.exceedance_times) for r in records) > 0
        assert records == simulate_chunk_stepwise(cfg, ids)

    # The x-strip: wrapped through residue 0, widened, whole, and so narrow
    # that many trials are walked again.
    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize(
        "matrix, zeta, tau",
        [
            # zeta_x just below 1: the strip wraps through residue 0 from above
            ((2, 1, 1, 1), (Fraction(1) - Fraction(1, 2**53), Fraction(3, 10)), 5.0),
            ((2, 1, 1, 1), CENTRES[0], 0.01),  # R widened to 30 r
            ((3, 1, 2, 1), CENTRES[0], 5.0),  # non-symmetric matrices
            ((3, 1, 2, 1), ORIGIN, 5.0),
            ((-3, 1, -1, 0), CENTRES[0], 5.0),
            ((-3, 1, -1, 0), ORIGIN, 5.0),
        ],
    )
    def test_narrow_strips(self, matrix, zeta, tau, metric, monkeypatch):
        cfg = ExperimentConfig(matrix=matrix, zeta=zeta, metric=metric, tau=tau, n=6000, trials=64, seed=5)
        lo, span, _ = simulate._strip(cfg)
        assert span < MODULUS // 4
        blocked, reference = self.records_from_centre(cfg, monkeypatch)
        assert blocked == reference
        assert blocked[0].exceedance_values[0] == OBSERVABLE_CAP
        assert sum(len(r.exceedance_times) for r in blocked) > (0 if tau < 1 else 100)

    def test_tau_below_one_widens_the_strip(self):
        wide = ExperimentConfig(zeta=CENTRES[0], tau=0.01, n=100_000)
        unit = ExperimentConfig(zeta=CENTRES[0], tau=1.0, n=100_000)
        # R = 3 r max(1, 1/sqrt(tau)): the same strip width at tau = 0.01 and tau = 1
        assert simulate._strip(wide)[1] == pytest.approx(simulate._strip(unit)[1], rel=1e-12)
        assert simulate._strip(wide)[2] == pytest.approx((30.0 * wide.radius) ** 2, rel=1e-15)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_full_torus_strip(self, metric, monkeypatch):
        cfg = ExperimentConfig(zeta=CENTRES[0], metric=metric, tau=20.0, n=200, trials=16, seed=6)
        assert simulate._strip(cfg)[:2] == (0, MODULUS)
        blocked, reference = self.records_from_centre(cfg, monkeypatch)
        assert blocked == reference

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_fallback_trials(self, metric, monkeypatch):
        """With R = r, every trial without a hit is walked again over the whole torus."""
        monkeypatch.setattr(simulate, "_STRIP_FACTOR", 1.0)
        walks = []
        walk = simulate._walk_candidates

        def counted(cfg, px, py, lo, span):
            walks.append((px.size, span))
            return walk(cfg, px, py, lo, span)

        monkeypatch.setattr(simulate, "_walk_candidates", counted)
        cfg = ExperimentConfig(zeta=CENTRES[0], metric=metric, tau=1.0, n=3000, trials=200, seed=8)
        ids = list(range(cfg.trials))
        records = _simulate_chunk(cfg, ids)
        assert records == simulate_chunk_stepwise(cfg, ids)
        misses = sum(1 for r in records if r.exceedance_times.size == 0)
        assert len(walks) == 2 and misses > 20
        assert walks[1] == (misses, MODULUS)


@st.composite
def det_one_matrices(draw):
    """Products of shears [[1, p], [0, 1]] [[1, 0], [q, 1]] [[1, s], [0, 1]], times +-1.

    The product is [[1 + pq, (1 + pq) s + p], [q, qs + 1]], of trace 2 + q(p + s).
    """
    p, q, s = (draw(st.integers(-1000, 1000)) for _ in range(3))
    sign = draw(st.sampled_from([1, -1]))
    entries = (1 + p * q, (1 + p * q) * s + p, q, q * s + 1)
    assume(2 < abs(entries[0] + entries[3]) <= 10**6)
    return tuple(sign * e for e in entries)


class TestStripHoldsBall:
    """Every residue point closer to the centre than R passes the engine's strip test."""

    @given(
        matrix=det_one_matrices(),
        metric=st.sampled_from(list(MetricKind)),
        zeta_x=st.one_of(st.sampled_from([0.0, 1.0 - 2.0**-53]), st.floats(0.0, 1.0, exclude_max=True)),
        zeta_y=st.floats(0.0, 1.0, exclude_max=True),
        tau=st.sampled_from([0.01, 1.0, 40.0]),
        n=st.sampled_from([10**3, 10**6, 10**9, 10**12]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_strip_contains_ball(self, matrix, metric, zeta_x, zeta_y, tau, n, seed):
        try:
            cfg = ExperimentConfig(
                matrix=matrix, zeta=(Fraction(zeta_x), Fraction(zeta_y)), metric=metric, tau=tau, n=n
            )
        except RadiusTooLarge:
            assume(False)
        T = cfg.automorphism
        zeta = rational_point(cfg.zeta)
        lo, span, strip_key = simulate._strip(cfg)
        strip_radius = math.sqrt(strip_key) if metric is MetricKind.EUCLIDEAN else strip_key
        rng = np.random.default_rng(seed)

        # plane offsets at the rim of the R-ball, most of them where x reaches furthest
        count = 4000
        rim = 1.0 - np.abs(rng.normal(0.0, 1e-9, count)) * rng.integers(0, 2, count)
        if metric is MetricKind.EUCLIDEAN:
            angle = rng.integers(0, 2, count) * math.pi + rng.normal(0.0, 1e-4, count)
            angle[::4] = rng.uniform(0.0, 2.0 * math.pi, count // 4)
            dx, dy = strip_radius * rim * np.cos(angle), strip_radius * rim * np.sin(angle)
        else:
            signs = rng.choice([-1.0, 1.0], (2, count))
            xu = strip_radius * signs[0] * rim
            xs = strip_radius * signs[1] * np.where(rng.random(count) < 0.75, rim, rng.random(count))
            (eu, es) = T.e_unstable, T.e_stable
            dx, dy = xu * eu[0] + xs * es[0], xu * eu[1] + xs * es[1]
        px = np.round(((zeta.x + dx) % 1.0) * MODULUS).astype(np.int64) % MODULUS
        py = np.round(((zeta.y + dy) % 1.0) * MODULUS).astype(np.int64) % MODULUS
        # the residues on both sides of each strip edge, at the rim's heights
        edges = np.array([lo - 1, lo, lo + span - 1, lo + span], dtype=object) % MODULUS
        px = np.concatenate([px, np.repeat(edges.astype(np.int64), 64), rng.integers(0, MODULUS, 256)])
        py = np.concatenate([py, np.tile(py[:64], 4), rng.integers(0, MODULUS, 256)])

        inside = simulate._in_strip(px, lo, span)
        assert np.array_equal(inside, ((px - lo) & (MODULUS - 1)) < span)
        near = cfg.ball.key(px, py) < strip_key
        assert near.sum() > 100
        assert inside[near].all()


class TestBlockMaxima:
    def test_tiny_tau_rarely_exceeds(self):
        cfg = small_cfg(tau=0.01, n=10_000, trials=200, zeta=(Fraction(0.21), Fraction(0.83)))
        p, se = estimate_block_maxima_cdf(cfg, run_experiment(cfg))
        assert p >= 0.98

    def test_binomial_standard_error(self):
        cfg = small_cfg(trials=4)
        maxima = (cfg.u_n - 1.0, cfg.u_n, cfg.u_n + 1.0, cfg.u_n - 2.0)
        records = records_of([((), (), m) for m in maxima])
        assert estimate_block_maxima_cdf(cfg, records) == (0.75, math.sqrt(0.75 * 0.25 / 4))


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@st.composite
def exceedance_trials(draw):
    """(n, run_gap, each trial's increasing times).

    The trials include empty and single-hit ones, gaps of exactly
    run_gap and one more, and the times 0 and n - 1.
    """
    run_gap = draw(st.integers(1, 40))
    n = draw(st.integers(1, 3000))
    trials = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["empty", "single", "runs"]))
        if kind == "empty":
            times = []
        elif kind == "single":
            times = [draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)))]
        else:
            gap = st.one_of(st.sampled_from([1, run_gap, run_gap + 1]), st.integers(1, 3 * run_gap))
            first = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
            times = [t for t in itertools.accumulate([first, *draw(st.lists(gap, max_size=25))]) if t < n]
            if draw(st.booleans()) and times[-1] < n - 1:
                times.append(n - 1)
        trials.append(times)
    return n, run_gap, trials


class TestRecords:
    def test_trial_views(self):
        records = records_of([((3, 8), (9.0, 9.5), 9.5), ((), (), 1.0), ((0,), (7.0,), 7.0)])
        assert len(records) == 3
        first, empty, last = records
        assert isinstance(first, TrialRecord) and first.trial_id == 0
        assert first.exceedance_times.tolist() == [3, 8]
        assert first.exceedance_values.tolist() == [9.0, 9.5]
        assert first.block_maximum == 9.5
        assert (empty.trial_id, len(empty.exceedance_times), empty.block_maximum) == (1, 0, 1.0)
        assert records[-1].trial_id == last.trial_id == 2
        with pytest.raises(IndexError):
            records[3]

    def test_equality_compares_columns(self):
        records = records_of([((3, 8), (9.0, 9.5), 9.5), ((), (), 1.0)])
        assert records == records_of([((3, 8), (9.0, 9.5), 9.5), ((), (), 1.0)])
        assert records != records_of([((3, 8), (9.0, 9.5), 9.5), ((), (), 2.0)])
        assert records != records_of([((3, 9), (9.0, 9.5), 9.5), ((), (), 1.0)])
        assert records != records_of([((3, 8), (9.0, 9.5), 9.5)])
        assert records != list(records)

    def test_run_experiment_concatenates_chunks(self, monkeypatch):
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 7)
        cfg = small_cfg(trials=30, n=500, tau=5.0)
        records = run_experiment(cfg, workers=1)
        assert isinstance(records, Records) and len(records) == 30
        assert records == _simulate_chunk(cfg, list(range(30)))


class TestDecluster:
    def test_runs_grouping_example(self):
        clusters = decluster_all(records_of([((5, 6, 7, 500), (9.0,) * 4, 9.0)]), 2, 100.0)
        (summary,) = clusters
        assert isinstance(summary, ClusterSummary)
        assert summary.cluster_sizes.tolist() == [3, 1]
        assert summary.cluster_times.tolist() == [0.05, 5.0]
        assert np.diff(summary.cluster_times).tolist() == [4.95]

    def test_empty_record(self):
        clusters = decluster_all(records_of([((), (), 1.0)]), 5, 10.0)
        assert len(clusters) == 1 and clusters == clusters_of([((), ())])
        assert len(clusters[0].cluster_sizes) == 0

    def test_gap_equal_to_n_single_cluster(self):
        clusters = decluster_all(records_of([((0, 400, 1999), (9.0,) * 3, 9.0)]), 2000, 10.0)
        assert clusters[0].cluster_sizes.tolist() == [3]

    def test_trial_boundary_splits_clusters(self):
        # time 9 of trial 0 and time 10 of trial 1 are one step apart, yet two clusters
        records = records_of([((4, 9), (9.0, 9.0), 9.0), ((10,), (9.0,), 9.0)])
        clusters = decluster_all(records, 5, 1.0)
        assert clusters == clusters_of([((2,), (4.0,)), ((1,), (10.0,))])

    # v_n = nan used to give nan cluster times
    @pytest.mark.parametrize("run_gap, v_n", [(0, 1.0), (1, 0.0), (1, math.nan)])
    def test_rejects_bad_parameters(self, run_gap, v_n):
        with pytest.raises(ValueError):
            decluster_all(records_of([((), (), 1.0)]), run_gap, v_n)


class TestColumnarEqualsLoops:
    """The columnar estimators equal the per-exceedance loops of _reference, bit for bit."""

    @given(case=exceedance_trials(), v_n=st.floats(0.1, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_decluster(self, case, v_n):
        n, run_gap, trials = case
        records = records_of([(times, [9.0] * len(times), 9.0) for times in trials])
        clusters = decluster_all(records, run_gap, v_n)
        assert len(clusters) == len(trials)
        expected = [ref.decluster(tuple(times), run_gap, v_n) for times in trials]
        for summary, (sizes, times), trial in zip(clusters, expected, trials):
            assert summary.cluster_sizes.tolist() == list(sizes)
            assert bits(summary.cluster_times) == bits(times)
            # the clusters partition the trial's exceedances, in time order
            assert sum(sizes) == len(trial)
            assert np.all(np.diff(summary.cluster_times) > 0)
        assert clusters == clusters_of(expected)
        sizes = [s for trial_sizes, _ in expected for s in trial_sizes]
        if sizes:
            assert empirical_extremal_index(clusters) == len(sizes) / sum(sizes)
            hist = empirical_multiplicity(clusters)
            expected_hist = ref.empirical_multiplicity(s for s, _ in expected)
            assert list(hist) == list(expected_hist)
            assert bits(hist.values()) == bits(expected_hist.values())
        window_span = n / v_n
        gaps = pooled_gaps(clusters, window_span)
        assert bits(gaps) == bits(ref.pooled_gaps((t for _, t in expected), window_span))

    @given(case=exceedance_trials(), horizon=st.integers(-1, 3001))
    @settings(max_examples=200, deadline=None)
    def test_repp_counts_and_block_maxima(self, case, horizon):
        n, _, trials = case
        maxima = [float(len(times)) for times in trials]
        records = records_of([(times, [9.0] * len(times), m) for times, m in zip(trials, maxima)])
        counts = repp_counts(records, horizon)
        expected = ref.repp_counts(trials, horizon)
        assert counts.dtype == expected.dtype and counts.tolist() == expected.tolist()
        cfg = small_cfg(trials=len(trials))
        below = sum(1 for m in maxima if m <= cfg.u_n)
        assert estimate_block_maxima_cdf(cfg, records)[0] == below / len(trials)


class TestEstimators:
    def test_singleton_clusters_give_unit_index(self):
        clusters = clusters_of([((1, 1, 1), (0.1, 0.6, 1.1))])
        assert empirical_extremal_index(clusters) == 1.0

    def test_no_exceedances(self):
        with pytest.raises(NoExceedances):
            empirical_extremal_index(clusters_of([((), ())]))
        with pytest.raises(NoExceedances):
            empirical_multiplicity(clusters_of([((), ())]))

    def test_multiplicity_histogram_normalised(self):
        clusters = clusters_of([((1, 2), (0.0, 0.3)), ((1,), (0.1,))])
        hist = empirical_multiplicity(clusters)
        assert hist == {1: 2 / 3, 2: 1 / 3}

    def test_gap_gluing_bridges_trials(self):
        # two windows of span 1.0: glued gap crosses the boundary
        clusters = clusters_of([((1,), (0.8,)), ((1,), (0.3,))])
        gaps = pooled_gaps(clusters, window_span=1.0)
        assert gaps == pytest.approx([0.5])

    def test_chi_square_pools_values_on_both_sides(self):
        # the pooled bin expects the Poisson(1) mass at 0 and above 3,
        # so the 37 zeros count there as 37 values of 99 do
        def poisson_pmf(k):
            return math.exp(-1.0) / math.factorial(k)

        sizes = (1,) * 37 + (2,) * 18 + (3,) * 6 + (4,) * 2
        below = chi_square_vs_pmf((0,) * 37 + sizes, poisson_pmf, 1, 3)
        assert below == chi_square_vs_pmf((99,) * 37 + sizes, poisson_pmf, 1, 3)
        assert below[1] > 0.5  # the sample has the law's shape; the zeros dropped gave chi-square 34.8, p 1.3e-7


class TestPValues:
    """The chi-square and Kolmogorov survival functions against mpmath, and SciPy."""

    @pytest.mark.parametrize("dof", range(1, 31))
    def test_chi2_sf_matches_mpmath(self, dof):
        for x in np.geomspace(1e-3, 316.0, 60).tolist():
            with mp.workdps(50):
                ref = mp.gammainc(mp.mpf(dof) / 2, mp.mpf(x) / 2, mp.inf, regularized=True)
            assert abs(_chi2_sf(dof, x) - ref) <= 5e-14 * ref, (dof, x)

    def test_kolmogorov_sf_matches_mpmath(self):
        # 1 - theta_4(0, e^(-2 x^2)) is the alternating series, summed by mpmath
        for x in np.linspace(0.05, 8.0, 400).tolist():
            with mp.workdps(100):
                ref = 1 - mp.jtheta(4, 0, mp.exp(-2 * mp.mpf(x) ** 2))
            assert abs(_kolmogorov_sf(x) - ref) <= 5e-14 * ref, x

    def test_edge_values(self):
        for dof in (1, 2, 5, 30):
            assert _chi2_sf(dof, 0.0) == _chi2_sf(dof, -1.0) == 1.0
            assert _chi2_sf(dof, math.inf) == 0.0
            assert math.isnan(_chi2_sf(dof, math.nan))
        assert _kolmogorov_sf(0.0) == _kolmogorov_sf(-1.0) == 1.0
        assert _kolmogorov_sf(math.inf) == 0.0
        assert math.isnan(_kolmogorov_sf(math.nan))

    def test_equal_to_scipy(self):
        """SciPy's chdtrc and kolmogorov, the routes these replace, agree to 1e-13."""
        from scipy import special, stats

        rng = np.random.default_rng(17)
        x = rng.exponential(20.0, 2000) * rng.random(2000)
        dof = rng.integers(1, 60, 2000)
        ours = [_chi2_sf(d, v) for d, v in zip(dof.tolist(), x.tolist())]
        np.testing.assert_allclose(ours, special.chdtrc(dof, x), rtol=1e-13, atol=0)
        np.testing.assert_allclose(ours, stats.chi2.sf(x, dof), rtol=1e-13, atol=0)
        z = rng.uniform(0.05, 8.0, 2000)
        ours = [_kolmogorov_sf(v) for v in z.tolist()]
        np.testing.assert_allclose(ours, special.kolmogorov(z), rtol=1e-13, atol=0)
        np.testing.assert_allclose(ours, stats.kstwobign.sf(z), rtol=1e-13, atol=0)
        values = rng.poisson(2.0, 500)

        def poisson_pmf(k):
            return math.exp(-2.0) * 2.0**k / math.factorial(k)

        stat, p, dof = chi_square_vs_pmf(values, poisson_pmf, 0, 6)
        assert p == pytest.approx(float(stats.chi2.sf(stat, dof)), rel=1e-13, abs=0)
        gaps = rng.exponential(1.0 / 0.7, 1000)
        times = (0.0, *np.cumsum(gaps))
        ks, p = gap_ks_statistic(clusters_of([((1,) * 1001, times)]), 0.7, window_span=times[-1])
        assert p == pytest.approx(float(special.kolmogorov(math.sqrt(1000) * ks)), rel=1e-13, abs=0)


class TestGapKS:
    def test_calibrated_against_exact_exponential(self):
        # exact Exp(theta) samples: p-value above 0.01 in at least 98 of 100 runs
        theta = 0.7
        ok = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            gaps = rng.exponential(1.0 / theta, 10_000)
            times = (0.0, *np.cumsum(gaps))
            clusters = clusters_of([((1,) * 10_001, times)])
            _, p = gap_ks_statistic(clusters, theta, window_span=times[-1])
            ok += p > 0.01
        assert ok >= 98

    def test_constant_gaps_rejected(self):
        clusters = clusters_of([((1,) * 101, tuple(range(101)))])
        _, p = gap_ks_statistic(clusters, 1.0, window_span=101.0)
        assert p < 1e-6

    @pytest.mark.parametrize(
        "theta, window_span, message",
        [
            (-1.0, 101.0, r"theta must lie in \(0, 1\], got -1.0"),  # gave a KS distance of 2.72
            (math.nan, 101.0, r"theta must lie in \(0, 1\], got nan"),  # gave a nan p-value
            (1.0, math.nan, "window_span must be finite and positive, got nan"),
            (1.0, -1.0, "window_span must be finite and positive, got -1.0"),
        ],
        ids=["theta-negative", "theta-nan", "window_span-nan", "window_span-negative"],
    )
    def test_rejects_rates_outside_their_domain(self, theta, window_span, message):
        clusters = clusters_of([((1,) * 101, tuple(range(101)))])
        with pytest.raises(ValueError, match=message):
            gap_ks_statistic(clusters, theta, window_span)

    def test_too_few_gaps(self):
        with pytest.raises(TooFewGaps):
            gap_ks_statistic(clusters_of([((1, 1), (0.0, 0.5))]), 1.0, window_span=1.0)


class TestMeasureRatioEstimator:
    def test_euclidean_fixed_point(self):
        cfg = small_cfg(n=100_000)
        theta = ei_measure_ratio(cfg, 400_000, 31)
        assert theta == pytest.approx(
            extremal_index(cfg.automorphism, 1, MetricKind.EUCLIDEAN), abs=0.01
        )

    def test_adapted_fixed_point(self):
        cfg = small_cfg(n=100_000, metric=MetricKind.ADAPTED)
        theta = ei_measure_ratio(cfg, 400_000, 33)
        assert theta == pytest.approx(1.0 - 1.0 / cfg.automorphism.lam_abs, abs=0.01)

    def test_nonperiodic_convention(self):
        cfg = small_cfg(zeta=(Fraction(math.sqrt(2) - 1), Fraction(0.77)))
        assert ei_measure_ratio(cfg, 1000, 1) == 1.0

    @pytest.mark.parametrize(
        "cfg, samples, seed",
        [
            # the sim-dense benchmark run at seed 2, whose estimate uses seed 3
            (ExperimentConfig(zeta=ORIGIN, metric=MetricKind.ADAPTED, tau=40.0, n=50_000,
                              trials=4096, seed=2), 200_000, 3),
            # acceptance criterion 5
            (ExperimentConfig(zeta=ORIGIN, n=100_000, trials=10_000, seed=20260810),
             1_000_000, 20260810 + 17),
        ],
        ids=["adapted", "euclidean"],
    )
    def test_exact_ball_area_keeps_the_two_measure_bits(self, cfg, samples, seed):
        # the oracle samples the ball itself, so its estimate of the ball is the
        # exact area with no error, and the ratio keeps the bits it had when the
        # ball was a second Monte Carlo measure (seeded seed + 1)
        T = cfg.automorphism
        ball = Ball(T, rational_point(cfg.zeta), cfg.radius, cfg.metric)
        sampled_ball = monte_carlo_measure(RegionSpec(ball, RegionKind.BALL), samples, seed + 1)
        assert sampled_ball == (ball_measure(cfg.radius, cfg.metric, T.basis_det), 0.0)
        escape = RegionSpec(ball, RegionKind.A_Q, q=cfg.q)
        escape_estimate = monte_carlo_measure(escape, samples, seed).estimate
        two_measures = escape_estimate / sampled_ball.estimate
        assert ei_measure_ratio(cfg, samples, seed).hex() == two_measures.hex()


class TestEstimateRun:
    """estimate_run is the chain of estimators that estimate prints and criteria 4-6 report."""

    @pytest.fixture(scope="class")
    def periodic(self):
        cfg = small_cfg(n=20_000, trials=400, seed=12)
        return cfg, run_experiment(cfg, workers=1)

    def test_each_entry_is_its_estimator(self, periodic):
        cfg, records = periodic
        clusters = decluster_all(records, cfg.run_gap, cfg.v_n)
        theta = cfg.model.theta
        p_hat, p_se = estimate_block_maxima_cdf(cfg, records)
        chi2 = chi_square_vs_pmf(clusters.size, cfg.model.multiplicity, 1, 5)
        ks = gap_ks_statistic(clusters, theta, cfg.tau)
        assert cfg.q == 1
        assert estimate_run(cfg, records, 20_000, 5) == {
            "trials": 400,
            "exceedances": records.time.size,
            "q": 1,
            "theta_formula": theta,
            "p_hat": p_hat,
            "p_se": p_se,
            "p_target": math.exp(-theta * cfg.tau),
            "theta_hat_clusters": empirical_extremal_index(clusters),
            "size_histogram": empirical_multiplicity(clusters),
            "ks_theta": theta,
            "chi2": chi2[0],
            "chi2_p_value": chi2[1],
            "chi2_dof": chi2[2],
            "ks_stat": ks[0],
            "ks_p_value": ks[1],
            "theta_hat_ratio": ei_measure_ratio(cfg, 20_000, 5),
        }

    def test_gap_theta_is_forwarded_and_no_samples_run_no_ratio(self, periodic):
        cfg, records = periodic
        clusters = decluster_all(records, cfg.run_gap, cfg.v_n)
        est = estimate_run(cfg, records, 0, 5, gap_theta=0.25)
        ks = gap_ks_statistic(clusters, 0.25, cfg.tau)
        assert (est["ks_theta"], est["ks_stat"], est["ks_p_value"]) == (0.25, *ks)
        assert "theta_hat_ratio" not in est

    def test_steps_that_cannot_run_hold_their_reasons(self):
        # ten trials at a non-periodic centre: ten clusters of size 1 and nine gaps; no ratio at q = 0
        cfg = ExperimentConfig(zeta=(0.4142, 0.7321), n=20_000, trials=10, seed=3)
        est = estimate_run(cfg, run_experiment(cfg, workers=1), 20_000, 5)
        assert cfg.q == 0 and "theta_hat_ratio" not in est
        chi2 = [est[key] for key in ("chi2", "chi2_p_value", "chi2_dof")]
        assert chi2 == ["too few bins with adequate expectation"] * 3
        assert [est[key] for key in ("ks_stat", "ks_p_value")] == ["9 gaps, need >= 20"] * 2

    def test_ratio_out_of_local_range_holds_its_reason(self):
        # at |trace| 19602 one image of the threshold ball wraps the torus
        cfg = ExperimentConfig(matrix=(1, 140, 140, 19601), n=7000, trials=5, tau=40.0, seed=4)
        est = estimate_run(cfg, run_experiment(cfg, workers=1), 20_000, 5)
        assert est["theta_hat_ratio"].startswith("OutOfLocalRange: lam^(1q) * radius >= 1/2")
        assert isinstance(est["theta_hat_clusters"], float)


class TestRepp:
    def test_counts_respect_horizon(self):
        records = records_of([((1, 5, 9), (9.0, 9.0, 9.0), 9.0), ((), (), 1.0)])
        assert list(repp_counts(records, 6)) == [2, 0]

    def test_periodic_orbit_counts_cluster(self):
        # at the fixed point, entries arrive in runs: counts overdispersed
        cfg = small_cfg(n=20_000, trials=400, tau=2.0)
        records = run_experiment(cfg)
        counts = repp_counts(records, cfg.n)
        assert counts.mean() == pytest.approx(2.0, abs=0.3)
        assert counts.var() > counts.mean()  # clustering inflates variance
