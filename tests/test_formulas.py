"""Closed forms: thresholds, extremal indices, strip laws, counting pmf."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from extorus import (
    CompoundPoissonLaw,
    MetricKind,
    RadiusTooLarge,
    ThresholdSchedule,
    area_A_q,
    ball_measure,
    build_automorphism,
    chi_square_vs_pmf,
    extremal_index,
    extremal_model,
    multiplicity_pi,
    nested_area_U,
    polya_aeppli_pmf,
    radius_s_n,
    strip_area_Q,
    threshold_radius,
    threshold_u_n,
    wrap_time_g,
)
from extorus.formulas import multiplicity_mass

CAT = build_automorphism(2, 1, 1, 1)
LAM = CAT.lam_abs
EUCLID = ThresholdSchedule(1.0, MetricKind.EUCLIDEAN)


def mp_extremal_index(lam: float, q: int) -> float:
    """High-precision oracle for the angular-gap extremal index."""
    with mp.workdps(50):
        t = mp.mpf(lam) ** q
        val = 2 / mp.pi * (mp.asin(t / mp.sqrt(t**2 + 1)) - mp.asin(1 / mp.sqrt(t**2 + 1)))
        return float(val)


class TestThresholds:
    def test_euclidean_example(self):
        assert threshold_u_n(1000, EUCLID) == pytest.approx(
            0.5 * math.log(1000 * math.pi), rel=1e-15
        )
        assert threshold_u_n(1000, EUCLID) == pytest.approx(4.026242582415769, abs=1e-12)

    def test_radius_too_large(self):
        with pytest.raises(RadiusTooLarge):
            threshold_u_n(1, ThresholdSchedule(math.pi, MetricKind.EUCLIDEAN))

    def test_adapted_inverts_ball_area(self):
        sched = ThresholdSchedule(1.0, MetricKind.ADAPTED, basis_det=1.0)
        u = threshold_u_n(1000, sched)
        assert u == pytest.approx(0.5 * math.log(4000.0), rel=1e-15)
        r = math.exp(-u)
        assert 1000 * 4.0 * r * r == pytest.approx(1.0, rel=1e-12)

    def test_adapted_with_basis_det(self):
        T = build_automorphism(3, 2, 1, 1)
        sched = ThresholdSchedule(2.0, MetricKind.ADAPTED, basis_det=T.basis_det)
        r = threshold_radius(5000, sched)
        assert 5000 * ball_measure(r, MetricKind.ADAPTED, T.basis_det) == pytest.approx(
            2.0, rel=1e-12
        )

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_strictly_increasing_in_n(self, metric):
        sched = ThresholdSchedule(1.0, metric)
        values = [threshold_u_n(n, sched) for n in (100, 316, 1000, 10**4, 10**6, 10**9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ThresholdSchedule(0.0, MetricKind.EUCLIDEAN)
        with pytest.raises(ValueError):
            ThresholdSchedule(1.0, MetricKind.ADAPTED, basis_det=1.5)


class TestRadius:
    def test_value(self):
        assert radius_s_n(1000, 1.0) == pytest.approx(0.0178412411615277, abs=1e-12)

    def test_area_identity(self):
        for n, tau in ((10, 0.5), (1234, 2.0), (10**6, 1.0)):
            s = radius_s_n(n, tau)
            assert n * math.pi * s * s == pytest.approx(tau, rel=1e-14)

    def test_matches_euclidean_threshold_radius(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(100, 10**7))
            tau = float(rng.uniform(0.1, 4.0))
            s = radius_s_n(n, tau)
            assert s == pytest.approx(
                threshold_radius(n, ThresholdSchedule(tau, MetricKind.EUCLIDEAN)), rel=1e-13
            )


class TestExtremalIndex:
    def test_nonperiodic_is_one(self):
        for metric in MetricKind:
            assert extremal_index(LAM, 0, metric) == 1.0

    def test_cat_q1_euclidean(self):
        theta = extremal_index(LAM, 1, MetricKind.EUCLIDEAN)
        assert theta == pytest.approx(mp_extremal_index(LAM, 1), abs=1e-14)
        assert theta == pytest.approx(0.535440945602460, abs=1e-12)

    def test_cat_q1_adapted_golden(self):
        theta = extremal_index(LAM, 1, MetricKind.ADAPTED)
        assert theta == pytest.approx(1.0 - 2.0 / (3.0 + math.sqrt(5.0)), rel=1e-14)
        assert theta == pytest.approx(0.618033988749895, abs=1e-12)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_limit_and_monotonicity(self, metric):
        assert abs(extremal_index(LAM, 50, metric) - 1.0) < 1e-9
        values = [extremal_index(LAM, q, metric) for q in range(1, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)

    def test_area_identity_exact(self):
        # the radius cancels: escape area over ball area equals theta
        for mat in ((2, 1, 1, 1), (1, 1, 1, 2), (5, 2, 2, 1)):
            lam = build_automorphism(*mat).lam_abs
            for q in (1, 2, 3, 7):
                for s in (0.01, 0.0005):
                    theta = extremal_index(lam, q, MetricKind.EUCLIDEAN)
                    assert abs(area_A_q(s, lam, q) / (math.pi * s * s) - theta) <= 1e-12


class TestStrips:
    def test_partition_of_ball(self):
        s = 0.01
        total = sum(strip_area_Q(s, LAM, 1, k) for k in range(51))
        assert total / (math.pi * s * s) == pytest.approx(1.0, rel=1e-6)

    def test_positive(self):
        for k in range(51):
            assert strip_area_Q(0.01, LAM, 1, k) > 0.0

    def test_kappa_zero_is_escape_region(self):
        assert strip_area_Q(0.02, LAM, 2, 0) == area_A_q(0.02, LAM, 2)

    def test_stable_gap_matches_printed_difference(self):
        # the printed form is a difference of two arcsin gaps; the stable
        # rearrangement must agree wherever the printed form is usable
        from extorus.formulas import _asin_gap

        s = 0.01
        for q in (1, 2):
            for kappa in range(1, 12):
                printed = 2 * s * s * (
                    _asin_gap(LAM, (kappa + 1) * q) - _asin_gap(LAM, kappa * q)
                )
                assert strip_area_Q(s, LAM, q, kappa) == pytest.approx(printed, rel=1e-10)

    def test_nested_area_complements_strips(self):
        s = 0.01
        for kappa in range(1, 6):
            partial = sum(strip_area_Q(s, LAM, 1, j) for j in range(kappa))
            assert nested_area_U(s, LAM, 1, kappa) == pytest.approx(
                math.pi * s * s - partial, rel=1e-12
            )


class TestMultiplicity:
    def test_adapted_kappa1_is_theta(self):
        theta = extremal_index(LAM, 1, MetricKind.ADAPTED)
        assert multiplicity_pi(LAM, 1, 1, MetricKind.ADAPTED) == pytest.approx(theta, rel=1e-14)

    def test_euclidean_sums_to_one(self):
        for q in (1, 2):
            assert multiplicity_mass(LAM, q, MetricKind.EUCLIDEAN) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_tail_ratio(self):
        r = multiplicity_pi(LAM, 1, 21, MetricKind.EUCLIDEAN) / multiplicity_pi(
            LAM, 1, 20, MetricKind.EUCLIDEAN
        )
        assert abs(r - 1.0 / LAM) <= 1e-3

    def test_closed_form_equals_strip_ratio(self):
        # the printed grouping against (Q^(k-1) - Q^k) / Q^0
        s = 0.017
        base = strip_area_Q(s, LAM, 1, 0)
        for kappa in range(1, 11):
            ratio = (
                strip_area_Q(s, LAM, 1, kappa - 1) - strip_area_Q(s, LAM, 1, kappa)
            ) / base
            assert multiplicity_pi(LAM, 1, kappa, MetricKind.EUCLIDEAN) == pytest.approx(
                ratio, abs=1e-10
            )

    def test_frozen_value(self):
        assert multiplicity_pi(LAM, 1, 1, MetricKind.EUCLIDEAN) == pytest.approx(
            0.476884622876, abs=1e-9
        )


class TestPolyaAeppli:
    def test_reduces_to_poisson_at_theta_one(self):
        for k in range(11):
            assert polya_aeppli_pmf(1.0, 2.0, k) == pytest.approx(
                float(stats.poisson.pmf(k, 2.0)), abs=1e-12
            )

    def test_sums_to_one(self):
        total = math.fsum(polya_aeppli_pmf(0.6, 3.0, k) for k in range(80))
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.3, 0.6, 0.9])
    def test_mean(self, theta):
        t = 2.0
        kmax = 40 + int(30 / theta)
        mean = math.fsum(k * polya_aeppli_pmf(theta, t, k) for k in range(kmax))
        assert mean == pytest.approx(t, abs=1e-6)


class TestWrapTime:
    def test_nonperiodic_example(self):
        assert wrap_time_g(10**6, LAM, 0) == 6

    def test_monotone_in_n(self):
        values = [wrap_time_g(n, LAM, 0) for n in np.logspace(2, 8, 40).astype(int)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_periodic_against_high_precision(self):
        # direct evaluation of the floor argument at 50 digits
        for n, q, tau in ((10**6, 1, 1.0), (10**5, 1, 1.0), (10**6, 2, 0.5), (10**4, 3, 2.0)):
            with mp.workdps(50):
                lam = mp.mpf(3 + mp.sqrt(5)) / 2
                arg = (
                    mp.log(n)
                    + mp.log(lam ** (2 * q) + 1)
                    - 2 * mp.log(2 * lam**q * mp.sqrt(mp.mpf(tau) / mp.pi))
                ) / (2 * q * mp.log(lam))
                expected = max(0, int(mp.floor(arg)))
            assert wrap_time_g(n, LAM, q, tau) == expected

    def test_clamped_at_zero(self):
        assert wrap_time_g(2, LAM, 0) == 0
        assert wrap_time_g(1, LAM, 1, 4.0) == 0


class TestExtremalModel:
    def test_nonperiodic_concentrated(self):
        model = extremal_model(LAM, 0, MetricKind.EUCLIDEAN)
        assert model.theta == 1.0
        assert model.multiplicity(1) == 1.0
        assert model.multiplicity(2) == 0.0

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_validated_mass(self, metric):
        model = extremal_model(LAM, 2, metric)
        assert math.fsum(model.multiplicity_table(400)) == pytest.approx(1.0, abs=1e-9)


class TestCompoundPoissonLaw:
    def test_matches_polya_aeppli_for_geometric_sizes(self):
        model = extremal_model(LAM, 1, MetricKind.ADAPTED)
        law = CompoundPoissonLaw(model.theta, model)
        pmf = law.pmf_vector(2.0, 20)
        for k in range(21):
            assert pmf[k] == pytest.approx(polya_aeppli_pmf(model.theta, 2.0, k), abs=1e-12)

    def test_euclidean_law_is_probability(self):
        model = extremal_model(LAM, 1, MetricKind.EUCLIDEAN)
        law = CompoundPoissonLaw(model.theta, model)
        pmf = law.pmf_vector(3.0, 120)
        assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-9)
        mean = float(np.arange(121) @ pmf)
        assert mean == pytest.approx(3.0, abs=1e-6)  # mean t for any size law

    def test_simulated_compound_counts_match_pmf(self):
        # clusters ~ Poisson(theta t), sizes geometric(theta); chi-square at 1%
        theta, t, n = 0.6, 3.0, 1_000_000
        rng = np.random.default_rng(17)
        clusters = rng.poisson(theta * t, n)
        totals = np.zeros(n, dtype=np.int64)
        mask = clusters > 0
        totals[mask] = clusters[mask] + rng.negative_binomial(clusters[mask], theta)
        _, p, _ = chi_square_vs_pmf(totals, lambda k: polya_aeppli_pmf(theta, t, k), 0, 20)
        assert p >= 0.01
