"""Closed forms: thresholds, extremal indices, strip laws, counting pmf."""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from extorus import (
    Ball,
    ExtremalModel,
    MetricKind,
    RadiusTooLarge,
    ToralAutomorphism,
    area_A_q,
    ball_measure,
    chi_square_vs_pmf,
    compute_period,
    extremal_index,
    multiplicity_pi,
    nested_area_U,
    polya_aeppli_pmf,
    strip_area_Q,
    threshold_radius,
    threshold_u_n,
    wrap_time_g,
)
from extorus import formulas
from extorus.torus import TorusPoint
from extorus.formulas import multiplicity_mass

from _reference import mp_compound_poisson_pmf, mp_polya_aeppli_pmf, printed_multiplicity_pi

CAT = ToralAutomorphism(2, 1, 1, 1)
LAM = CAT.lam_abs
EUCLID = MetricKind.EUCLIDEAN


def mp_extremal_index(lam: float, q: int) -> float:
    """High-precision oracle for the angular-gap extremal index."""
    with mp.workdps(50):
        t = mp.mpf(lam) ** q
        val = 2 / mp.pi * (mp.asin(t / mp.sqrt(t**2 + 1)) - mp.asin(1 / mp.sqrt(t**2 + 1)))
        return float(val)


class TestThresholds:
    def test_euclidean_example(self):
        assert threshold_u_n(1000, 1.0, EUCLID) == pytest.approx(
            0.5 * math.log(1000 * math.pi), rel=1e-15
        )
        assert threshold_u_n(1000, 1.0, EUCLID) == pytest.approx(4.026242582415769, abs=1e-12)

    def test_radius_too_large(self):
        with pytest.raises(RadiusTooLarge):
            threshold_u_n(1, math.pi, EUCLID)

    def test_adapted_inverts_ball_area(self):
        u = threshold_u_n(1000, 1.0, MetricKind.ADAPTED, basis_det=1.0)
        assert u == pytest.approx(0.5 * math.log(4000.0), rel=1e-15)
        r = math.exp(-u)
        assert 1000 * 4.0 * r * r == pytest.approx(1.0, rel=1e-12)

    def test_adapted_with_basis_det(self):
        T = ToralAutomorphism(3, 2, 1, 1)
        r = threshold_radius(5000, 2.0, MetricKind.ADAPTED, T.basis_det)
        assert 5000 * ball_measure(r, MetricKind.ADAPTED, T.basis_det) == pytest.approx(
            2.0, rel=1e-12
        )

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_strictly_increasing_in_n(self, metric):
        values = [threshold_u_n(n, 1.0, metric) for n in (100, 316, 1000, 10**4, 10**6, 10**9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            threshold_u_n(1000, 0.0, EUCLID)
        with pytest.raises(ValueError):
            threshold_u_n(1000, 1.0, MetricKind.ADAPTED, basis_det=1.5)
        with pytest.raises(ValueError):
            threshold_radius(0, 1.0, EUCLID)
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="tau must be finite and positive"):
                threshold_u_n(1000, tau, MetricKind.ADAPTED)


class TestRadius:
    """The Euclidean threshold radius is s_n = sqrt(tau / (pi n))."""

    def test_value(self):
        assert threshold_radius(1000, 1.0, EUCLID) == pytest.approx(0.0178412411615277, abs=1e-12)

    def test_area_identity(self):
        for n, tau in ((10, 0.5), (1234, 2.0), (10**6, 1.0)):
            s = threshold_radius(n, tau, EUCLID)
            assert n * math.pi * s * s == pytest.approx(tau, rel=1e-14)

    def test_matches_square_root_form(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(100, 10**7))
            tau = float(rng.uniform(0.1, 4.0))
            assert threshold_radius(n, tau, EUCLID) == pytest.approx(
                math.sqrt(tau / (math.pi * n)), rel=1e-13
            )


class TestExtremalIndex:
    def test_nonperiodic_is_one(self):
        for metric in MetricKind:
            assert extremal_index(CAT, 0, metric) == 1.0

    def test_cat_q1_euclidean(self):
        theta = extremal_index(CAT, 1, MetricKind.EUCLIDEAN)
        assert theta == pytest.approx(mp_extremal_index(LAM, 1), abs=1e-14)
        assert theta == pytest.approx(0.535440945602460, abs=1e-12)

    def test_cat_q1_adapted_golden(self):
        theta = extremal_index(CAT, 1, MetricKind.ADAPTED)
        assert theta == pytest.approx(1.0 - 2.0 / (3.0 + math.sqrt(5.0)), rel=1e-14)
        assert theta == pytest.approx(0.618033988749895, abs=1e-12)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_limit_and_monotonicity(self, metric):
        assert abs(extremal_index(CAT, 50, metric) - 1.0) < 1e-9
        values = [extremal_index(CAT, q, metric) for q in range(1, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)

    def test_area_identity_exact(self):
        # the radius cancels: escape area over ball area equals theta
        for mat in ((2, 1, 1, 1), (1, 1, 1, 2), (5, 2, 2, 1)):
            T = ToralAutomorphism(*mat)
            for q in (1, 2, 3, 7):
                for s in (0.01, 0.0005):
                    theta = extremal_index(T, q, MetricKind.EUCLIDEAN)
                    assert abs(area_A_q(s, T, q) / (math.pi * s * s) - theta) <= 1e-12


class TestStrips:
    def test_partition_of_ball(self):
        s = 0.01
        total = sum(strip_area_Q(s, CAT, 1, k) for k in range(51))
        assert total / (math.pi * s * s) == pytest.approx(1.0, rel=1e-6)

    def test_positive(self):
        for k in range(51):
            assert strip_area_Q(0.01, CAT, 1, k) > 0.0

    def test_kappa_zero_is_escape_region(self):
        assert strip_area_Q(0.02, CAT, 2, 0) == area_A_q(0.02, CAT, 2)

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
                assert strip_area_Q(s, CAT, q, kappa) == pytest.approx(printed, rel=1e-10)

    def test_nested_area_complements_strips(self):
        s = 0.01
        for kappa in range(1, 6):
            partial = sum(strip_area_Q(s, CAT, 1, j) for j in range(kappa))
            assert nested_area_U(s, CAT, 1, kappa) == pytest.approx(
                math.pi * s * s - partial, rel=1e-12
            )


class TestMultiplicity:
    def test_adapted_kappa1_is_theta(self):
        theta = extremal_index(CAT, 1, MetricKind.ADAPTED)
        assert multiplicity_pi(CAT, 1, 1, MetricKind.ADAPTED) == pytest.approx(theta, rel=1e-14)

    def test_euclidean_sums_to_one(self):
        for q in (1, 2):
            assert multiplicity_mass(CAT, q, MetricKind.EUCLIDEAN) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_tail_ratio(self):
        r = multiplicity_pi(CAT, 1, 21, MetricKind.EUCLIDEAN) / multiplicity_pi(
            CAT, 1, 20, MetricKind.EUCLIDEAN
        )
        assert abs(r - 1.0 / LAM) <= 1e-3

    def test_closed_form_equals_strip_ratio(self):
        # pi(kappa) against the strip areas' ratio (Q^(k-1) - Q^k) / Q^0
        s = 0.017
        base = strip_area_Q(s, CAT, 1, 0)
        for kappa in range(1, 11):
            ratio = (
                strip_area_Q(s, CAT, 1, kappa - 1) - strip_area_Q(s, CAT, 1, kappa)
            ) / base
            assert multiplicity_pi(CAT, 1, kappa, MetricKind.EUCLIDEAN) == pytest.approx(
                ratio, abs=1e-10
            )

    def test_frozen_value(self):
        assert multiplicity_pi(CAT, 1, 1, MetricKind.EUCLIDEAN) == pytest.approx(
            0.476884622876, abs=1e-9
        )


def mp_euclidean_law(lam: float, q: int, s: float) -> tuple[float, list[float], float]:
    """theta, pi(kappa) for kappa <= 30 while pi > 1e-250, and A_q at radius s, at 600 digits.

    Evaluated from the printed arcsin gaps at the float lam itself, so
    the comparison measures the formulas, not the rounding of lam.
    """
    with mp.workdps(600):
        lam_mp = mp.mpf(lam)

        def gap(k):
            t = lam_mp ** (k * q)
            root = mp.sqrt(t * t + 1)
            return mp.asin(t / root) - mp.asin(1 / root)

        gaps = [gap(k) for k in range(3)]
        pis = []
        for kappa in range(1, 31):
            pi = (2 * gaps[kappa] - gaps[kappa - 1] - gaps[kappa + 1]) / gaps[1]
            if pi <= mp.mpf("1e-250"):
                break
            pis.append(float(pi))
            gaps.append(gap(kappa + 2))
        return float(2 / mp.pi * gaps[1]), pis, float(2 * mp.mpf(s) ** 2 * gaps[1])


@pytest.mark.parametrize("q", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "matrix",
    [(2, 1, 1, 1), (3, 1, 2, 1), (5, 2, 2, 1), (1000, 999, 1, 1), (1, 140, 140, 19601)],
    ids=lambda m: ",".join(map(str, m)),
)
class TestEuclideanAccuracy:
    """The Euclidean law of |lam| against mpmath, and against the paper's printed grouping."""

    def test_matches_600_digit_mpmath(self, matrix, q):
        T = ToralAutomorphism(*matrix)
        theta, pis, area = mp_euclidean_law(T.lam_abs, q, 0.01)
        assert extremal_index(T, q, EUCLID) == pytest.approx(theta, rel=1e-15, abs=0)
        got = [multiplicity_pi(T, q, kappa, EUCLID) for kappa in range(1, len(pis) + 1)]
        assert got == pytest.approx(pis, rel=1e-15, abs=0)
        # the escape area keeps the printed arcsin form while lam^q <= 100
        assert area_A_q(0.01, T, q) == pytest.approx(area, rel=1e-14, abs=0)

    def test_printed_grouping_where_it_is_well_conditioned(self, matrix, q):
        T = ToralAutomorphism(*matrix)
        lam = T.lam_abs
        kappas = list(itertools.takewhile(lambda kappa: lam ** (kappa * q) <= 1e6, range(1, 31)))
        got = [multiplicity_pi(T, q, kappa, EUCLID) for kappa in kappas]
        printed = [printed_multiplicity_pi(lam, q, kappa) for kappa in kappas]
        assert got == pytest.approx(printed, rel=1e-10, abs=0)


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

    def test_defined_up_to_k_170(self):
        # the sum's j! is a double up to 170!: k = 170 keeps its value, k = 171 is refused
        assert polya_aeppli_pmf(0.6, 3.0, 170) == 3.051416786700066e-53
        with pytest.raises(ValueError, match=r"k must be in \[0, 170\], got 171; ExtremalModel.pmf_vector"):
            polya_aeppli_pmf(0.6, 3.0, 171)
        assert ExtremalModel(CAT, 1, MetricKind.ADAPTED).pmf_vector(3.0, 171)[171] > 0.0


class TestWrapTime:
    def test_nonperiodic_example(self):
        assert wrap_time_g(10**6, CAT, 0) == 6

    def test_monotone_in_n(self):
        values = [wrap_time_g(n, CAT, 0) for n in np.logspace(2, 8, 40).astype(int)]
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
            assert wrap_time_g(n, CAT, q, tau) == expected

    def test_clamped_at_zero(self):
        assert wrap_time_g(2, CAT, 0) == 0
        assert wrap_time_g(1, CAT, 1, 4.0) == 0

    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_tau_validated_for_every_q(self, q, tau):
        # the same check and message as threshold_u_n, also at q = 0 where tau is unused
        with pytest.raises(ValueError, match=f"^tau must be finite and positive, got {tau}$"):
            wrap_time_g(10**5, CAT, q, tau)
        with pytest.raises(ValueError, match=f"^tau must be finite and positive, got {tau}$"):
            threshold_u_n(10**5, tau, EUCLID)

    def test_pinned_values(self):
        # recorded before tau was checked for every q: valid inputs keep their integers
        grid = [
            wrap_time_g(n, CAT, q, tau)
            for n in (10, 10**3, 10**5, 10**7)
            for q in (0, 1, 2, 3)
            for tau in (0.01, 1.0, 40.0)
        ]
        assert grid == [
            0, 0, 0, 3, 1, 0, 1, 0, 0, 1, 0, 0,
            2, 2, 2, 5, 3, 1, 2, 1, 0, 1, 1, 0,
            5, 5, 5, 8, 5, 4, 4, 2, 1, 2, 1, 1,
            7, 7, 7, 10, 8, 6, 5, 4, 3, 3, 2, 2,
        ]


class TestExtremalModel:
    def test_nonperiodic_concentrated(self):
        model = ExtremalModel(CAT, 0, MetricKind.EUCLIDEAN)
        assert model.theta == 1.0
        assert model.multiplicity(1) == 1.0
        assert model.multiplicity(2) == 0.0

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_validated_mass(self, metric):
        model = ExtremalModel(CAT, 2, metric)
        assert math.fsum(model.multiplicity_table(400)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("q", [800, 2000])
    def test_euclidean_law_once_lam_q_overflows(self, q):
        # lam^q is inf in doubles: the law is its limit, all mass on one exceedance
        model = ExtremalModel(CAT, q, EUCLID)
        pis = model.multiplicity_table(3)
        assert model.theta == 1.0
        assert all(math.isfinite(p) for p in pis) and math.fsum(pis) == 1.0
        assert strip_area_Q(0.01, CAT, q, 0) == pytest.approx(ball_measure(0.01, EUCLID), rel=1e-15)
        assert strip_area_Q(0.01, CAT, q, 1) == 0.0

    def test_nan_law_is_refused(self, monkeypatch):
        monkeypatch.setattr(formulas, "multiplicity_pi", lambda *args: math.nan)
        with pytest.raises(ValueError, match="multiplicity law sums to nan"):
            ExtremalModel(CAT, 1, EUCLID)

    def test_theta_is_derived_not_given(self):
        # theta was a free argument: ExtremalModel(CAT, 1, ADAPTED, 0.3) held a theta that its own
        # geometric size law, pi(1) = 0.618, contradicted
        with pytest.raises(TypeError):
            ExtremalModel(CAT, 1, MetricKind.ADAPTED, 0.3)
        model = ExtremalModel(CAT, 1, MetricKind.ADAPTED)
        assert model.theta == model.multiplicity(1) == extremal_index(CAT, 1, MetricKind.ADAPTED)

    @pytest.mark.parametrize("matrix", [(3, 1, 2, 1), (-3, 1, -1, 0)])
    def test_euclidean_periodic_needs_symmetric_matrix(self, matrix):
        T = ToralAutomorphism(*matrix)
        for q in (1, 3):
            with pytest.raises(ValueError, match=r"need a symmetric matrix \(b == c\)"):
                ExtremalModel(T, q, MetricKind.EUCLIDEAN)
        # the adapted law and the non-periodic law take |lam| alone
        assert ExtremalModel(T, 1, MetricKind.ADAPTED).theta == 1.0 - T.lam_abs**-1
        assert ExtremalModel(T, 0, MetricKind.EUCLIDEAN).theta == 1.0


class TestDomain:
    """Each closed form refuses an argument outside its domain, naming it, instead of a silent value or a hang."""

    @pytest.mark.parametrize(
        "name, call",
        [
            # each of these returned a number: 8.80e-05, 0.0, pi s^2 twice, 0
            ("s", lambda: strip_area_Q(-0.01, CAT, 1, 1)),
            ("q", lambda: strip_area_Q(0.01, CAT, 0, 2)),
            ("s", lambda: nested_area_U(-0.01, CAT, 1, 0)),
            ("q", lambda: nested_area_U(0.01, CAT, 0, 0)),
            ("q", lambda: wrap_time_g(1000, CAT, -1)),
            # and the other edges of the domain
            ("s", lambda: area_A_q(math.inf, CAT, 1)),
            ("s", lambda: area_A_q(0.0, CAT, 1)),
            # the law's input is the automorphism: a bare |lam|, even a valid one, is refused
            ("T", lambda: area_A_q(0.01, LAM, 1)),
            ("T", lambda: strip_area_Q(0.01, LAM, 1, 1)),
            ("T", lambda: nested_area_U(0.01, LAM, 1, 1)),
            ("T", lambda: multiplicity_pi(LAM, 1, 1, EUCLID)),
            ("T", lambda: multiplicity_mass(LAM, 1, EUCLID)),
            ("T", lambda: extremal_index(math.nan, 1, EUCLID)),
            ("T", lambda: compute_period((0, 0), 1, LAM, 10)),
            ("T", lambda: ExtremalModel(LAM, 1, EUCLID)),
            ("T", lambda: wrap_time_g(1000, 1.0, 1)),
            ("T", lambda: Ball(2.618, TorusPoint(0.0, 0.0), 0.01, EUCLID)),
            ("q", lambda: extremal_index(CAT, -1, MetricKind.ADAPTED)),
            ("q", lambda: multiplicity_pi(CAT, 0, 1, EUCLID)),
            ("kappa", lambda: strip_area_Q(0.01, CAT, 1, -1)),
            ("kappa", lambda: nested_area_U(0.01, CAT, 1, -1)),
            ("kappa", lambda: multiplicity_pi(CAT, 1, 0, MetricKind.ADAPTED)),
            ("kappa", lambda: ExtremalModel(CAT, 0, EUCLID).multiplicity(0)),
            # a window length that is not finite: nan, and pmf_vector never returned
            ("t", lambda: polya_aeppli_pmf(0.5, math.nan, 2)),
            ("k", lambda: polya_aeppli_pmf(0.5, 2.0, -1)),
            ("t", lambda: ExtremalModel(CAT, 1, EUCLID).pmf_vector(math.inf, 3)),
            # a bool, which math takes for 0 or 1: area_A_q(True, ...) gave the area at s = 1
            ("s", lambda: area_A_q(True, CAT, 1)),
            ("t", lambda: polya_aeppli_pmf(0.5, True, 2)),
            ("t", lambda: ExtremalModel(CAT, 1, EUCLID).pmf_vector(True, 3)),
        ],
    )
    def test_invalid_argument_raises(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call()

    def test_domain_edges_are_accepted(self):
        assert extremal_index(CAT, 0, EUCLID) == 1.0
        assert wrap_time_g(1000, CAT, 0) >= 0
        assert nested_area_U(0.01, CAT, 1, 0) == ball_measure(0.01, EUCLID)
        assert strip_area_Q(0.01, CAT, 1, 0) == area_A_q(0.01, CAT, 1) > 0


# every (matrix, q, metric) that ExtremalModel accepts: at q >= 1 the Euclidean forms need b == c
PMF_CASES = [
    (matrix, q, metric)
    for matrix in [(2, 1, 1, 1), (3, 1, 2, 1), (-3, 1, -1, 0)]
    for q in (1, 2)
    for metric in MetricKind
    if metric is MetricKind.ADAPTED or matrix[1] == matrix[2]
]


class TestPmfVector:
    @pytest.mark.parametrize("t", [2.0, 3.0])
    @pytest.mark.parametrize(
        "matrix, q, metric", PMF_CASES, ids=lambda c: c.value if isinstance(c, MetricKind) else str(c)
    )
    def test_matches_mpmath_into_the_tail(self, matrix, q, metric, t):
        # into the tail, where a cut-off on the number of clusters would drop whole terms
        model = ExtremalModel(ToralAutomorphism(*matrix), q, metric)
        if metric is MetricKind.ADAPTED:
            k_max = 120
            exact = mp_polya_aeppli_pmf(model.theta, t, k_max)
        else:
            k_max = 60  # the convolution-power series costs k_max^3 / 6 mpmath products
            exact = mp_compound_poisson_pmf(model.theta, t, model.multiplicity_table(k_max), k_max)
        rel = np.abs(model.pmf_vector(t, k_max) / np.array(exact) - 1.0)
        assert rel[:15].max() <= 1e-15
        assert rel.max() <= 1e-14

    def test_matches_polya_aeppli_for_geometric_sizes(self):
        model = ExtremalModel(CAT, 1, MetricKind.ADAPTED)
        pmf = model.pmf_vector(2.0, 20)
        for k in range(21):
            assert pmf[k] == pytest.approx(polya_aeppli_pmf(model.theta, 2.0, k), abs=1e-12)

    def test_euclidean_law_is_probability(self):
        model = ExtremalModel(CAT, 1, MetricKind.EUCLIDEAN)
        pmf = model.pmf_vector(3.0, 120)
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


# float.hex of the closed forms. The acceptance manifest and the benchmark
# reference digests are built from these values, so a moved bit must fail
# here first. Thresholds: (metric, n, tau) -> (u_n, radius), with the cat
# map's basis_det for the adapted metric.
PINNED_THRESHOLDS = {
    ("euclidean", 20_000, 1.0): ("0x1.618aff4c1ececp+2", "0x1.0573687920e48p-8"),
    ("euclidean", 20_000, 2.0): ("0x1.4b5cbc4d2494dp+2", "0x1.71bf4e19cefe9p-8"),
    ("euclidean", 20_000, 40.0): ("0x1.d6ff64beaa0d2p+1", "0x1.9d63d929f3cedp-6"),
    ("euclidean", 50_000, 1.0): ("0x1.7edd403cffaf4p+2", "0x1.4ab64754c30bdp-9"),
    ("euclidean", 50_000, 2.0): ("0x1.68aefd3e05755p+2", "0x1.d3b28aec6c155p-9"),
    ("euclidean", 50_000, 40.0): ("0x1.08d1f35035e70p+2", "0x1.0573687920e49p-6"),
    ("euclidean", 100_000, 1.0): ("0x1.950b833bf9e92p+2", "0x1.d3b28aec6c15bp-10"),
    ("euclidean", 100_000, 2.0): ("0x1.7edd403cffaf4p+2", "0x1.4ab64754c30bdp-9"),
    ("euclidean", 100_000, 40.0): ("0x1.1f00364f3020fp+2", "0x1.71bf4e19cefe9p-7"),
    ("adapted", 20_000, 1.0): ("0x1.6945e4b843ff2p+2", "0x1.cf68d4fff04e0p-9"),
    ("adapted", 20_000, 2.0): ("0x1.5317a1b949c53p+2", "0x1.47ae147ae147dp-8"),
    ("adapted", 20_000, 40.0): ("0x1.e6752f96f46dep+1", "0x1.6e5b7d16657e1p-6"),
    ("adapted", 50_000, 1.0): ("0x1.869825a924dfap+2", "0x1.2515fdab8464dp-9"),
    ("adapted", 50_000, 2.0): ("0x1.7069e2aa2aa5bp+2", "0x1.9e7c6e43390b6p-9"),
    ("adapted", 50_000, 40.0): ("0x1.108cd8bc5b176p+2", "0x1.cf68d4fff04e1p-7"),
    ("adapted", 100_000, 1.0): ("0x1.9cc668a81f199p+2", "0x1.9e7c6e43390b5p-10"),
    ("adapted", 100_000, 2.0): ("0x1.869825a924dfap+2", "0x1.2515fdab8464dp-9"),
    ("adapted", 100_000, 40.0): ("0x1.26bb1bbb55515p+2", "0x1.47ae147ae147dp-7"),
}
# cat map at q = 1: theta, pi(1..5) and pmf_vector(2, 14)
PINNED_MODELS = {
    "euclidean": {
        "theta": "0x1.122550cc9a902p-1",
        "pi": (
            "0x1.e854714ce10ecp-2",
            "0x1.3e749315aaedep-2",
            "0x1.0af6725ef73d3p-3",
            "0x1.9da7cbbbf4070p-5",
            "0x1.3ca82b9006d2dp-6",
        ),
        "pmf": (
            "0x1.5eee5cb80cb56p-2",
            "0x1.666e9626f6052p-3",
            "0x1.4544a51de4bc0p-3",
            "0x1.d1d9a9e5bfa45p-4",
            "0x1.3ec236c538a83p-4",
            "0x1.a25495d592e28p-5",
            "0x1.093d63810e514p-5",
            "0x1.470952e0d8eb6p-6",
            "0x1.89d1866b06f7ap-7",
            "0x1.d0b9c884f215ap-8",
            "0x1.0d678fc4f7d46p-8",
            "0x1.3387c009099f1p-9",
            "0x1.5a38a5c8c0bb3p-10",
            "0x1.80f52e85be009p-11",
            "0x1.a73b38e4bd82cp-12",
        ),
    },
    "adapted": {
        "theta": "0x1.3c6ef372fe950p-1",
        "pi": (
            "0x1.3c6ef372fe950p-1",
            "0x1.e3779b97f4a7cp-3",
            "0x1.715609f7c746bp-4",
            "0x1.1a25cd6ed9098p-5",
            "0x1.af155173f23d3p-7",
        ),
        "pmf": (
            "0x1.297f354b1b240p-2",
            "0x1.c688ea7670d93p-3",
            "0x1.5b3bd46dcbf6ap-3",
            "0x1.e650bea8880abp-4",
            "0x1.40d9e8264891fp-4",
            "0x1.9512f55099985p-5",
            "0x1.ee11380914a01p-6",
            "0x1.250184d7237aep-6",
            "0x1.538c4e256e7f0p-7",
            "0x1.81c9534eb6ffep-8",
            "0x1.aee73497534a3p-9",
            "0x1.da2786675b850p-10",
            "0x1.01711d79d3e3ep-10",
            "0x1.1443ef047fb98p-11",
            "0x1.255160c8aa62fp-12",
        ),
    },
}
# cat map at s = 0.01: A_q, Q_kappa for kappa = 0..3, U_kappa for kappa = 0..3
PINNED_AREAS = {
    1: {
        "A": "0x1.60c50f9381177p-13",
        "Q": ("0x1.60c50f9381177p-13", "0x1.71141de966b04p-14",
              "0x1.2b52ce7f80884p-15", "0x1.cd8a7fb04e646p-17"),
        "U": ("0x1.496b7c53c5b03p-12", "0x1.3211e9140a48fp-13",
              "0x1.e61f687d5bc34p-15", "0x1.759933fbb6760p-16"),
    },
    2: {
        "A": "0x1.0ca78f441a37cp-12",
        "Q": ("0x1.0ca78f441a37cp-12", "0x1.9eb56e6b94216p-15",
              "0x1.e7f2399c82742p-18", "0x1.1ccf8913f2b8dp-20"),
        "U": ("0x1.496b7c53c5b03p-12", "0x1.e61f687d5bc38p-15",
              "0x1.1da7e8471e888p-17", "0x1.4d765bc6ea738p-20"),
    },
}

# cat map, Euclidean metric, period q: (theta, (pi(1), pi(2), pi(3)))
PINNED_LARGE_Q = {
    1: ("0x1.122550cc9a902p-1",
        ("0x1.e854714ce10ecp-2", "0x1.3e749315aaedep-2", "0x1.0af6725ef73d3p-3")),
    2: ("0x1.a18e3db2df7ebp-1",
        ("0x1.9d34d445296bbp-1", "0x1.510de3d9bf531p-3", "0x1.8d1d0e788ef48p-6")),
    3: ("0x1.dbb55e66cadfcp-1",
        ("0x1.db1e6a101b362p-1", "0x1.1696cc195e2c1p-4", "0x1.f161c6e6f0e38p-9")),
    50: ("0x1.0000000000000p+0",
         ("0x1.0000000000000p+0", "0x1.e5d4e37501703p-70", "0x1.6a11aed4b604ap-139")),
    300: ("0x1.0000000000000p+0",
          ("0x1.0000000000000p+0", "0x1.bec284d06a57dp-417", "0x1.322c84fb15d9bp-834")),
    700: ("0x1.0000000000000p+0",
          ("0x1.0000000000000p+0", "0x1.541a2dc9f20eap-973", "0x0.0p+0")),
}


class TestPinnedBits:
    """Every closed form keeps its bits: values are compared as float.hex."""

    @pytest.mark.parametrize("key", sorted(PINNED_THRESHOLDS))
    def test_thresholds(self, key):
        metric, n, tau = MetricKind(key[0]), key[1], key[2]
        basis_det = CAT.basis_det if metric is MetricKind.ADAPTED else 1.0
        got = (
            threshold_u_n(n, tau, metric, basis_det).hex(),
            threshold_radius(n, tau, metric, basis_det).hex(),
        )
        assert got == PINNED_THRESHOLDS[key]

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_model(self, metric):
        model = ExtremalModel(CAT, 1, metric)
        pinned = PINNED_MODELS[metric.value]
        assert model.theta.hex() == pinned["theta"]
        assert tuple(model.multiplicity(k).hex() for k in range(1, 6)) == pinned["pi"]
        assert tuple(float(p).hex() for p in model.pmf_vector(2.0, 14)) == pinned["pmf"]

    @pytest.mark.parametrize("q", [1, 2])
    def test_areas(self, q):
        pinned = PINNED_AREAS[q]
        assert area_A_q(0.01, CAT, q).hex() == pinned["A"]
        assert tuple(strip_area_Q(0.01, CAT, q, k).hex() for k in range(4)) == pinned["Q"]
        assert tuple(nested_area_U(0.01, CAT, q, k).hex() for k in range(4)) == pinned["U"]

    @pytest.mark.parametrize("q", sorted(PINNED_LARGE_Q))
    def test_euclidean_law_up_to_large_q(self, q):
        model = ExtremalModel(CAT, q, EUCLID)
        assert (model.theta.hex(), tuple(model.multiplicity(k).hex() for k in (1, 2, 3))) == PINNED_LARGE_Q[q]
