"""Closed-form extreme-value quantities for hyperbolic torus maps.

Each closed form has its one evaluation here. The laws take the
ToralAutomorphism T (and q, metric) and read T.lam_abs once; the
Euclidean ones evaluate the printed law at |lam|, exact for symmetric T,
so extremal_model refuses them at a periodic centre otherwise. Every
form refuses an argument outside its domain with a ValueError naming it
(_check_law, check_positive, check_metric) and returns a Python float.
Conventions: s is the ball radius, lam the dominant eigenvalue of T:

* Ball measure: a Euclidean ball of radius r has measure pi r^2; an
  adapted-metric ball is a square in eigenbasis coordinates with
  measure 4 r^2 basis_det. ball_measure is the only place this law is
  written.
* Thresholds: u_n is chosen so that n times the measure of the ball of
  radius exp(-u_n) around the centre equals tau, so
  u_n = (1/2) log(n ball_measure(1) / tau).
* Escape region: points of the ball whose first q forward images all
  leave it. Its area is 2 s^2 (asin(L/sqrt(L^2+1)) - asin(1/sqrt(L^2+1)))
  with L = lam^q, and dividing by the ball area pi s^2 gives the
  extremal index for the Euclidean metric. The adapted metric gives
  1 - lam^(-q) instead.
* Return strips: the ball splits into strips Q^kappa of points that
  return to the ball exactly kappa times under the q-fold map before
  escaping. Strip areas have the same arcsin closed form evaluated at
  consecutive indices, the cluster-size law pi(kappa) is a ratio of
  strip areas, and pi(kappa+1)/pi(kappa) -> lam^(-q).
* Counting law: cluster starts arrive as a Poisson stream of intensity
  theta and each cluster carries an integer multiplicity.
  ExtremalModel.pmf_vector evaluates the compound Poisson counts by
  Panjer's recursion, exact term by term with no cut-off on the number
  of clusters; geometric multiplicities give the Polya-Aeppli counting
  distribution, whose closed form polya_aeppli_pmf is its check.

The Euclidean theta and pi(kappa) take one numerically stable route,
_strip_gap: the arcsin differences rearranged through
asin(x/sqrt(1+x^2)) = atan(x) and atan(b)-atan(a) = atan((b-a)/(1+ab)),
so no difference of nearly equal angles is ever taken. Only area_A_q
(and through it strip_area_Q at kappa = 0 and nested_area_U) keeps the
printed arcsin form while lam^q <= 100; the tests check it against the
stable theta and against mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RadiusTooLarge
from .torus import MetricKind, ToralAutomorphism, check_automorphism, check_count, check_metric, check_positive

_TAIL_TOL = 1e-15
_MASS_TERMS = 4000  # multiplicity_mass sums at most this many terms before its tail


def ball_measure(radius: float, metric: MetricKind, basis_det: float = 1.0) -> float:
    """Lebesgue measure of a metric ball of the given radius; basis_det lies in (0, 1]."""
    check_metric(metric)
    radius = check_positive("radius", radius)
    basis_det = check_positive("basis_det", basis_det, 1)
    if metric is MetricKind.EUCLIDEAN:
        return math.pi * radius * radius
    return 4.0 * radius * radius * basis_det


def _check_law(T: ToralAutomorphism, q: int, q_min: int = 1) -> tuple[float, int]:
    """(T.lam_abs, int(q)) for a ToralAutomorphism T and an integer q >= q_min (0: non-periodic), else raise."""
    check_automorphism(T)
    return T.lam_abs, check_count("q", q, q_min)


def threshold_u_n(n: int, tau: float, metric: MetricKind, basis_det: float = 1.0) -> float:
    """Threshold for orbit length n: inverts the ball measure at tau/n.

    u = (1/2) log(n m(B_1) / tau), with m(B_1) the measure of the unit
    ball. Raises ValueError for an argument outside its domain (n an int
    >= 1), RadiusTooLarge when exp(-u) >= 0.25.
    """
    n = check_positive("n", check_count("n", n, 1))  # m(B_1) n takes n's float, which must exist
    tau = check_positive("tau", tau)
    u = 0.5 * math.log(ball_measure(1.0, metric, basis_det) * n / tau)
    if u == math.inf:  # m(B_1) n / tau overflowed: the radius would be 0
        raise ValueError(f"n / tau must stay within the doubles' range, got n = {n:g}, tau = {tau:g}")
    if math.exp(-u) >= 0.25:
        raise RadiusTooLarge(f"threshold radius {math.exp(-u):.4g} >= 0.25 at n={n}, tau={tau}")
    return u


def threshold_radius(n: int, tau: float, metric: MetricKind, basis_det: float = 1.0) -> float:
    """exp(-u_n), the exceedance ball radius; see threshold_u_n."""
    return math.exp(-threshold_u_n(n, tau, metric, basis_det))


def _power(base: float, p: int) -> float:
    """base**p for base >= 0, saturating at +inf or 0 where a result or an exponent overflows."""
    try:
        return base**p
    except OverflowError:
        return math.inf if (base > 1.0) == (p > 0) else 0.0


def _asin_gap(lam_abs: float, q: int) -> float:
    """asin(L/sqrt(L^2+1)) - asin(1/sqrt(L^2+1)) at L = lam_abs**q, as printed.

    The asin form has condition number ~L near its upper limit, so for
    L > 100 this is _strip_gap(lam_abs, q, 0), its stable rearrangement.
    """
    big = _power(lam_abs, q)
    if big > 100.0:
        return _strip_gap(lam_abs, q, 0)
    root = math.sqrt(big * big + 1.0)
    return math.asin(big / root) - math.asin(1.0 / root)


def _strip_gap(lam_abs: float, q: int, kappa: int) -> float:
    """Angular-gap difference at indices kappa+1 and kappa, stably.

    Exact rearrangement of _asin_gap(lam,(kappa+1)q) - _asin_gap(lam,kq)
    via atan(b)-atan(a) = atan((b-a)/(1+ab)); the direct difference
    cancels to zero in doubles once lam**(kappa*q) exceeds ~1e16. Once
    lam**q overflows a double, the form would be inf / inf; its limit is
    pi/2 at kappa = 0 (the escape region fills the disc) and 0 beyond, so
    that pi(1) = 1 and pi(kappa >= 2) = 0.
    """
    lq = _power(lam_abs, q)
    if lq == math.inf:
        return math.pi / 2 if kappa == 0 else 0.0
    inv_a = _power(lam_abs, -kappa * q)
    big = _power(lam_abs, (kappa + 1) * q)
    expanding = math.atan((lq - 1.0) / (inv_a + big))
    contracting = math.atan(
        (inv_a - _power(lam_abs, -(kappa + 1) * q)) / (1.0 + _power(lam_abs, -(2 * kappa + 1) * q))
    )
    return expanding + contracting


def extremal_index(T: ToralAutomorphism, q: int, metric: MetricKind) -> float:
    """Extremal index theta in (0, 1] of T at a centre of period q.

    q = 0 encodes a non-periodic centre and gives 1 for both metrics.
    For q >= 1 the Euclidean value is (2/pi) times the angular gap of
    the escape region, the printed law at T's |lam| (exact for symmetric
    T); the adapted value is 1 - |lam|^(-q).
    """
    lam_abs, q = _check_law(T, q, q_min=0)
    check_metric(metric)
    if q == 0:
        return 1.0
    if metric is MetricKind.EUCLIDEAN:
        return (2.0 / math.pi) * _strip_gap(lam_abs, q, 0)
    return 1.0 - _power(lam_abs, -q)


def area_A_q(s: float, T: ToralAutomorphism, q: int) -> float:
    """Area of the escape region of a Euclidean ball of radius s, the points whose first q images
    leave it: the printed law at T's |lam|, exact for symmetric T."""
    lam_abs, q = _check_law(T, q)
    s = check_positive("s", s)
    return 2.0 * s * s * _asin_gap(lam_abs, q)


def strip_area_Q(s: float, T: ToralAutomorphism, q: int, kappa: int) -> float:
    """Area of the strip of ball points returning exactly kappa times: the escape region at kappa = 0,
    else 2 s^2 times the difference of the angular-gap closed form at indices kappa+1 and kappa.
    The printed law at T's |lam|, exact for symmetric T."""
    lam_abs, q = _check_law(T, q)
    kappa = check_count("kappa", kappa, 0)
    s = check_positive("s", s)
    if kappa == 0:
        return area_A_q(s, T, q)
    return 2.0 * s * s * _strip_gap(lam_abs, q, kappa)


def nested_area_U(s: float, T: ToralAutomorphism, q: int, kappa: int) -> float:
    """Area of the nested set of ball points returning at least kappa times: pi s^2 minus the first
    kappa strips, up to the first of area 0 (all later ones are 0). Exact for symmetric T."""
    q = _check_law(T, q)[1]
    kappa = check_count("kappa", kappa, 0)
    s = check_positive("s", s)
    total = ball_measure(s, MetricKind.EUCLIDEAN)
    for j in range(kappa):
        strip = strip_area_Q(s, T, q, j)
        if strip == 0.0:
            break
        total -= strip
    return total


def multiplicity_pi(T: ToralAutomorphism, q: int, kappa: int, metric: MetricKind) -> float:
    """Cluster-size probability pi(kappa), kappa >= 1, of T at a centre of period q >= 1.

    Adapted metric: geometric with parameter theta = extremal_index.
    Euclidean metric: the strip area ratio (Q^(kappa-1) - Q^kappa) / Q^0
    at T's |lam| (exact for symmetric T), from the stable gaps; it equals
    the paper's four-arcsin grouping, which cancels below the double noise
    floor once lam^(kappa q) grows.
    """
    lam_abs, q = _check_law(T, q)
    kappa = check_count("kappa", kappa, 1)
    check_metric(metric)
    if metric is MetricKind.ADAPTED:
        theta = extremal_index(T, q, metric)
        return theta * _power(1.0 - theta, kappa - 1)
    gap = _strip_gap(lam_abs, q, kappa - 1) - _strip_gap(lam_abs, q, kappa)
    return gap / _strip_gap(lam_abs, q, 0)


def multiplicity_mass(T: ToralAutomorphism, q: int, metric: MetricKind) -> float:
    """Sum of pi(kappa) up to an adaptive cutoff plus a geometric tail bound.

    The tail ratio tends to |lam|^(-q), so once terms are below the
    working tolerance the remainder is summed as a geometric series.
    """
    lam_abs, q = _check_law(T, q)
    ratio = _power(lam_abs, -q)
    total = 0.0
    last = 0.0
    for kappa in range(1, _MASS_TERMS + 1):
        last = multiplicity_pi(T, q, kappa, metric)
        total += last
        if last < _TAIL_TOL:
            break
    return total + last * ratio / (1.0 - ratio)


def polya_aeppli_pmf(theta: float, t: float, k: int) -> float:
    """Counting pmf for geometric cluster sizes on a window of length t.

    P(N = 0) = exp(-theta t) and for k >= 1

        P(N = k) = exp(-theta t) * sum_{j=1..k} theta^j (1-theta)^(k-j)
                   (theta t)^j / j! * C(k-1, j-1).

    At theta = 1 this reduces to the Poisson pmf with mean t. The j! of
    the sum is a double up to 170!, so k is at most 170;
    ExtremalModel.pmf_vector evaluates the law at any k.
    """
    theta = check_positive("theta", theta, 1)
    t = check_positive("t", t)
    k = check_count("k", k, 0)
    if k > 170:
        raise ValueError(f"k must be in [0, 170], got {k}; ExtremalModel.pmf_vector takes any k")
    if k == 0:
        return math.exp(-theta * t)
    total = 0.0
    for j in range(1, k + 1):
        total += (
            theta**j
            * (1.0 - theta) ** (k - j)
            * (theta * t) ** j
            / math.factorial(j)
            * math.comb(k - 1, j - 1)
        )
    return math.exp(-theta * t) * total


def wrap_time_g(n: int, T: ToralAutomorphism, q: int, tau: float = 1.0) -> int:
    """Number of q-fold backward steps of T before preimages wrap the torus.

    q = 0: floor((log n - log pi) / (2 log lam)).
    q >= 1: floor((log n + log(lam^(2q)+1) - 2 log(2 lam^q sqrt(tau/pi)))
    / (2 q log lam)), evaluated in a cancellation-free rearrangement so
    large q cannot overflow. Clamped at 0: a negative value would index
    an empty sum. n and tau are checked as threshold_u_n checks them.
    """
    n = check_count("n", n, 1)
    tau = check_positive("tau", tau)
    lam_abs, q = _check_law(T, q, q_min=0)
    log_lam = math.log(lam_abs)
    if q == 0:
        value = (math.log(n) - math.log(math.pi)) / (2.0 * log_lam)
    else:
        # log(lam^{2q}+1) - 2q log lam = log1p(lam^{-2q})
        numer = math.log(n) + math.log1p(_power(lam_abs, -2 * q)) - math.log(4.0 * tau / math.pi)
        try:
            value = numer / (2.0 * q * log_lam)
        except OverflowError:  # a q beyond the doubles: the quotient is below 1
            value = 0.0
    return max(0, math.floor(value))


@dataclass(frozen=True)
class ExtremalModel:
    """Extremal index plus cluster-size law for one (T, q, metric); theta must lie in (0, 1]."""

    T: ToralAutomorphism
    q: int
    metric: MetricKind
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _check_law(self.T, self.q, q_min=0)[1])
        check_metric(self.metric)
        object.__setattr__(self, "theta", check_positive("theta", self.theta, 1))

    def multiplicity(self, kappa: int) -> float:
        check_count("kappa", kappa, 1)
        if self.q == 0:
            return 1.0 if kappa == 1 else 0.0
        return multiplicity_pi(self.T, self.q, kappa, self.metric)

    def multiplicity_table(self, k_max: int) -> list[float]:
        return [self.multiplicity(k) for k in range(1, check_count("k_max", k_max, 0) + 1)]

    def pmf_vector(self, t: float, k_max: int) -> np.ndarray:
        """P(N([0,t)) = k) for k = 0..k_max under the compound Poisson counting law.

        Clusters arrive as a Poisson(theta t) stream with iid sizes drawn from
        the multiplicity law pi. Panjer's recursion (ASTIN Bulletin 12, 1981),
        p_0 = exp(-theta t) and p_k = (theta t / k) sum_{j=1..k} j pi(j) p_{k-j},
        is exact term by term, with no cut-off on the number of clusters. Each
        sum is an fsum of correctly rounded products: a dot product's bits would
        hang on its summation order and on fused multiply-adds, which vary by
        platform. For geometric sizes it is polya_aeppli_pmf.
        """
        rate = self.theta * check_positive("t", t)
        k_max = check_count("k_max", k_max, 0)
        weights = np.arange(1, k_max + 1) * np.array(self.multiplicity_table(k_max))  # j pi(j)
        out = np.zeros(k_max + 1)
        out[0] = math.exp(-rate)
        for k in range(1, k_max + 1):
            out[k] = rate / k * math.fsum(weights[:k] * out[k - 1 :: -1])
        return out


def extremal_model(T: ToralAutomorphism, q: int, metric: MetricKind) -> ExtremalModel:
    """The closed-form law for (T, q, metric), refused where it is known to be wrong.

    The Euclidean forms evaluate the printed law at T's |lam|, but the
    disc's overlap with its images depends on the singular values of A^q,
    which are |lam|^q only for a symmetric matrix: the Euclidean metric at
    q >= 1 needs b == c. For q >= 1 the multiplicity law must sum to 1
    within 1e-9 (adaptive cutoff plus geometric tail).
    """
    theta = extremal_index(T, q, metric)
    if metric is MetricKind.EUCLIDEAN and q >= 1 and T.b != T.c:
        raise ValueError(
            f"the Euclidean closed forms at a periodic centre (q = {q}) need a symmetric "
            f"matrix (b == c), got {T.entries}; the adapted metric has no such limit"
        )
    if q >= 1:
        mass = multiplicity_mass(T, q, metric)
        if not abs(mass - 1.0) <= 1e-9:  # a nan mass fails too
            raise ValueError(f"multiplicity law sums to {mass}, not 1")
    return ExtremalModel(T, q, metric, theta)
