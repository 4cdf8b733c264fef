"""Closed-form extreme-value quantities for hyperbolic torus maps.

Each closed form has its one evaluation here, and the other modules call
it. The cluster laws are pure functions of (|lam|, q, metric); the
thresholds are functions of (n, tau, metric, basis_det). extremal_model
takes the automorphism itself and is the one gate to the law: it refuses
the Euclidean forms at a periodic centre for a non-symmetric matrix,
where |lam| alone does not fix them. Every form refuses arguments
outside its domain (s, |lam|, the integers q and kappa) through
_check_law, with a ValueError that names the argument. Geometry
conventions, with s the ball radius and lam the dominant eigenvalue:

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
from .torus import MetricKind, ToralAutomorphism, check_count, check_positive

_TAIL_TOL = 1e-15
_MASS_TERMS = 4000  # multiplicity_mass sums at most this many terms before its tail


def ball_measure(radius: float, metric: MetricKind, basis_det: float = 1.0) -> float:
    """Lebesgue measure of a metric ball of the given radius."""
    if metric is MetricKind.EUCLIDEAN:
        return math.pi * radius * radius
    return 4.0 * radius * radius * basis_det


def _check_law(
    lam_abs: float, q: int, *, q_min: int = 1, s: float | None = None, kappa: int | None = None, kappa_min: int = 0
) -> None:
    """Refuse a closed form's arguments outside its domain with a ValueError naming the first one.

    lam_abs must be finite and exceed 1, and q an integer at least q_min
    (0 where q = 0 means a non-periodic centre); s, where given, finite and
    positive, and kappa, where given, an integer at least kappa_min.
    """
    if not (math.isfinite(lam_abs) and lam_abs > 1.0):
        raise ValueError(f"lam_abs must be finite and exceed 1, got {lam_abs}")
    check_count("q", q, q_min)
    if s is not None:
        check_positive("s", s)
    if kappa is not None:
        check_count("kappa", kappa, kappa_min)


def threshold_u_n(n: int, tau: float, metric: MetricKind, basis_det: float = 1.0) -> float:
    """Threshold for orbit length n: inverts the ball measure at tau/n.

    u = (1/2) log(n m(B_1) / tau), with m(B_1) the measure of the unit
    ball. Raises ValueError for an n that is not an int >= 1, a tau that
    is not finite and positive, or basis_det outside (0, 1]; RadiusTooLarge
    when exp(-u) >= 0.25.
    """
    check_count("n", n, 1)
    check_positive("tau", tau)
    if not (0.0 < basis_det <= 1.0):
        raise ValueError("basis_det must lie in (0, 1]")
    u = 0.5 * math.log(ball_measure(1.0, metric, basis_det) * n / tau)
    if math.exp(-u) >= 0.25:
        raise RadiusTooLarge(f"threshold radius {math.exp(-u):.4g} >= 0.25 at n={n}, tau={tau}")
    return u


def threshold_radius(n: int, tau: float, metric: MetricKind, basis_det: float = 1.0) -> float:
    """exp(-u_n), the exceedance ball radius; see threshold_u_n."""
    return math.exp(-threshold_u_n(n, tau, metric, basis_det))


def _power(lam_abs: float, p: float) -> float:
    """lam_abs**p saturating at +inf instead of raising OverflowError."""
    try:
        return lam_abs**p
    except OverflowError:
        return math.inf


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


def extremal_index(lam_abs: float, q: int, metric: MetricKind) -> float:
    """Extremal index theta in (0, 1].

    q = 0 encodes a non-periodic centre and gives 1 for both metrics.
    For q >= 1 the Euclidean value is (2/pi) times the angular gap of
    the escape region; the adapted value is 1 - lam_abs**(-q).
    """
    _check_law(lam_abs, q, q_min=0)
    if q == 0:
        return 1.0
    if metric is MetricKind.EUCLIDEAN:
        return (2.0 / math.pi) * _strip_gap(lam_abs, q, 0)
    return 1.0 - lam_abs ** (-q)


def area_A_q(s: float, lam_abs: float, q: int) -> float:
    """Area of the escape region of a Euclidean ball of radius s.

    Points in the ball whose first q images leave it; the region between
    the ball and its thin preimage ellipse.
    """
    _check_law(lam_abs, q, s=s)
    return 2.0 * s * s * _asin_gap(lam_abs, q)


def strip_area_Q(s: float, lam_abs: float, q: int, kappa: int) -> float:
    """Area of the strip of ball points returning exactly kappa times.

    kappa = 0 is the escape region itself; for kappa >= 1 the area is
    the difference of the angular-gap closed form at indices kappa+1 and
    kappa, times 2 s^2.
    """
    _check_law(lam_abs, q, s=s, kappa=kappa)
    if kappa == 0:
        return area_A_q(s, lam_abs, q)
    return 2.0 * s * s * _strip_gap(lam_abs, q, kappa)


def nested_area_U(s: float, lam_abs: float, q: int, kappa: int) -> float:
    """Area of the nested set of ball points returning at least kappa times.

    Complement of the first kappa strips inside the ball: pi s^2 minus
    the partial strip sum.
    """
    _check_law(lam_abs, q, s=s, kappa=kappa)
    total = ball_measure(s, MetricKind.EUCLIDEAN)
    for j in range(kappa):
        total -= strip_area_Q(s, lam_abs, q, j)
    return total


def multiplicity_pi(lam_abs: float, q: int, kappa: int, metric: MetricKind) -> float:
    """Cluster-size probability pi(kappa), kappa >= 1.

    Adapted metric: geometric with parameter theta = extremal_index.
    Euclidean metric: the strip area ratio (Q^(kappa-1) - Q^kappa) / Q^0,
    from the stable gaps; it equals the paper's four-arcsin grouping,
    which cancels below the double noise floor once lam^(kappa q) grows.
    """
    _check_law(lam_abs, q, kappa=kappa, kappa_min=1)
    if metric is MetricKind.ADAPTED:
        theta = extremal_index(lam_abs, q, metric)
        return theta * (1.0 - theta) ** (kappa - 1)
    gap = _strip_gap(lam_abs, q, kappa - 1) - _strip_gap(lam_abs, q, kappa)
    return gap / _strip_gap(lam_abs, q, 0)


def multiplicity_mass(lam_abs: float, q: int, metric: MetricKind) -> float:
    """Sum of pi(kappa) up to an adaptive cutoff plus a geometric tail bound.

    The tail ratio tends to lam_abs**(-q), so once terms are below the
    working tolerance the remainder is summed as a geometric series.
    """
    ratio = lam_abs ** (-q)
    total = 0.0
    last = 0.0
    for kappa in range(1, _MASS_TERMS + 1):
        last = multiplicity_pi(lam_abs, q, kappa, metric)
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
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    check_positive("t", t)
    if check_count("k", k, 0) > 170:
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


def wrap_time_g(n: int, lam_abs: float, q: int, tau: float = 1.0) -> int:
    """Number of q-fold backward steps before preimages wrap the torus.

    q = 0: floor((log n - log pi) / (2 log lam)).
    q >= 1: floor((log n + log(lam^(2q)+1) - 2 log(2 lam^q sqrt(tau/pi)))
    / (2 q log lam)), evaluated in a cancellation-free rearrangement so
    large q cannot overflow. Clamped at 0: a negative value would index
    an empty sum. Raises ValueError, as threshold_u_n does, for an n that
    is not an int >= 1 or a tau that is not finite and positive, whatever q.
    """
    check_count("n", n, 1)
    check_positive("tau", tau)
    _check_law(lam_abs, q, q_min=0)
    log_lam = math.log(lam_abs)
    if q == 0:
        value = (math.log(n) - math.log(math.pi)) / (2.0 * log_lam)
    else:
        # log(lam^{2q}+1) - 2q log lam = log1p(lam^{-2q})
        numer = math.log(n) + math.log1p(lam_abs ** (-2 * q)) - math.log(4.0 * tau / math.pi)
        value = numer / (2.0 * q * log_lam)
    return max(0, math.floor(value))


@dataclass(frozen=True)
class ExtremalModel:
    """Extremal index plus cluster-size law for one (lam, q, metric)."""

    lam_abs: float
    q: int
    metric: MetricKind
    theta: float

    def multiplicity(self, kappa: int) -> float:
        _check_law(self.lam_abs, self.q, q_min=0, kappa=kappa, kappa_min=1)
        if self.q == 0:
            return 1.0 if kappa == 1 else 0.0
        return multiplicity_pi(self.lam_abs, self.q, kappa, self.metric)

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
        check_positive("t", t)
        k_max = check_count("k_max", k_max, 0)
        rate = self.theta * t
        weights = np.arange(1, k_max + 1) * np.array(self.multiplicity_table(k_max))  # j pi(j)
        out = np.zeros(k_max + 1)
        out[0] = math.exp(-rate)
        for k in range(1, k_max + 1):
            out[k] = rate / k * math.fsum(weights[:k] * out[k - 1 :: -1])
        return out


def extremal_model(T: ToralAutomorphism, q: int, metric: MetricKind) -> ExtremalModel:
    """The closed-form law for (T, q, metric), refused where it is known to be wrong.

    The Euclidean forms take |lam| alone. At a periodic centre the disc's
    overlap with its images depends on the singular values of A^q, which
    equal |lam|^q only when the matrix is symmetric, so the Euclidean
    metric at q >= 1 needs b == c. Also checks theta in (0, 1] and, for
    q >= 1, that the multiplicity law sums to 1 within 1e-9 (adaptive
    cutoff plus geometric tail).
    """
    q = check_count("q", q, 0)
    if metric is MetricKind.EUCLIDEAN and q >= 1 and T.b != T.c:
        raise ValueError(
            f"the Euclidean closed forms at a periodic centre (q = {q}) need a symmetric "
            f"matrix (b == c), got {T.entries}; the adapted metric has no such limit"
        )
    lam_abs = T.lam_abs
    theta = extremal_index(lam_abs, q, metric)
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta = {theta} out of (0, 1]")
    if q >= 1:
        mass = multiplicity_mass(lam_abs, q, metric)
        if not abs(mass - 1.0) <= 1e-9:  # a nan mass fails too
            raise ValueError(f"multiplicity law sums to {mass}, not 1")
    return ExtremalModel(lam_abs, q, metric, theta)
