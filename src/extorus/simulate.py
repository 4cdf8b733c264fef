"""Monte Carlo orbit experiments and empirical extreme-value estimators.

An experiment is its run schema, the ExperimentConfig fields (matrix,
centre, metric, tau, n, trials, seed); the threshold, the period, the
declustering gap q g(n) and the closed-form law (cfg.model) are derived
from them. A trial draws a uniform random exact initial state on the
2**61 grid, iterates the torus map for n steps in modular integer
arithmetic, and records the times and observable values of every entry
into the threshold ball together with the block maximum of the
observable. Trials are bit-reproducible: the random stream of trial k is
keyed by (seed, k), so any partition of the trial range across workers
produces identical records.

Why x-first: the threshold ball is a rare set, of measure tau/n, but
the engine cannot know in advance which steps enter it. Every point of
the ball of radius R = 3 r max(1, 1/sqrt(tau)) lies in a strip of x of
half-width its x-extent (Ball.x_extent: R for the Euclidean disc,
R(|e_u[0]| + |e_s[0]|) for the adapted square), so the engine walks X
alone, tests the strip in integers, and computes Y and the distance key
only at the candidates. They are twice the half-width
of the (step, orbit) pairs: about 1 % at n = 1e5 for tau <= 1, where the
1/sqrt(tau) keeps R at three times the radius of a tau = 1 ball, and
about 12 % at a fixed point with the adapted metric, tau = 40 and
n = 5e4. The key is elementwise, so every hit and every block
maximum has the bits of the full walk. A trial's least key is exact once
it is below the key of R; the trials whose candidates never get there,
about e^(-9 theta max(tau, 1)) of them, are walked again with the strip
set to the whole torus.

On the records, kept as columns (Records), sit the estimators, each an
array pass: block-maxima CDF at the threshold, runs declustering at the
run gap, cluster-count extremal index, cluster-size histogram, Kac-time
gap KS statistic, window counts, and the oracle-backed measure-ratio
index. estimate_run chains them into the one set of estimates that the
estimate command prints and acceptance criteria 4-6 gate.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ExtorusError, NoExceedances, OutOfLocalRange, TooFewGaps
from .formulas import ExtremalModel, ball_measure, extremal_model, threshold_radius, threshold_u_n, wrap_time_g
from .regions import MIN_SAMPLES, escape_region, monte_carlo_measure
from .torus import (
    MODULUS,
    Ball,
    MetricKind,
    ToralAutomorphism,
    check_count,
    check_positive,
    compute_period,
    is_finite_real,
    keyed_rng,
    map_jobs,
    orbit_blocks,
    pool_size,
    rational_point,
    rational_residues,
)

_TRIAL_CHUNK = 1024
# The engine measures the points of an x-strip that holds the ball of
# radius R = _STRIP_FACTOR * r * max(1, 1/sqrt(tau)); see the module notes.
_STRIP_FACTOR = 3.0
_PERIOD_DEN_LIMIT = 1_000_000
_PERIOD_SEARCH_LIMIT = 1_000_000


def check_field(key: str, value):
    """`value` as ExperimentConfig stores field `key`; ValueError if invalid on its own (cli names the source)."""
    entries = tuple(value) if key in ("matrix", "zeta") and isinstance(value, Iterable) else ()
    if key == "matrix":
        if len(entries) != 4:
            raise ValueError(f"matrix must be four entries, got {value!r}")
        value = ToralAutomorphism(*entries).entries
    elif key in ("n", "trials", "seed"):
        value = check_count(key, value, None if key == "seed" else 1)
    elif key == "zeta":
        if len(entries) != 2 or not all(map(is_finite_real, entries)):
            raise ValueError(f"zeta must be two finite coordinates, none a bool, got {value!r}")
        # a float is the rational it holds; a NumPy float, which Fraction does not take, its float's
        value = tuple(Fraction(float(v) if isinstance(v, np.floating) else v) % 1 for v in entries)
    elif key == "tau":
        value = check_positive("tau", value)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation experiment.

    zeta is a pair of exact fractions; floats convert exactly, so a
    decimal centre is the rational point the double denotes. The period
    q is auto-detected for denominators up to 1e6 and taken as 0
    (effectively non-periodic) otherwise.
    """

    matrix: tuple[int, int, int, int] = (2, 1, 1, 1)
    zeta: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
    metric: MetricKind = MetricKind.EUCLIDEAN
    tau: float = 1.0
    n: int = 100_000
    trials: int = 1000
    seed: int = 1

    def __post_init__(self) -> None:
        for field in fields(self):
            object.__setattr__(self, field.name, check_field(field.name, getattr(self, field.name)))
        self.radius  # the one check of fields together: radius < 0.25

    @cached_property
    def automorphism(self) -> ToralAutomorphism:
        return ToralAutomorphism(*self.matrix)

    @cached_property
    def u_n(self) -> float:
        return threshold_u_n(self.n, self.tau, self.metric, self.automorphism.basis_det)

    @cached_property
    def radius(self) -> float:
        return threshold_radius(self.n, self.tau, self.metric, self.automorphism.basis_det)

    @cached_property
    def ball(self) -> Ball:
        """The threshold ball around zeta."""
        return Ball(self.automorphism, rational_point(self.zeta), self.radius, self.metric)

    @property
    def v_n(self) -> float:
        """Kac rescaling, the reciprocal ball measure at the threshold radius: n / tau, as u_n inverts it."""
        return self.n / self.tau

    @cached_property
    def q(self) -> int:
        """Detected period of zeta (0 when none found within the cap)."""
        nums, den = rational_residues(self.zeta)
        if den > _PERIOD_DEN_LIMIT:
            return 0
        cap = min(den * den, _PERIOD_SEARCH_LIMIT)
        return compute_period(nums, den, self.automorphism, cap) or 0

    @cached_property
    def g_n(self) -> int:
        return wrap_time_g(self.n, self.automorphism, self.q, self.tau)

    @cached_property
    def run_gap(self) -> int:
        """Declustering gap: q*g(n) for periodic centres, g(n) otherwise, and at least 1."""
        return max(self.q * self.g_n if self.q >= 1 else self.g_n, 1)

    @cached_property
    def model(self) -> ExtremalModel:
        """The closed-form law at zeta's period. Lazy: at q >= 1 the Euclidean
        law refuses a non-symmetric matrix, which simulate still runs."""
        return extremal_model(self.automorphism, self.q, self.metric)


class TrialRecord(NamedTuple):
    """Exceedance times/values and the block maximum of one orbit, as views of a Records."""

    trial_id: int
    exceedance_times: np.ndarray
    exceedance_values: np.ndarray
    block_maximum: float


class ClusterSummary(NamedTuple):
    """Declustered view of one trial, in Kac time units (steps / v_n), as views of a Clusters."""

    cluster_sizes: np.ndarray
    cluster_times: np.ndarray


class _ByTrial:
    """Rows sorted by their trial column; self[k] views the rows of trial k in 0..len(self)-1.

    Iteration goes through __getitem__ up to its IndexError. Two values are
    equal when their columns are (so they are not hashable).
    """

    def __getitem__(self, k: int):
        k = range(len(self))[k]  # negative k counts from the end; IndexError past it
        return self._view(k, slice(*self._bounds[k : k + 2]))

    @cached_property
    def _bounds(self) -> list[int]:
        return np.searchsorted(self.trial, np.arange(len(self) + 1)).tolist()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class Records(_ByTrial):
    """An experiment's exceedances as columns sorted by (trial, time), and each trial's block maximum."""

    trial: np.ndarray
    time: np.ndarray
    value: np.ndarray
    maxima: np.ndarray

    def __len__(self) -> int:
        return len(self.maxima)

    def _view(self, k: int, rows: slice) -> TrialRecord:
        return TrialRecord(k, self.time[rows], self.value[rows], float(self.maxima[k]))


@dataclass(frozen=True, eq=False)
class Clusters(_ByTrial):
    """Declustered records as columns, a row per cluster; time is its first step over v_n."""

    trial: np.ndarray
    size: np.ndarray
    time: np.ndarray
    trials: int

    def __len__(self) -> int:
        return self.trials

    def _view(self, k: int, rows: slice) -> ClusterSummary:
        return ClusterSummary(self.size[rows], self.time[rows])


def _initial_states(cfg: ExperimentConfig, trial_ids) -> list[tuple[int, int]]:
    """Trial k's start: the low 61 bits of raw outputs 0 and 2 of keyed_rng(seed, k).

    Each coordinate is the residue of 16 random bytes read little-endian,
    as Generator.bytes(16) hands them out: two raw outputs, low half
    first, of which the residue keeps the first output's low 61 bits.
    """
    mask = MODULUS - 1
    states = []
    for tid in trial_ids:
        raw = keyed_rng(cfg.seed, int(tid)).bit_generator.random_raw(3).tolist()
        states.append((raw[0] & mask, raw[2] & mask))
    return states


def _strip(cfg: ExperimentConfig) -> tuple[int, int, float]:
    """The x-strip the engine tests: (lo, span, key of its ball radius R).

    Every residue point whose key is below that of R has
    ((X - lo) & mask) < span, with R = _STRIP_FACTOR * r * max(1, 1/sqrt(tau)).
    The strip's half-width is the x-extent of that ball, widened by far
    more than the rounding of the keys and of lo; a strip half as wide as
    the torus is the whole torus.
    """
    wide = replace(cfg.ball, radius=_STRIP_FACTOR * cfg.radius * max(1.0, 1.0 / math.sqrt(cfg.tau)))
    half = wide.x_extent * (1.0 + 2.0**-20) + 2.0**-40
    span = math.ceil(2.0 * min(half, 0.5) * MODULUS) + 1
    if span >= MODULUS:
        return 0, MODULUS, wide.key_radius
    return math.floor((wide.centre.x - half) * MODULUS) % MODULUS, span, wide.key_radius


def _in_strip(x: np.ndarray, lo: int, span: int) -> np.ndarray:
    """((x - lo) & (MODULUS - 1)) < span for residues x, in two array passes, not three."""
    if lo + span <= MODULUS:
        return (x - lo).view(np.uint64) < span
    # the strip wraps through 0: x is in it unless it lies in the gap [hi, lo)
    hi = lo + span - MODULUS
    return (x - hi).view(np.uint64) >= lo - hi


def _walk_candidates(
    cfg: ExperimentConfig, px: np.ndarray, py: np.ndarray, lo: int, span: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Walk the orbits from (px, py) and measure only the points in the x-strip.

    Returns the hits (orbit index, time and key of every point inside the
    threshold ball, time-major) and each orbit's least key over the
    strip's points (inf if it never enters the strip).
    """
    ball = cfg.ball
    key_radius = ball.key_radius
    width = px.size
    best = np.full(width, np.inf)
    ids, times, keys = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    start = 0
    for block in orbit_blocks(px, py, ball.T, cfg.n - 1):
        pos = _in_strip(block.x, lo, span).ravel().nonzero()[0]
        rows = pos // width
        cols = pos - rows * width
        key = ball.key(block.x.ravel()[pos], block.y_at(rows, cols))
        np.minimum.at(best, cols, key)
        hit = key < key_radius
        if hit.any():
            ids.append(cols[hit])
            times.append(rows[hit] + start)
            keys.append(key[hit])
        start += len(block.x)
    return np.concatenate(ids), np.concatenate(times), np.concatenate(keys), best


def _simulate_chunk(cfg: ExperimentConfig, trial_ids: list[int]) -> Records:
    """Orbits for a batch of trials (trial k is trial_ids[k]), measured only in the x-strip."""
    initial_states = _initial_states(cfg, trial_ids)
    px = np.array([s[0] for s in initial_states], dtype=np.int64)
    py = np.array([s[1] for s in initial_states], dtype=np.int64)

    lo, span, strip_key = _strip(cfg)
    ids, times, keys, best = _walk_candidates(cfg, px, py, lo, span)
    fallback = np.flatnonzero(best >= strip_key)
    if fallback.size:
        # their hits are all found already: hits lie below the key of r <= R
        best[fallback] = _walk_candidates(cfg, px[fallback], py[fallback], 0, MODULUS)[3]

    # a stable sort by trial keeps each trial's hits in time order
    order = np.argsort(ids, kind="stable")
    observable = cfg.ball.observable
    return Records(ids[order], times[order], observable(keys[order]), observable(best))


def _chunk_job(args: tuple) -> Records:
    cfg, ids = args
    return _simulate_chunk(cfg, ids)


def experiment_workers(cfg: ExperimentConfig, workers: int | None = None) -> int:
    """The processes run_experiment(cfg, workers) runs on: one per chunk of trials at most."""
    return pool_size(workers, -(-cfg.trials // _TRIAL_CHUNK))


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> Records:
    """The records of all trials.

    Records are a pure function of (cfg, trial_id); the worker count
    only changes how chunks are scheduled.
    """
    ids = list(range(cfg.trials))
    starts = range(0, len(ids), _TRIAL_CHUNK)
    parts = map_jobs(_chunk_job, [(cfg, ids[i : i + _TRIAL_CHUNK]) for i in starts], workers)
    return Records(
        np.concatenate([part.trial + i for part, i in zip(parts, starts)]),
        np.concatenate([part.time for part in parts]),
        np.concatenate([part.value for part in parts]),
        np.concatenate([part.maxima for part in parts]),
    )


def estimate_block_maxima_cdf(cfg: ExperimentConfig, records: Records) -> tuple[float, float]:
    """Fraction of trials whose block maximum stays at or below u_n, and its standard error."""
    p = int(np.count_nonzero(records.maxima <= cfg.u_n)) / len(records)
    return p, math.sqrt(p * (1.0 - p) / len(records))


def decluster_all(records: Records, run_gap: int, v_n: float) -> Clusters:
    """Runs declustering: exceedances of one trial within run_gap raw steps share a cluster.

    A cluster's time is its first exceedance time divided by v_n.
    """
    check_count("run_gap", run_gap, 1)
    v_n = check_positive("v_n", v_n)
    trial, time = records.trial, records.time
    first = np.ones(trial.size, dtype=bool)
    first[1:] = (np.diff(time) > run_gap) | (trial[1:] != trial[:-1])
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=trial.size)
    return Clusters(trial[starts], sizes, time[starts] / v_n, len(records))


def empirical_extremal_index(clusters: Clusters) -> float:
    """Pooled clusters over pooled exceedances; the reciprocal mean cluster size."""
    exceedances = int(clusters.size.sum())
    if exceedances == 0:
        raise NoExceedances("no exceedances across the supplied summaries")
    return clusters.size.size / exceedances


def empirical_multiplicity(clusters: Clusters) -> dict[int, float]:
    """Normalised histogram of cluster sizes."""
    total = clusters.size.size
    if total == 0:
        raise NoExceedances("no clusters across the supplied summaries")
    counts = np.bincount(clusters.size).tolist()
    return {k: c / total for k, c in enumerate(counts) if c}


def pooled_gaps(clusters: Clusters, window_span: float) -> np.ndarray:
    """Inter-cluster gaps pooled across trials.

    Trials are glued end to end on the Kac timeline (trial i offset
    by i * window_span) and gaps are taken on the glued stream, which
    keeps the gap law exponential across trial boundaries.
    """
    window_span = check_positive("window_span", window_span)
    return np.diff(clusters.time + clusters.trial * window_span)


def gap_ks_statistic(clusters: Clusters, theta: float, window_span: float) -> tuple[float, float]:
    """KS distance of pooled gaps (see pooled_gaps) against Exponential(rate=theta).

    The p-value uses the asymptotic Kolmogorov distribution; adequate
    for 1% decisions at twenty or more gaps.
    """
    theta = check_positive("theta", theta, 1)
    gaps = pooled_gaps(clusters, window_span)
    if gaps.size < 20:
        raise TooFewGaps(f"{gaps.size} gaps, need >= 20")
    x = np.sort(gaps)
    cdf = 1.0 - np.exp(-theta * x)
    n = x.size
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    ks = float(max(np.max(hi - cdf), np.max(cdf - lo)))
    return ks, _kolmogorov_sf(math.sqrt(n) * ks)


def _kolmogorov_sf(x: float) -> float:
    """Survival function of Kolmogorov's distribution, the limit law of sqrt(n) D_n.

    2 sum_k (-1)^(k-1) e^(-2 k^2 x^2) for x >= 1, and below 1 its Jacobi
    dual 1 - (sqrt(2 pi)/x) sum_k e^(-(2k-1)^2 pi^2/(8 x^2)). Past five
    terms, either series adds less than 1e-30 of its value.
    """
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * (x * x)) for k in range(1, 6))
    dual = math.fsum(math.exp(-(((2 * k - 1) * math.pi / x) ** 2) / 8.0) for k in range(1, 6))
    return 1.0 - math.sqrt(2.0 * math.pi) / x * dual


def repp_counts(records: Records, horizon_steps: int) -> np.ndarray:
    """Exceedance counts per trial within the first horizon_steps steps (none for a horizon <= 0)."""
    check_count("horizon_steps", horizon_steps)
    return np.bincount(records.trial[records.time < horizon_steps], minlength=len(records))


MIN_EXPECTED = 5.0  # least expected count of a chi-square bin


def chi_square_vs_pmf(values, pmf, k_min: int, k_max: int) -> tuple[float, float, int]:
    """Chi-square GOF of observed integers against a pmf with a pooled tail.

    Bins are k_min..k_max individually plus one pooled bin for every
    other value, below k_min or above k_max, whose expectation is the
    pmf mass outside k_min..k_max. Bins with expectation under MIN_EXPECTED
    are merged into their left neighbour. Returns (statistic, p_value,
    degrees of freedom).
    """
    check_count("k_max", k_max, check_count("k_min", k_min, 0))
    data = np.asarray(values, dtype=np.int64)
    n = data.size
    if n == 0:
        raise ValueError("no observations")
    obs = [float(np.count_nonzero(data == k)) for k in range(k_min, k_max + 1)]
    obs.append(float(np.count_nonzero((data < k_min) | (data > k_max))))
    probs = [pmf(k) for k in range(k_min, k_max + 1)]
    probs.append(max(1.0 - math.fsum(probs), 0.0))
    exp = [p * n for p in probs]
    i = len(exp) - 1
    while i > 0:
        if exp[i] < MIN_EXPECTED:
            exp[i - 1] += exp[i]
            obs[i - 1] += obs[i]
            del exp[i], obs[i]
        i -= 1
    if len(exp) < 2:
        raise ValueError("too few bins with adequate expectation")
    stat = float(sum((o - e) ** 2 / e for o, e in zip(obs, exp)))
    dof = len(exp) - 1
    return stat, _chi2_sf(dof, stat), dof


def _chi2_sf(dof: int, x: float) -> float:
    """Survival function of the chi-square law with an integer dof >= 1.

    With h = x/2, a finite sum: e^-h sum_{j<m} h^j/j! for dof = 2m, and
    erfc(sqrt h) + e^-h sum_{j<m} h^(j+1/2)/Gamma(j+3/2) for dof = 2m+1.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0  # not e^-h times the sum, which is 0 * inf
    h = 0.5 * x
    m, odd = divmod(dof, 2)
    if odd:
        total, term, step = math.erfc(math.sqrt(h)), math.exp(-h) * math.sqrt(h) / math.gamma(1.5), 1.5
    else:
        total, term, step = 0.0, math.exp(-h), 1.0
    for j in range(m):
        total += term
        term *= h / (j + step)
    return total


def ei_measure_ratio(cfg: ExperimentConfig, samples: int, seed: int) -> float:
    """Extremal index as the ratio escape-region / ball measure.

    An independent path to theta: the oracle's measure of the escape
    region at the threshold radius over the exact ball area. By
    convention the ratio is 1 for q = 0, where the escape region is the
    ball itself.
    """
    if cfg.q == 0:
        return 1.0
    num = monte_carlo_measure(escape_region(cfg), samples, seed)
    return num.estimate / ball_measure(cfg.radius, cfg.metric, cfg.automorphism.basis_det)


def check_ratio_samples(name: str, value) -> int:
    """The measure ratio's sample count: 0 runs no ratio, any other is the oracle's, at least MIN_SAMPLES."""
    if check_count(name, value) != 0 and value < MIN_SAMPLES:
        raise ValueError(f"{name} must be 0 or >= {MIN_SAMPLES}, got {value}")
    return int(value)


def estimate_run(
    cfg: ExperimentConfig, records: Records, ratio_samples: int, ratio_seed: int, gap_theta: float | None = None
) -> dict:
    """Every estimate of a run's records, keyed as the criteria report them: sizes on bins 1..5, gaps
    glued at cfg.tau against Exp(gap_theta, theta by default), the measure ratio at q >= 1 if
    ratio_samples > 0, all scalars checked first. A step that cannot run holds its reason, as estimate
    prints it, in each entry."""
    ratio_samples = check_ratio_samples("ratio_samples", ratio_samples)
    check_count("ratio_seed", ratio_seed)
    gap_theta = None if gap_theta is None else check_positive("gap_theta", gap_theta, 1)
    clusters = decluster_all(records, cfg.run_gap, cfg.v_n)
    theta = cfg.model.theta
    p_hat, p_se = estimate_block_maxima_cdf(cfg, records)
    out = {
        "trials": len(records), "exceedances": records.time.size, "q": cfg.q, "theta_formula": theta,
        "p_hat": p_hat, "p_se": p_se, "p_target": math.exp(-theta * cfg.tau),
        "theta_hat_clusters": empirical_extremal_index(clusters),
        "size_histogram": empirical_multiplicity(clusters),
        "ks_theta": theta if gap_theta is None else gap_theta,
    }
    try:
        chi2 = chi_square_vs_pmf(clusters.size, cfg.model.multiplicity, 1, 5)
    except ValueError as exc:
        chi2 = (str(exc),) * 3
    out.update(zip(("chi2", "chi2_p_value", "chi2_dof"), chi2))
    try:
        ks = gap_ks_statistic(clusters, out["ks_theta"], window_span=cfg.tau)
    except ExtorusError as exc:
        ks = (str(exc),) * 2
    out.update(zip(("ks_stat", "ks_p_value"), ks))
    if cfg.q >= 1 and ratio_samples > 0:
        try:
            out["theta_hat_ratio"] = ei_measure_ratio(cfg, ratio_samples, ratio_seed)
        except OutOfLocalRange as exc:
            out["theta_hat_ratio"] = f"{type(exc).__name__}: {exc}"
    return out
