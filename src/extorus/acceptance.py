"""The acceptance gate: every exit criterion with its stated tolerance.

Eight criteria cover exact formula identities, Monte Carlo oracle
equivalence of every closed-form area, the backward-separation property,
the three dichotomy experiments (non-periodic, periodic Euclidean,
periodic adapted), the window-counting law, and engineering guarantees
(worker-count invariance, exact-orbit inversion, runtime budget).

Statistical bands are finite-sample engineering choices evaluated at
fixed seeds, so the suite is deterministic. Criterion 2 contains one
deliberately faithful check that is expected to fail: the configured
nested-set tail bound lam**(-kappa*q) * s**2 is exceeded by the exact
intersection area 4 * s**2 * atan(lam**(-kappa*q)) for every kappa (the
covering rectangle has sides 2s by 2*lam**(-kappa*q)*s, so the provable
constant is 4). The check is reported as failed rather than silently
corrected; see the manifest detail text.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .formulas import (
    area_A_q,
    ball_measure,
    extremal_index,
    multiplicity_mass,
    multiplicity_pi,
    nested_area_U,
    polya_aeppli_pmf,
    strip_area_Q,
)
from .regions import RegionKind, RegionSpec, monte_carlo_measure, separation_check
from .simulate import (
    ExperimentConfig,
    chi_square_vs_pmf,
    estimate_run,
    experiment_workers,
    repp_counts,
    run_experiment,
)
from .torus import (
    MODULUS,
    Ball,
    MetricKind,
    ToralAutomorphism,
    TorusPoint,
    orbit_blocks,
    process_pool,
    resolve_workers,
)

CAT = (2, 1, 1, 1)
_SEED = 20260810
_ORACLE_SAMPLES = 10_000_000  # per region of criterion 2
_SEPARATION_SAMPLES = 1_000_000  # criterion 3
_TRIALS = 10_000  # criteria 4-7
_RATIO_SAMPLES = 1_000_000  # per measure of criterion 5's ratio estimator
_FIXED_POINT = (Fraction(0), Fraction(0))  # the centre of criteria 3 and 5-7


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool | None  # None means skipped
    runtime_s: float
    measured: dict
    detail: str

    def line(self) -> str:
        tag = "SKIP" if self.passed is None else ("PASS" if self.passed else "FAIL")
        return f"[{tag}] criterion {self.cid}: {self.name} ({self.runtime_s:.1f}s)"


def run_environment() -> dict:
    """What a run ran on: the Python and NumPy versions and the machine's core count."""
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu_count": os.cpu_count()}


@dataclass
class RunManifest:
    """A run's record. workers is the most processes a pool of the run may start:
    simulate's one pool, or the count that validate's pool is given, which its
    calls share (a call with fewer jobs than that starts a smaller pool of its own)."""

    config: dict
    version: str
    wall_time_s: float
    workers: int
    criteria: list[CriterionResult] = field(default_factory=list)
    environment: dict = field(default_factory=run_environment)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.criteria if c.passed is not None)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.criteria if c.passed is False]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_NAMES: dict[int, str] = {}  # criterion id -> name, filled in by @_criterion


def _criterion(cid: int, name: str):
    """Register criterion `cid` as `name`; the decorated body is timed into its result.

    The body returns (passed, measured, detail).
    """
    _NAMES[cid] = name

    def decorate(body):
        @functools.wraps(body)
        def timed(*args, **kwargs) -> CriterionResult:
            start = time.perf_counter()
            passed, measured, detail = body(*args, **kwargs)
            return CriterionResult(
                cid, name, bool(passed), time.perf_counter() - start, measured, detail
            )

        return timed

    return decorate


@_criterion(1, "formula-identities")
def criterion_1_formula_identities():
    """Exact identities among the closed forms (sub-second)."""
    measured: dict = {}
    ok = True

    # the Euclidean forms evaluate the printed law at |lam|, also for the non-symmetric 3,2,1,1
    automorphisms = [ToralAutomorphism(*m) for m in (CAT, (1, 1, 1, 2), (3, 2, 1, 1), (5, 2, 2, 1))]

    # extremal index equals the escape-area fraction of the ball
    worst = 0.0
    for T in automorphisms:
        for q in (1, 2, 3, 5):
            for s in (0.01, 0.003):
                theta = extremal_index(T, q, MetricKind.EUCLIDEAN)
                ratio = area_A_q(s, T, q) / ball_measure(s, MetricKind.EUCLIDEAN)
                worst = max(worst, abs(theta - ratio))
    measured["ei_area_identity_max_err"] = worst
    ok &= worst <= 1e-12

    # multiplicity laws sum to one (geometric tail completion)
    worst = 0.0
    for T in automorphisms[:2]:
        for q in (1, 2):
            for metric in (MetricKind.EUCLIDEAN, MetricKind.ADAPTED):
                worst = max(worst, abs(multiplicity_mass(T, q, metric) - 1.0))
    measured["multiplicity_mass_max_err"] = worst
    ok &= worst <= 1e-9

    # tail ratio approaches lam**-q
    worst = 0.0
    for T in automorphisms[:2]:
        for q in (1, 2):
            r = multiplicity_pi(T, q, 21, MetricKind.EUCLIDEAN) / multiplicity_pi(
                T, q, 20, MetricKind.EUCLIDEAN
            )
            worst = max(worst, abs(r - T.lam_abs**-q))
    measured["tail_ratio_max_err"] = worst
    ok &= worst <= 1e-3

    # the extremal index approaches 1 as the period grows
    worst = 0.0
    for T in automorphisms:
        for metric in (MetricKind.EUCLIDEAN, MetricKind.ADAPTED):
            worst = max(worst, abs(extremal_index(T, 50, metric) - 1.0))
    measured["ei_limit_q50_max_err"] = worst
    ok &= worst <= 1e-9

    # counting pmf is a probability law with mean t
    worst_sum, worst_mean = 0.0, 0.0
    for theta in (0.3, 0.6, 0.9, 1.0):
        for t in (2.0, 3.0):
            kmax = 40 + int(10 * t / theta)
            probs = [polya_aeppli_pmf(theta, t, k) for k in range(kmax)]
            worst_sum = max(worst_sum, abs(math.fsum(probs) - 1.0))
            mean = math.fsum(k * p for k, p in enumerate(probs))
            worst_mean = max(worst_mean, abs(mean - t))
    measured["pa_sum_max_err"] = worst_sum
    measured["pa_mean_max_err"] = worst_mean
    ok &= worst_sum <= 1e-9 and worst_mean <= 1e-6

    return ok, measured, "exact identities among extremal index, escape area, strip laws, counting pmf"


@_criterion(2, "oracle-equivalence")
def criterion_2_oracle_equivalence(workers: int = 1):
    """Monte Carlo area oracle versus every closed form at s = 0.01."""
    T = ToralAutomorphism(*CAT)
    s, q = 0.01, 1
    ball = Ball(T, TorusPoint(0.0, 0.0), s, MetricKind.EUCLIDEAN)
    measured: dict = {"samples": _ORACLE_SAMPLES}

    regions: list[tuple[str, RegionSpec, float]] = [
        ("A_q1", RegionSpec(ball, RegionKind.A_Q, q=q), area_A_q(s, T, q))
    ]
    for kappa in range(0, 4):
        region = RegionSpec(ball, RegionKind.Q_KAPPA, q=q, kappa=kappa)
        regions.append((f"Q_{kappa}", region, strip_area_Q(s, T, q, kappa)))
    for kappa in range(1, 4):
        region = RegionSpec(ball, RegionKind.U_KAPPA, q=q, kappa=kappa)
        regions.append((f"U_{kappa}", region, nested_area_U(s, T, q, kappa)))

    equal_ok = True
    tail_ok = True
    for i, (name, region, closed) in enumerate(regions):
        est, se = monte_carlo_measure(region, _ORACLE_SAMPLES, _SEED + i, workers)
        measured[f"mc_{name}"] = est
        measured[f"se_{name}"] = se
        measured[f"closed_{name}"] = closed
        equal_ok &= abs(est - closed) <= 3.0 * se
        if region.kind is RegionKind.U_KAPPA:
            bound = T.lam_abs ** (-region.kappa * q) * s * s
            measured[f"tail_bound_{name}"] = bound
            tail_ok &= est <= bound + 3.0 * se

    measured["oracle_equivalence_ok"] = bool(equal_ok)
    measured["tail_bound_ok"] = bool(tail_ok)
    detail = (
        "oracle vs closed forms within 3 SE"
        if tail_ok
        else (
            "oracle matches closed forms, but the configured nested-set tail bound "
            "lam^(-kq) s^2 is exceeded by the exact area 4 s^2 atan(lam^(-kq)); the "
            "covering rectangle has sides 2s x 2 lam^(-kq) s, so the provable "
            "constant is 4. Reported honestly as a failure."
        )
    )
    return equal_ok and tail_ok, measured, detail


@_criterion(3, "separation-property")
def criterion_3_separation():
    """No sampled escape-region point returns within the wrap window."""
    cfg = ExperimentConfig(matrix=CAT, zeta=_FIXED_POINT, n=100_000, tau=1.0)
    separated = separation_check(cfg, samples=_SEPARATION_SAMPLES, seed=_SEED)
    measured = {"samples": _SEPARATION_SAMPLES, "separated": bool(separated)}
    return separated, measured, "backward images of the escape region avoid it for j = 1..q*g(n)"


_SIZES = ("q", "theta_formula", "chi2", "chi2_p_value", "chi2_dof")  # the size law of criteria 5 and 6


def _dichotomy_run(metric: MetricKind, keys: tuple, workers: int | None, ratio_samples=0, zeta=_FIXED_POINT):
    """Every estimate_run estimate of a dichotomy run at zeta, and the measured values:
    the block maxima, the cluster index and keys, each of which must have run."""
    cfg = ExperimentConfig(matrix=CAT, zeta=zeta, metric=metric, tau=1.0, n=100_000, trials=_TRIALS, seed=_SEED)
    est = estimate_run(cfg, run_experiment(cfg, workers), ratio_samples, _SEED + 17)
    measured = {key: est[key] for key in ("trials", "p_hat", "p_se", "p_target", "theta_hat_clusters", *keys)}
    if any(isinstance(value, str) for value in measured.values()):
        raise ValueError(f"a criterion's estimate was skipped: {measured}")
    return est, measured


def _sizes_ok(measured: dict) -> bool:
    """The cluster index within 0.04 of theta and the size law not rejected at 1 %."""
    theta_ok = abs(measured["theta_hat_clusters"] - measured["theta_formula"]) <= 0.04
    return theta_ok and measured["chi2_p_value"] >= 0.01


@_criterion(4, "dichotomy-nonperiodic")
def criterion_4_nonperiodic(workers: int | None = None):
    """Dichotomy at a non-periodic centre: unit extremal index statistics."""
    zeta = (Fraction(math.sqrt(2.0) - 1.0), Fraction(math.sqrt(3.0) - 1.0))
    est, measured = _dichotomy_run(MetricKind.EUCLIDEAN, ("ks_stat", "ks_p_value"), workers, zeta=zeta)
    measured["multiplicity_mass_at_1"] = est["size_histogram"].get(1, 0.0)
    ok = (
        abs(measured["p_hat"] - measured["p_target"]) <= 0.03
        and 0.93 <= measured["theta_hat_clusters"] <= 1.0
        and measured["ks_p_value"] > 0.01
        and measured["multiplicity_mass_at_1"] >= 0.95
    )
    return ok, measured, "block maxima, cluster index, gap law, multiplicity at a generic centre"


@_criterion(5, "dichotomy-periodic-euclidean")
def criterion_5_periodic_euclidean(workers: int | None = None):
    """Dichotomy at the fixed point, Euclidean metric."""
    _, measured = _dichotomy_run(MetricKind.EUCLIDEAN, (*_SIZES, "theta_hat_ratio"), workers, _RATIO_SAMPLES)
    ok = (
        _sizes_ok(measured)
        and abs(measured["p_hat"] - measured["p_target"]) <= 0.03
        and abs(measured["theta_hat_ratio"] - measured["theta_formula"]) <= 0.04
    )
    return ok, measured, "both extremal-index estimators and the cluster-size law at the fixed point"


@_criterion(6, "dichotomy-periodic-adapted")
def criterion_6_periodic_adapted(workers: int | None = None):
    """Dichotomy at the fixed point, adapted metric: geometric sizes."""
    _, measured = _dichotomy_run(MetricKind.ADAPTED, _SIZES, workers)
    return _sizes_ok(measured), measured, "cluster index and geometric size law in the eigenbasis sup metric"


@_criterion(7, "repp-counting-law")
def criterion_7_repp_counts(workers: int | None = None):
    """Window counting law at the fixed point, adapted metric, t = 2."""
    t = 2.0
    cfg = ExperimentConfig(
        matrix=CAT,
        zeta=_FIXED_POINT,
        metric=MetricKind.ADAPTED,
        tau=t,  # whole orbit = one window of length t in Kac time
        n=20_000,
        trials=_TRIALS,
        seed=_SEED + 7,
    )
    theta = cfg.model.theta
    records = run_experiment(cfg, workers)
    horizon = int(round(cfg.v_n * t))
    counts = repp_counts(records, horizon)
    chi, chi_p, dof = chi_square_vs_pmf(counts, lambda k: polya_aeppli_pmf(theta, t, k), 0, 14)
    pa = np.array([polya_aeppli_pmf(theta, t, k) for k in range(15)])
    pa_vs_generic = float(np.max(np.abs(cfg.model.pmf_vector(t, 14) - pa)))

    measured = {
        "trials": cfg.trials,
        "t": t,
        "theta": theta,
        "mean_count": float(np.mean(counts)),
        "chi2": chi,
        "chi2_p_value": chi_p,
        "chi2_dof": dof,
        "pa_vs_convolution_max_err": pa_vs_generic,
    }
    ok = chi_p >= 0.01 and pa_vs_generic <= 1e-9
    return ok, measured, "window counts match the geometric-multiplicity counting pmf"


@_criterion(8, "engineering")
def criterion_8_engineering(suite_start: float, workers: int | None = None):
    """Worker invariance, exact inversion, runtime budget.

    suite_start is the time.perf_counter() reading at the start of the suite.
    """
    cfg = ExperimentConfig(
        matrix=CAT,
        zeta=(Fraction(1, 2), Fraction(1, 2)),
        metric=MetricKind.EUCLIDEAN,
        tau=1.0,
        n=2000,
        trials=2 * 1024 + 100,  # spans three chunks
        seed=_SEED + 11,
    )
    # the N-worker run's pool: at least 2, at most one per core and per chunk
    many = experiment_workers(cfg, max(2, resolve_workers(workers)))
    checks = "forward/backward exactness, 30 min budget"
    if many >= 2:
        workers_ok = run_experiment(cfg, workers=1) == run_experiment(cfg, workers=many)
        detail = f"1-vs-N worker equality, {checks}"
    else:
        workers_ok = None  # not run: it would compare a serial run with a serial run
        detail = f"1-vs-N worker check not run, one core makes both runs serial; {checks}"

    T = cfg.automorphism
    rng = np.random.default_rng(_SEED)
    px = rng.integers(0, MODULUS, 10_000)
    py = rng.integers(0, MODULUS, 10_000)
    _, fwd = orbit_blocks(px, py, T, 1)
    _, back = orbit_blocks(fwd.x[0], fwd.y[0], T, 1, -1)
    inverse_ok = np.array_equal(back.x[0], px) and np.array_equal(back.y[0], py)

    total = time.perf_counter() - suite_start
    measured = {
        "workers_identical": workers_ok,
        "parallel_workers": many,
        "inverse_identity_ok": bool(inverse_ok),
        "suite_wall_time_s": total,
    }
    ok = workers_ok is not False and inverse_ok and total <= 1800.0
    return ok, measured, detail


def run_acceptance(quick: bool = False, workers: int | None = None) -> RunManifest:
    """Run the acceptance suite, printing each criterion's line, and return the manifest.

    quick runs the formula and oracle criteria only (1-3) and marks the
    long-simulation criteria as skipped. Every call of the run that asks
    for `workers` processes shares one pool, joined before this returns.
    """
    workers = resolve_workers(workers)
    t0 = time.perf_counter()
    criteria: list[CriterionResult] = []

    def emit(result: CriterionResult) -> None:
        criteria.append(result)
        print(result.line())

    with process_pool(workers):
        emit(criterion_1_formula_identities())
        emit(criterion_2_oracle_equivalence(workers))
        emit(criterion_3_separation())
        if quick:
            for cid in range(4, 9):
                emit(CriterionResult(cid, _NAMES[cid], None, 0.0, {}, "skipped (--quick)"))
        else:
            emit(criterion_4_nonperiodic(workers))
            emit(criterion_5_periodic_euclidean(workers))
            emit(criterion_6_periodic_adapted(workers))
            emit(criterion_7_repp_counts(workers))
            emit(criterion_8_engineering(t0, workers))
    return RunManifest(
        config={"quick": quick, "workers": workers, "base_seed": _SEED, "matrix": list(CAT)},
        version=__version__,
        wall_time_s=time.perf_counter() - t0,
        workers=workers,
        criteria=criteria,
    )
