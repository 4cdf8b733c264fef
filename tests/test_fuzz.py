"""The input contract, fuzzed: each public entry point returns its documented type or refuses by name.

A call takes one argument from a pool of awkward values (an int beyond
the doubles, signed zeros, nan and the infinities, subnormals, NumPy
scalars, bools, a Fraction, a Decimal, a string, None) in place of a
valid one. It must return its documented type, a Python float where it
returns a number and never a NumPy scalar, or raise an ExtorusError or a
ValueError whose message names the argument. The law's theta is
extremal_index's, bit for bit. Each CLI subcommand, given one awkward
flag value, exits 0, 1 or 2 and raises nothing.

Out of the pools, because it asks for unbounded work rather than gives a
bad value: a valid count beyond the doubles for validate's --workers
(which runs the whole suite). The oracle's sample counts (samples,
ratio_samples, --mc-samples) stop at 2^53 and the multiplicity rows
(k_max, --kmax) at formulas.MAX_K, so they take such a count too.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from extorus import (
    Ball,
    Clusters,
    ExperimentConfig,
    ExtorusError,
    ExtremalModel,
    MeasureEstimate,
    MetricKind,
    RegionKind,
    Records,
    RegionSpec,
    ToralAutomorphism,
    TorusPoint,
    area_A_q,
    ball_measure,
    chi_square_vs_pmf,
    compute_period,
    decluster_all,
    ei_measure_ratio,
    empirical_extremal_index,
    empirical_multiplicity,
    estimate_block_maxima_cdf,
    estimate_run,
    extremal_index,
    gap_ks_statistic,
    monte_carlo_measure,
    multiplicity_pi,
    nested_area_U,
    polya_aeppli_pmf,
    repp_counts,
    run_experiment,
    separation_check,
    strip_area_Q,
    threshold_radius,
    threshold_u_n,
    wrap_time_g,
)
from extorus.cli import main
from extorus.formulas import multiplicity_mass
from extorus.simulate import pooled_gaps

from _reference import records_of

CAT = ToralAutomorphism(2, 1, 1, 1)
EUCLID, ADAPTED = MetricKind.EUCLIDEAN, MetricKind.ADAPTED
MODEL = ExtremalModel(CAT, 1, EUCLID)
BALL = Ball(CAT, TorusPoint(0.0, 0.0), 0.01, EUCLID)
RECORDS = records_of([((5, 6, 7, 500), (9.0,) * 4, 9.0), ((3,), (9.0,), 9.0)])
# 30 clusters of one trial, 29 gaps: enough for the gap KS test
CLUSTERS = Clusters(np.zeros(30, np.int64), np.ones(30, np.int64), np.linspace(0.0, 0.9, 30) ** 2, 1)
SIZES = (0,) * 37 + (1,) * 37 + (2,) * 18 + (3,) * 6 + (4,) * 2
AWKWARD = [
    10**400, -(10**400), 0, -1, 3, 0.0, -0.0, 0.5, math.nan, math.inf, -math.inf, 5e-324, 2.0**-1030,
    np.float32(0.01), np.float32(math.nan), np.float64(2.5), np.int8(3), np.uint64(7), True, False,
    Fraction(1, 3), Decimal("0.5"), "1", "", None, EUCLID, CAT,
]
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def one_wrong(valid: dict) -> st.SearchStrategy:
    """(name, arguments): the valid arguments with the argument `name` drawn from AWKWARD."""
    return st.tuples(st.sampled_from(sorted(valid)), st.sampled_from(AWKWARD)).map(
        lambda pair: (pair[0], {**valid, pair[0]: pair[1]})
    )


def poisson_pmf(k: int) -> float:
    return math.exp(-1.0) / math.factorial(k)


def holds(call, name: str, returns: type | tuple[type, ...]):
    """The contract on call(): a result of type `returns` (or of one of them), an ExtorusError, or a
    ValueError naming `name`."""
    try:
        result = call()
    except ExtorusError:
        return None
    except ValueError as exc:
        assert re.search(rf"(^|\W){re.escape(name)}\b", str(exc)), f"{name}: {exc}"
        return None
    assert type(result) in (returns if isinstance(returns, tuple) else (returns,)), (name, result)
    return result


# id: (the entry point, its valid arguments by name, the type it returns)
FORMS = {
    "extremal_index": (extremal_index, dict(T=CAT, q=1, metric=ADAPTED), float),
    "area_A_q": (area_A_q, dict(s=0.01, T=CAT, q=1), float),
    "strip_area_Q": (strip_area_Q, dict(s=0.01, T=CAT, q=1, kappa=2), float),
    "nested_area_U": (nested_area_U, dict(s=0.01, T=CAT, q=1, kappa=2), float),
    "multiplicity_pi": (multiplicity_pi, dict(T=CAT, q=1, kappa=2, metric=EUCLID), float),
    "multiplicity_mass": (multiplicity_mass, dict(T=CAT, q=2, metric=EUCLID), float),
    "wrap_time_g": (wrap_time_g, dict(n=1000, T=CAT, q=1, tau=1.0), int),
    "ExtremalModel": (ExtremalModel, dict(T=CAT, q=1, metric=ADAPTED), ExtremalModel),
    "ExtremalModel-euclidean": (ExtremalModel, dict(T=CAT, q=1, metric=EUCLID), ExtremalModel),
    "ball_measure": (ball_measure, dict(radius=0.01, metric=ADAPTED, basis_det=0.5), float),
    "threshold_u_n": (threshold_u_n, dict(n=1000, tau=1.0, metric=ADAPTED, basis_det=0.5), float),
    "threshold_radius": (threshold_radius, dict(n=1000, tau=1.0, metric=EUCLID, basis_det=0.5), float),
    "polya_aeppli_pmf": (polya_aeppli_pmf, dict(theta=0.5, t=2.0, k=3), float),
    "multiplicity_table": (MODEL.multiplicity_table, dict(k_max=3), list),
    "pmf_vector": (MODEL.pmf_vector, dict(t=2.0, k_max=3), np.ndarray),
    "Ball": (Ball, dict(T=CAT, centre=TorusPoint(0.5, 0.5), radius=0.01, metric=EUCLID), Ball),
    "TorusPoint": (TorusPoint, dict(x=0.5, y=0.25), TorusPoint),
    "RegionSpec": (RegionSpec, dict(ball=BALL, kind=RegionKind.U_KAPPA, q=1, kappa=1), RegionSpec),
    "monte_carlo_measure": (
        monte_carlo_measure,
        dict(region=RegionSpec(BALL, RegionKind.A_Q, q=1), samples=1000, seed=1, workers=1),
        MeasureEstimate,
    ),
    "separation_check": (separation_check, dict(cfg=ExperimentConfig(n=1000), samples=1000, seed=1), bool),
    "estimate_block_maxima_cdf": (
        estimate_block_maxima_cdf, dict(cfg=ExperimentConfig(n=1000, trials=2), records=RECORDS), tuple
    ),
    "run_experiment": (run_experiment, dict(cfg=ExperimentConfig(n=1000, trials=2), workers=1), Records),
    "ei_measure_ratio": (ei_measure_ratio, dict(cfg=ExperimentConfig(n=1000), samples=1000, seed=1), float),
    "decluster_all": (decluster_all, dict(records=RECORDS, run_gap=2, v_n=100.0), Clusters),
    "repp_counts": (repp_counts, dict(records=RECORDS, horizon_steps=6), np.ndarray),
    "empirical_extremal_index": (empirical_extremal_index, dict(clusters=CLUSTERS), float),
    "empirical_multiplicity": (empirical_multiplicity, dict(clusters=CLUSTERS), dict),
    "pooled_gaps": (pooled_gaps, dict(clusters=CLUSTERS, window_span=1.0), np.ndarray),
    "gap_ks_statistic": (gap_ks_statistic, dict(clusters=CLUSTERS, theta=0.5, window_span=1.0), tuple),
    # k_max above the pool's small counts: a k_min past k_max is refused as "k_max must be >= k_min"
    "chi_square_vs_pmf": (chi_square_vs_pmf, dict(values=SIZES, pmf=poisson_pmf, k_min=1, k_max=9), tuple),
    # the point (1, 2) / 5 has period 2 on the cat map; with a denominator past the doubles it has none below 25
    "compute_period": (
        compute_period, dict(zeta_num=(1, 2), zeta_den=5, T=CAT, max_period=25), (int, type(None))
    ),
}


@pytest.mark.parametrize("form", FORMS, ids=FORMS)
@SETTINGS
@given(data=st.data())
def test_each_form_returns_its_type_or_refuses_by_name(form, data):
    call, valid, returns = FORMS[form]
    name, args = data.draw(one_wrong(valid))
    result = holds(lambda: call(**args), "worker count" if name == "workers" else name, returns)
    if isinstance(result, ExtremalModel):
        assert type(result.theta) is float and type(result.q) is int
        assert result.theta.hex() == extremal_index(result.T, result.q, result.metric).hex()
    if isinstance(result, np.ndarray):
        assert result.dtype == (np.int64 if form == "repp_counts" else np.float64) and np.isfinite(result).all()
    if isinstance(result, tuple):
        assert all(type(value) in (float, int) for value in result)
    if isinstance(result, Ball):
        assert type(result.radius) is float
    if isinstance(result, TorusPoint):
        assert type(result.x) is float and type(result.y) is float
    if isinstance(result, RegionSpec):
        assert type(result.q) is int and type(result.kappa) is int
    if isinstance(result, MeasureEstimate):
        assert all(type(value) is float for value in result)


@SETTINGS
@given(name_args=one_wrong(dict(a=2, b=1, c=1, d=1)))
def test_the_automorphism_validates_its_entries(name_args):
    name, args = name_args
    T = holds(lambda: ToralAutomorphism(**args), "matrix entry", ToralAutomorphism)
    if T is not None:
        assert all(type(e) is int for e in T.entries) and abs(T.lam) > 1.0 and 0.0 < T.basis_det <= 1.0


@SETTINGS
@given(name_args=one_wrong(dict(matrix=(2, 1, 1, 1), zeta=(0, 0), metric=EUCLID, tau=1.0, n=1000, trials=2, seed=1)))
def test_the_config_validates_its_fields(name_args):
    name, args = name_args
    cfg = holds(lambda: ExperimentConfig(**args), name, ExperimentConfig)
    if cfg is not None:
        assert type(cfg.tau) is float and type(cfg.radius) is float and 0.0 < cfg.radius < 0.25
        assert cfg.ball.radius == cfg.radius and type(cfg.g_n) is int


@pytest.fixture(scope="module")
def run():
    cfg = ExperimentConfig(n=2000, trials=20, seed=3)
    return cfg, run_experiment(cfg, workers=1)


@SETTINGS
@given(data=st.data())
def test_estimate_run_checks_its_scalars(data, run):
    cfg, records = run
    name, args = data.draw(one_wrong(dict(cfg=cfg, ratio_samples=0, ratio_seed=1, gap_theta=0.5)))
    est = holds(lambda: estimate_run(records=records, **args), name, dict)
    if est is not None:
        assert type(est["ks_theta"]) is float


TEXTS = ["0", "-1", "1", "3", "0.5", "-0.0", "nan", "inf", "-inf", "5e-324", "1e400", str(10**400), "1/3",
         "True", "None", "", "abc", " 2 ", "0x10", "1_0"]


def cli(argv: list[str]) -> int:
    """The exit status of `extorus argv`, its output swallowed; an escaping exception fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse refuses a value that its type cannot parse
            return exc.code


@st.composite
def flag_value(draw, flags: list[str]) -> tuple[str, str]:
    flag = draw(st.sampled_from(flags))
    if flag in ("--matrix", "--zeta"):
        parts = draw(st.lists(st.sampled_from(TEXTS + ["2", "1", "1/2"]), min_size=1, max_size=5))
        return flag, ",".join(parts)
    texts = TEXTS + ["euclidean", "adapted", "EUCLIDEAN"] if flag == "--metric" else TEXTS
    return flag, draw(st.sampled_from(texts))


@SETTINGS
@given(flag_text=flag_value(["--matrix", "--zeta", "--metric", "--tau", "--n", "--q", "--kmax"]))
def test_theory_exits_cleanly(flag_text):
    flag, text = flag_text
    assert cli(["theory", "--n", "1000", "--json", f"{flag}={text}"]) in (0, 2)


@SETTINGS
@given(flag_text=flag_value(["--matrix", "--zeta", "--metric", "--tau", "--n", "--trials", "--seed", "--workers"]))
def test_simulate_exits_cleanly(flag_text, tmp_path_factory):
    flag, text = flag_text
    out = tmp_path_factory.mktemp("run")
    argv = ["simulate", "--n", "1000", "--trials", "2", "--workers", "1", "--out", str(out), f"{flag}={text}"]
    assert cli(argv) in (0, 2)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("estimate")
    assert cli(["simulate", "--n", "20000", "--trials", "50", "--seed", "3", "--workers", "1", "--out", str(out)]) == 0
    return out


@SETTINGS
@given(flag_text=flag_value(["--theta-override", "--mc-samples"]))
def test_estimate_exits_cleanly(flag_text, run_dir):
    flag, text = flag_text
    assert cli(["estimate", "--in", str(run_dir), "--out", str(run_dir / "m.tsv"), f"{flag}={text}"]) in (0, 2)


@SETTINGS
@given(text=st.sampled_from([t for t in TEXTS if t not in ("1", "3", " 2 ", "1_0", str(10**400))]))
def test_validate_refuses_a_bad_worker_count_before_it_runs(text, tmp_path_factory):
    out = tmp_path_factory.mktemp("validate") / "manifest.json"
    assert cli(["validate", "--quick", "--out", str(out), f"--workers={text}"]) == 2
    assert not out.exists()
