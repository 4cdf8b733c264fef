"""The input rules of torus, each written once and called at every entry point it guards.

A count (check_count) is a Python int or a NumPy integer, never a bool,
and never below its entry point's minimum; a random stream's seed is one.
A NumPy integer gives what the equal int gives, and a config or a region
stores it as an int. A metric (check_metric) is a MetricKind, and theta
or basis_det lies in (0, 1] (check_positive with its maximum). A real
(check_positive) is a finite number and not a bool, never a string or
None, and a centre is two of them; a TorusPoint's two are reals in
[0, 1). A ball's centre is a TorusPoint. Each refusal is a ValueError
that names the argument.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from _reference import records_of
import extorus
from extorus import (
    Ball,
    ExperimentConfig,
    MetricKind,
    RegionKind,
    RegionSpec,
    ToralAutomorphism,
    TorusPoint,
    area_A_q,
    chi_square_vs_pmf,
    ball_measure,
    decluster_all,
    ei_measure_ratio,
    estimate_run,
    extremal_index,
    extremal_model,
    gap_ks_statistic,
    monte_carlo_measure,
    multiplicity_pi,
    polya_aeppli_pmf,
    repp_counts,
    strip_area_Q,
    threshold_radius,
    threshold_u_n,
    wrap_time_g,
)
from extorus.cli import build_parser
from extorus.formulas import multiplicity_mass
from extorus.regions import separation_check
from extorus.torus import check_positive, is_finite_real, keyed_rng, resolve_workers

CAT = ToralAutomorphism(2, 1, 1, 1)
EUCLID, ADAPTED = MetricKind.EUCLIDEAN, MetricKind.ADAPTED
BALL = Ball(CAT, TorusPoint(0.0, 0.0), 0.01, EUCLID)
ESCAPE = RegionSpec(BALL, RegionKind.A_Q, q=1)
RECORDS = records_of([((5, 6, 7, 500), (9.0,) * 4, 9.0), ((3,), (9.0,), 9.0)])
SIZES = (0,) * 37 + (1,) * 37 + (2,) * 18 + (3,) * 6 + (4,) * 2


def poisson_pmf(k: int) -> float:
    return math.exp(-1.0) / math.factorial(k)


def theory(**flags) -> str:
    """The JSON that `extorus theory --json --n 1000` prints, with flags set on its parsed arguments."""
    args = build_parser().parse_args(["theory", "--json", "--n", "1000"])
    vars(args).update(flags)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert args.func(args) == 0
    return out.getvalue()


# id: (the name in the message, the entry point as a function of the count, a valid count, its minimum)
ENTRY_POINTS = {
    "ToralAutomorphism": ("matrix entry", lambda v: ToralAutomorphism(2, 1, 1, v), 1, None),
    "config-matrix": ("matrix entry", lambda v: ExperimentConfig(n=1000, matrix=(2, 1, 1, v)), 1, None),
    "config-n": ("n", lambda v: ExperimentConfig(n=v), 1000, 1),
    "config-trials": ("trials", lambda v: ExperimentConfig(n=1000, trials=v), 10, 1),
    "config-seed": ("seed", lambda v: ExperimentConfig(n=1000, seed=v), 7, None),
    "resolve_workers": ("worker count", resolve_workers, 1, 1),
    "extremal_index-q": ("q", lambda v: extremal_index(CAT, v, EUCLID), 1, 0),
    "strip_area_Q-kappa": ("kappa", lambda v: strip_area_Q(0.01, CAT, 1, v), 1, 0),
    "multiplicity_pi-kappa": ("kappa", lambda v: multiplicity_pi(CAT, 1, v, ADAPTED), 2, 1),
    "extremal_model-q": ("q", lambda v: extremal_model(CAT, v, ADAPTED), 2, 0),
    "threshold_u_n-n": ("n", lambda v: threshold_u_n(v, 1.0, EUCLID), 1000, 1),
    "wrap_time_g-n": ("n", lambda v: wrap_time_g(v, CAT, 1), 1000, 1),
    "polya_aeppli_pmf-k": ("k", lambda v: polya_aeppli_pmf(0.6, 3.0, v), 3, 0),
    "multiplicity_table-k_max": ("k_max", lambda v: extremal_model(CAT, 1, ADAPTED).multiplicity_table(v), 3, 0),
    "pmf_vector-k_max": ("k_max", lambda v: extremal_model(CAT, 1, ADAPTED).pmf_vector(3.0, v), 3, 0),
    "region-q": ("q", lambda v: RegionSpec(BALL, RegionKind.A_Q, q=v), 1, 1),
    "region-kappa": ("kappa", lambda v: RegionSpec(BALL, RegionKind.U_KAPPA, q=1, kappa=v), 1, 0),
    "monte_carlo_measure": ("samples", lambda v: monte_carlo_measure(ESCAPE, v, 1), 1000, 1000),
    "separation_check": ("samples", lambda v: separation_check(ExperimentConfig(n=1000), v, 1), 1000, 1000),
    "decluster_all": ("run_gap", lambda v: decluster_all(RECORDS, v, 100.0), 2, 1),
    "repp_counts": ("horizon_steps", lambda v: repp_counts(RECORDS, v), 6, None),
    "chi_square_vs_pmf-k_min": ("k_min", lambda v: chi_square_vs_pmf(SIZES, poisson_pmf, v, 3), 1, 0),
    "chi_square_vs_pmf-k_max": ("k_max", lambda v: chi_square_vs_pmf(SIZES, poisson_pmf, 1, v), 3, 1),
    "theory-q": ("--q: q", lambda v: theory(q=v), 1, 0),
    "theory-kmax": ("--kmax: kmax", lambda v: theory(kmax=v), 3, 1),
    "keyed_rng-seed": ("seed", lambda v: keyed_rng(v, 3).random(4), 7, None),
    "monte_carlo_measure-seed": ("seed", lambda v: monte_carlo_measure(ESCAPE, 1000, v), 7, None),
    "separation_check-seed": ("seed", lambda v: separation_check(ExperimentConfig(n=1000), 1000, v), 7, None),
    "ei_measure_ratio-seed": ("seed", lambda v: ei_measure_ratio(ExperimentConfig(n=1000), 1000, v), 7, None),
}


def stored_counts(result) -> list:
    """The counts a matrix, a config, a region or a law keeps; none for any other result."""
    if isinstance(result, ToralAutomorphism):
        return list(result.entries)
    if isinstance(result, ExperimentConfig):
        return [*result.matrix, result.n, result.trials, result.seed]
    if isinstance(result, RegionSpec):
        return [result.q, result.kappa]
    return [result.q] if hasattr(result, "q") else []


@pytest.mark.parametrize("name, call, valid, minimum", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_one_count_rule(name, call, valid, minimum):
    # most entry points returned a number for True or 1.5, or failed late with a TypeError or an IndexError;
    # a NumPy integer was refused by the config and overflowed the oracle's random stream
    for value in (True, 1.5, "2"):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an int, got {re.escape(repr(value))}$"):
            call(value)
    if minimum is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= {minimum}, got {minimum - 1}$"):
            call(minimum - 1)
    expected, result = call(valid), call(np.int64(valid))
    assert np.array_equal(result, expected) if isinstance(result, np.ndarray) else result == expected
    assert all(type(count) is int for count in stored_counts(result))


def estimate(**flags) -> None:
    """`extorus estimate` on a directory with no records, with flags set on its parsed arguments."""
    args = build_parser().parse_args(["estimate", "--in", "no-such-records"])
    vars(args).update(flags)
    args.func(args)


# id: the entry point as a function of the metric
METRIC_ENTRY_POINTS = {
    "ball_measure": lambda m: ball_measure(0.01, m),
    "threshold_u_n": lambda m: threshold_u_n(1000, 1.0, m),
    "threshold_radius": lambda m: threshold_radius(1000, 1.0, m),
    "extremal_index": lambda m: extremal_index(CAT, 1, m),
    "extremal_index-q0": lambda m: extremal_index(CAT, 0, m),
    "multiplicity_pi": lambda m: multiplicity_pi(CAT, 1, 2, m),
    "multiplicity_mass": lambda m: multiplicity_mass(CAT, 1, m),
    "extremal_model": lambda m: extremal_model(CAT, 1, m),
}


@pytest.mark.parametrize("call", METRIC_ENTRY_POINTS.values(), ids=METRIC_ENTRY_POINTS.keys())
def test_one_metric_rule(call):
    for value in ("euclidean", None):
        with pytest.raises(ValueError, match=f"^metric must be a MetricKind, got {re.escape(repr(value))}$"):
            call(value)
    for metric in MetricKind:
        call(metric)


# id: (the name in the message, the entry point as a function of the value in (0, 1])
UNIT_ENTRY_POINTS = {
    "polya_aeppli_pmf-theta": ("theta", lambda v: polya_aeppli_pmf(v, 2.0, 1)),
    "gap_ks_statistic-theta": ("theta", lambda v: gap_ks_statistic(decluster_all(RECORDS, 2, 100.0), v, 1.0)),
    "estimate-theta_override": ("--theta-override: theta_override", lambda v: estimate(theta_override=v)),
    "threshold_u_n-basis_det": ("basis_det", lambda v: threshold_u_n(1000, 1.0, ADAPTED, v)),
    "threshold_radius-basis_det": ("basis_det", lambda v: threshold_radius(1000, 1.0, ADAPTED, v)),
}


@pytest.mark.parametrize("name, call", UNIT_ENTRY_POINTS.values(), ids=UNIT_ENTRY_POINTS.keys())
def test_one_unit_interval_rule(name, call):
    for value in (True, math.nan, 0, 1.5):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must lie in \\(0, 1\\], got {value}$"):
            call(value)


# id: (the call, its refusal); each raised a TypeError, an OverflowError or no error, none naming the argument
ZETA = "zeta must be two finite coordinates, none a bool, got "
MATRIX = "matrix must be four entries, got "
NOT_REAL = {
    "tau-str": (lambda: ExperimentConfig(n=1000, tau="2"), "tau must be finite and positive, got '2'"),
    "tau-none": (lambda: ExperimentConfig(n=1000, tau=None), "tau must be finite and positive, got None"),
    "theta-str": (lambda: polya_aeppli_pmf("0.5", 1.0, 1), "theta must lie in (0, 1], got '0.5'"),
    "radius-str": (lambda: Ball(CAT, BALL.centre, "0.1", EUCLID), "radius must be finite and positive, got '0.1'"),
    "basis_det-none": (lambda: threshold_u_n(1000, 1.0, EUCLID, None), "basis_det must lie in (0, 1], got None"),
    "zeta-none": (lambda: ExperimentConfig(n=1000, zeta=(None, 0)), ZETA + "(None, 0)"),
    "zeta-int": (lambda: ExperimentConfig(n=1000, zeta=5), ZETA + "5"),
    "zeta-inf": (lambda: ExperimentConfig(n=1000, zeta=(math.inf, 0)), ZETA + "(inf, 0)"),
    "zeta-nan": (lambda: ExperimentConfig(n=1000, zeta=(0, math.nan)), ZETA + "(0, nan)"),
    "zeta-str": (lambda: ExperimentConfig(n=1000, zeta="01"), ZETA + "'01'"),
    "matrix-three": (lambda: ExperimentConfig(n=1000, matrix=(2, 1, 1)), MATRIX + "(2, 1, 1)"),
    "matrix-int": (lambda: ExperimentConfig(n=1000, matrix=5), MATRIX + "5"),
}


@pytest.mark.parametrize("call, message", NOT_REAL.values(), ids=NOT_REAL.keys())
def test_values_that_are_not_numbers_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_exact_reals_are_finite_however_large():
    # an int or a Fraction beyond the doubles is finite, and an exact centre takes it; math.isfinite would
    # raise OverflowError on it
    assert ExperimentConfig(n=1000, zeta=(Fraction(10**400 + 1, 2), 10**400)).zeta == (Fraction(1, 2), 0)
    assert is_finite_real(10**400) and is_finite_real(Fraction(10**400, 3))


HUGE = repr(10**400)
# id: (the call, its refusal); each raised an OverflowError that named no argument
BEYOND_THE_DOUBLES = {
    "check_positive-fraction": (lambda: check_positive("s", Fraction(10**400, 3)), "s must be finite and positive, got "),
    "config-tau": (lambda: ExperimentConfig(n=1000, tau=10**400), "tau must be finite and positive, got " + HUGE),
    "config-n": (lambda: ExperimentConfig(n=10**400), "n must be finite and positive, got " + HUGE),
    "polya_aeppli_pmf-t": (lambda: polya_aeppli_pmf(0.5, 10**400, 3), "t must be finite and positive, got " + HUGE),
    "gap_ks_statistic-window_span": (
        lambda: gap_ks_statistic(decluster_all(RECORDS, 2, 100.0), 0.5, window_span=10**400),
        "window_span must be finite and positive, got " + HUGE,
    ),
    "matrix-entries": (lambda: ToralAutomorphism(10**400, 1, -1, 0), "matrix entry beyond the doubles' range, got "),
}


@pytest.mark.parametrize("call, message", BEYOND_THE_DOUBLES.values(), ids=BEYOND_THE_DOUBLES.keys())
def test_reals_beyond_the_doubles_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


COORDINATE = "torus coordinate {} must be a real in [0, 1), got "
# id: (the call, its refusal); a Ball built on a centre that was not a point, and raised an unnamed
# AttributeError at its first key; a coordinate that was not a number raised an unnamed TypeError
POINTS = {
    "centre-none": (lambda: Ball(CAT, None, 0.01, EUCLID), "centre must be a TorusPoint, got None"),
    "centre-tuple": (lambda: Ball(CAT, (0.5, 0.5), 0.01, EUCLID), "centre must be a TorusPoint, got (0.5, 0.5)"),
    "x-str": (lambda: TorusPoint("a", 0), COORDINATE.format("x") + "'a'"),
    "y-none": (lambda: TorusPoint(0.5, None), COORDINATE.format("y") + "None"),
    "y-nan": (lambda: TorusPoint(0.5, math.nan), COORDINATE.format("y") + "nan"),
    "x-bool": (lambda: TorusPoint(False, 0.5), COORDINATE.format("x") + "False"),
    "x-one": (lambda: TorusPoint(1.0, 0.5), COORDINATE.format("x") + "1.0"),
    "y-negative": (lambda: TorusPoint(0.5, -0.25), COORDINATE.format("y") + "-0.25"),
    "x-huge": (lambda: TorusPoint(10**400, 0.5), COORDINATE.format("x") + HUGE),
}


@pytest.mark.parametrize("call, message", POINTS.values(), ids=POINTS.keys())
def test_a_ball_takes_a_torus_point_of_two_reals_in_the_unit_square(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_torus_point_holds_python_floats():
    point = TorusPoint(Fraction(1, 2), np.float32(0.25))
    assert (point.x, point.y) == (0.5, 0.25) and type(point.x) is float and type(point.y) is float
    # a fraction just below 1 rounds to 1.0, which is the torus point 0.0
    assert TorusPoint(Fraction(2**60 - 1, 2**60), 0).x == 0.0


@pytest.mark.parametrize("value", [0.25, 1, Fraction(1, 4), np.float32(0.25), np.float64(0.25), np.int8(1)])
def test_a_positive_real_comes_back_as_a_python_float(value):
    # a Python float comes back as it is, so no computed bit moves
    got = check_positive("s", value)
    assert type(got) is float and got == float(value)
    # the forms compute on it: a NumPy float32 argument returned an np.float32
    assert type(polya_aeppli_pmf(0.5, value, 3)) is float
    s = value / 100
    assert type(area_A_q(s, CAT, 1)) is float and area_A_q(s, CAT, 1) == area_A_q(float(s), CAT, 1)


def test_a_numpy_float_centre_is_the_rational_it_holds():
    # Fraction refuses a NumPy float32 with an unnamed TypeError; its value is exact in a double
    cfg = ExperimentConfig(n=1000, zeta=(np.float32(0.1), np.float16(0.5)))
    assert cfg.zeta == (Fraction(float(np.float32(0.1))), Fraction(1, 2))


# id: (the call, its refusal); each returned a number or raised an unnamed TypeError
BALL_MEASURE = {
    "negative": (lambda: ball_measure(-1.0, EUCLID), "radius must be finite and positive, got -1.0"),
    "nan": (lambda: ball_measure(math.nan, EUCLID), "radius must be finite and positive, got nan"),
    "str": (lambda: ball_measure("0.1", ADAPTED), "radius must be finite and positive, got '0.1'"),
    "basis_det": (lambda: ball_measure(0.1, ADAPTED, 1.5), "basis_det must lie in (0, 1], got 1.5"),
}


@pytest.mark.parametrize("call, message", BALL_MEASURE.values(), ids=BALL_MEASURE.keys())
def test_ball_measure_checks_its_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("zeta, q", [((0, 0), 1), ((0.4142, 0.7321), 0)], ids=["periodic", "non-periodic"])
def test_estimate_run_checks_ratio_samples_at_every_q(zeta, q):
    # -5 ran no ratio, and 500 ran none at a q = 0 centre, where only the CLI refused it
    cfg = ExperimentConfig(n=1000, trials=2, zeta=zeta)
    assert cfg.q == q
    for value in (-5, 1, 500, 999):
        with pytest.raises(ValueError, match=f"^ratio_samples must be 0 or >= 1000, got {value}$"):
            estimate_run(cfg, RECORDS, value, 1)
    for value in (True, 1.5, None):
        with pytest.raises(ValueError, match="^ratio_samples must be an int, got "):
            estimate_run(cfg, RECORDS, value, 1)
    with pytest.raises(ValueError, match="^ratio_seed must be an int, got 1.5$"):
        estimate_run(cfg, RECORDS, 0, 1.5)
    with pytest.raises(ValueError, match=r"^gap_theta must lie in \(0, 1\], got 2$"):
        estimate_run(cfg, RECORDS, 0, 1, 2)
    assert "theta_hat_ratio" not in estimate_run(cfg, RECORDS, 0, 1)


# each rule's message, which only the rule itself may write
RULE_MESSAGES = (
    "must be an int",
    "must be >= ",
    "must be finite and positive",
    "must lie in (0, {",
    "must be a MetricKind",
    "must be a ToralAutomorphism",
    "must be a TorusPoint",
    "must be a real in [0, 1)",
    "must be a Ball,",
    "must be a RegionKind",
    "must be a RegionSpec",
    "must be an ExperimentConfig",
    "must be 0 or >= ",
)


def test_each_input_rule_is_written_once():
    sources = sorted(Path(extorus.__file__).parent.glob("*.py"))
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    for message in RULE_MESSAGES:
        assert sum(message in line for line in lines) == 1, message
    # the (0, 1] test is check_positive(name, value, 1); RegionSpec's (0, 0.25) radius is another rule
    assert not [line for line in lines if re.search(r"\b0(\.0)? < .+ <= 1(\.0)?\b", line)]
