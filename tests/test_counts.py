"""The input rules of torus, each written once and called at every entry point it guards.

A count (check_count) is a Python int or a NumPy integer, never a bool,
and never below its entry point's minimum; a random stream's seed is one.
A NumPy integer gives what the equal int gives, and a config or a region
stores it as an int. A metric (check_metric) is a MetricKind, and theta
or basis_det lies in (0, 1] (check_positive with its maximum). Each
refusal is a ValueError that names the argument.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
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
    build_automorphism,
    chi_square_vs_pmf,
    ball_measure,
    decluster_all,
    ei_measure_ratio,
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
from extorus.torus import keyed_rng, resolve_workers

CAT = build_automorphism(2, 1, 1, 1)
LAM = CAT.lam_abs
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
    "build_automorphism": ("matrix entry", lambda v: build_automorphism(2, 1, 1, v), 1, None),
    "config-matrix": ("matrix entry", lambda v: ExperimentConfig(n=1000, matrix=(2, 1, 1, v)), 1, None),
    "config-n": ("n", lambda v: ExperimentConfig(n=v), 1000, 1),
    "config-trials": ("trials", lambda v: ExperimentConfig(n=1000, trials=v), 10, 1),
    "config-seed": ("seed", lambda v: ExperimentConfig(n=1000, seed=v), 7, None),
    "resolve_workers": ("worker count", resolve_workers, 1, 1),
    "extremal_index-q": ("q", lambda v: extremal_index(LAM, v, EUCLID), 1, 0),
    "strip_area_Q-kappa": ("kappa", lambda v: strip_area_Q(0.01, LAM, 1, v), 1, 0),
    "multiplicity_pi-kappa": ("kappa", lambda v: multiplicity_pi(LAM, 1, v, ADAPTED), 2, 1),
    "extremal_model-q": ("q", lambda v: extremal_model(CAT, v, ADAPTED), 2, 0),
    "threshold_u_n-n": ("n", lambda v: threshold_u_n(v, 1.0, EUCLID), 1000, 1),
    "wrap_time_g-n": ("n", lambda v: wrap_time_g(v, LAM, 1), 1000, 1),
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
    "extremal_index": lambda m: extremal_index(LAM, 1, m),
    "extremal_index-q0": lambda m: extremal_index(LAM, 0, m),
    "multiplicity_pi": lambda m: multiplicity_pi(LAM, 1, 2, m),
    "multiplicity_mass": lambda m: multiplicity_mass(LAM, 1, m),
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


# each rule's message, which only the rule itself may write
RULE_MESSAGES = ("must be an int", "must be >= ", "must be finite and positive", "must lie in (0, {", "must be a MetricKind")


def test_each_input_rule_is_written_once():
    sources = sorted(Path(extorus.__file__).parent.glob("*.py"))
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    for message in RULE_MESSAGES:
        assert sum(message in line for line in lines) == 1, message
    # the (0, 1] test is check_positive(name, value, 1); RegionSpec's (0, 0.25) radius is another rule
    assert not [line for line in lines if re.search(r"\b0(\.0)? < .+ <= 1(\.0)?\b", line)]
