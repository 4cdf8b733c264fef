"""The one count rule, torus.check_count, at every entry point that takes a count.

A count is a Python int or a NumPy integer, never a bool, and never below
its entry point's minimum. Each refusal is a ValueError that names the
argument. A NumPy integer gives what the equal int gives, and a config or
a region stores it as an int.
"""

from __future__ import annotations

import contextlib
import io
import math
import re

import numpy as np
import pytest

from _reference import records_of
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
    decluster_all,
    extremal_index,
    extremal_model,
    monte_carlo_measure,
    multiplicity_pi,
    polya_aeppli_pmf,
    repp_counts,
    strip_area_Q,
    threshold_u_n,
    wrap_time_g,
)
from extorus.cli import build_parser
from extorus.regions import separation_check
from extorus.torus import resolve_workers

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
