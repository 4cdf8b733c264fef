"""Acceptance gate: every exit criterion at its stated tolerance.

The full suite runs once per test session (several minutes of orbit
simulation) and each criterion is asserted from the shared manifest,
printing one pass/fail line per criterion as it completes.

Criterion 2 carries one deliberately faithful sub-check that cannot
pass: the configured nested-set tail bound lam^(-kq) s^2 is exceeded by
the exact intersection area 4 s^2 atan(lam^(-kq)) for every kappa. It is
kept as stated, reported as failed in the manifest, and marked
strict-xfail here; the oracle-equivalence half of the criterion is
asserted separately.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import multiprocessing
import os
import time
from unittest import mock

import pytest

from extorus import acceptance
from extorus.acceptance import RunManifest, run_acceptance
from extorus.torus import resolve_workers


POOL_SIZES: list[int] = []  # the size of each process pool the suite's run starts


class CountedPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers):
        POOL_SIZES.append(max_workers)
        super().__init__(max_workers)


@pytest.fixture(scope="module")
def manifest() -> RunManifest:
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", CountedPool):
        return run_acceptance(quick=False, workers=None)


@pytest.fixture(scope="module")
def by_id(manifest):
    return {c.cid: c for c in manifest.criteria}


def test_no_child_process_outlives_the_run(manifest):
    # the run's calls share one pool of each size, joined before the run returns
    assert multiprocessing.active_children() == []
    assert len(POOL_SIZES) == len(set(POOL_SIZES))
    assert POOL_SIZES[:1] == ([resolve_workers()] if resolve_workers() > 1 else [])


def test_criterion_1_formula_identities(by_id):
    c = by_id[1]
    assert c.measured["ei_area_identity_max_err"] <= 1e-12
    assert c.measured["multiplicity_mass_max_err"] <= 1e-9
    assert c.measured["tail_ratio_max_err"] <= 1e-3
    assert c.measured["ei_limit_q50_max_err"] <= 1e-9
    assert c.measured["pa_sum_max_err"] <= 1e-9
    assert c.measured["pa_mean_max_err"] <= 1e-6
    assert c.passed is True


def test_criterion_2_oracle_equivalence(by_id):
    # closed forms vs the Monte Carlo oracle within 3 standard errors
    assert by_id[2].measured["oracle_equivalence_ok"] is True


@pytest.mark.xfail(
    strict=True,
    reason="nested-set tail bound as configured omits the covering-rectangle factor 4; "
    "the exact area 4 s^2 atan(lam^(-kq)) exceeds lam^(-kq) s^2 for every kappa",
)
def test_criterion_2_nested_tail_bound(by_id):
    assert by_id[2].measured["tail_bound_ok"] is True


def test_criterion_2_failure_is_reported_honestly(by_id):
    # the criterion as a whole includes the unattainable bound and must
    # therefore be recorded as failed, not silently weakened
    assert by_id[2].passed is False


def test_criterion_3_separation(by_id):
    assert by_id[3].measured["separated"] is True
    assert by_id[3].passed is True


def test_criterion_4_nonperiodic_dichotomy(by_id):
    c = by_id[4]
    assert abs(c.measured["p_hat"] - math.exp(-1.0)) <= 0.03
    assert 0.93 <= c.measured["theta_hat_clusters"] <= 1.0
    assert c.measured["ks_p_value"] > 0.01
    assert c.measured["multiplicity_mass_at_1"] >= 0.95
    assert c.passed is True


def test_criterion_5_periodic_euclidean(by_id):
    c = by_id[5]
    theta = c.measured["theta_formula"]
    assert abs(c.measured["p_hat"] - math.exp(-theta)) <= 0.03
    assert abs(c.measured["theta_hat_clusters"] - theta) <= 0.04
    assert abs(c.measured["theta_hat_ratio"] - theta) <= 0.04
    assert c.measured["chi2_p_value"] >= 0.01
    assert c.passed is True


def test_criterion_5_estimators_are_mutually_consistent(by_id):
    # -log(p_hat)/tau and the cluster estimator target the same theta
    c = by_id[5]
    implied = -math.log(c.measured["p_hat"])
    assert abs(implied - c.measured["theta_hat_clusters"]) <= 0.05


def test_criterion_6_periodic_adapted(by_id):
    c = by_id[6]
    assert abs(c.measured["theta_hat_clusters"] - c.measured["theta_formula"]) <= 0.04
    assert c.measured["chi2_p_value"] >= 0.01
    assert c.passed is True


def test_criterion_7_repp_counting_law(by_id):
    c = by_id[7]
    assert c.measured["chi2_p_value"] >= 0.01
    assert c.measured["pa_vs_convolution_max_err"] <= 1e-9
    assert c.passed is True


# Criteria 4-7 as measured before the records became columns. Counts and
# the estimators keep their bits (float.hex); the scipy p-values and the
# values through exp, log or the closed forms agree to 1e-12 relative.
# pa_vs_convolution_max_err, a rounding residue gated at 1e-9, is not pinned.
MEASURED_4_TO_7 = {
    4: {
        "ks_p_value": "0x1.3ee077fb587cdp-2",
        "ks_stat": "0x1.3c2713f7008e0p-7",
        "multiplicity_mass_at_1": "0x1.0000000000000p+0",
        "p_hat": "0x1.7b15b573eab36p-2",
        "p_se": "0x1.3c722628f343fp-8",
        "p_target": "0x1.78b56362cef38p-2",
        "theta_hat_clusters": "0x1.0000000000000p+0",
        "trials": 10000,
    },
    5: {
        "chi2": "0x1.4b4bff79d350bp+1",
        "chi2_dof": 5,
        "chi2_p_value": "0x1.86bb6cf3d72e4p-1",
        "p_hat": "0x1.2c154c985f06fp-1",
        "p_se": "0x1.42c8fd8c7bf00p-8",
        "p_target": "0x1.2bbb00e7e8d70p-1",
        "q": 1,
        "theta_formula": "0x1.122550cc9a903p-1",
        "theta_hat_clusters": "0x1.10cdffe586b23p-1",
        "theta_hat_ratio": "0x1.11c886162f167p-1",
        "trials": 10000,
    },
    6: {
        "chi2": "0x1.2109344ae58aap+2",
        "chi2_dof": 5,
        "chi2_p_value": "0x1.e92f98a0268c6p-2",
        "p_hat": "0x1.158e219652bd4p-1",
        "p_se": "0x1.468430a562c20p-8",
        "p_target": "0x1.13f836497c648p-1",
        "q": 1,
        "theta_formula": "0x1.3c6ef372fe950p-1",
        "theta_hat_clusters": "0x1.3b520ff0a1949p-1",
        "trials": 10000,
    },
    7: {
        "chi2": "0x1.1c2c9d2e25ca4p+4",
        "chi2_dof": 14,
        "chi2_p_value": "0x1.be3c914c1a20ap-3",
        "mean_count": "0x1.f9a6b50b0f27cp+0",
        "t": "0x1.0000000000000p+1",
        "theta": "0x1.3c6ef372fe950p-1",
        "trials": 10000,
    },
}
NEAR = ["chi2", "chi2_p_value", "ks_p_value", "ks_stat", "p_target", "theta", "theta_formula"]


def test_criteria_4_to_7_keep_their_measured_values(by_id):
    for cid, pinned in MEASURED_4_TO_7.items():
        measured = {key: by_id[cid].measured[key] for key in pinned}
        exact = {k: v.hex() if isinstance(v, float) else v for k, v in measured.items() if k not in NEAR}
        assert exact == {k: v for k, v in pinned.items() if k not in NEAR}, cid
        for key in NEAR:
            if key in pinned:
                expected = float.fromhex(pinned[key])
                assert measured[key] == pytest.approx(expected, rel=1e-12, abs=0), (cid, key)


def test_criterion_8_engineering(by_id):
    c = by_id[8]
    assert c.measured["workers_identical"] is True
    # the N-worker run's pool: at least 2 asked for, capped at the cores and the 3 chunks
    assert c.measured["parallel_workers"] == min(max(2, resolve_workers()), os.cpu_count() or 1, 3)
    assert c.measured["inverse_identity_ok"] is True
    assert c.measured["suite_wall_time_s"] <= 1800.0
    assert c.passed is True


def test_criterion_8_on_one_core_says_worker_check_did_not_run(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    c = acceptance.criterion_8_engineering(time.perf_counter())
    assert c.measured["workers_identical"] is None
    assert c.measured["parallel_workers"] == 1
    assert c.detail.startswith("1-vs-N worker check not run, one core")
    assert set(c.measured) == MANIFEST_SHAPE[8][2]
    assert c.passed is True  # on the inverse and budget checks alone


REGIONS = ("A_q1", "Q_0", "Q_1", "Q_2", "Q_3", "U_1", "U_2", "U_3")
DICHOTOMY = {"trials", "p_hat", "p_se", "p_target", "theta_hat_clusters"}
CHI2 = {"chi2", "chi2_dof", "chi2_p_value"}
# cid: (name, detail, measured keys)
MANIFEST_SHAPE = {
    1: (
        "formula-identities",
        "exact identities among extremal index, escape area, strip laws, counting pmf",
        {"ei_area_identity_max_err", "ei_limit_q50_max_err", "multiplicity_mass_max_err",
         "pa_mean_max_err", "pa_sum_max_err", "tail_ratio_max_err"},
    ),
    2: (
        "oracle-equivalence",
        "oracle matches closed forms, but the configured nested-set tail bound lam^(-kq) s^2 "
        "is exceeded by the exact area 4 s^2 atan(lam^(-kq)); the covering rectangle has "
        "sides 2s x 2 lam^(-kq) s, so the provable constant is 4. Reported honestly as a "
        "failure.",
        {f"{kind}_{r}" for kind in ("mc", "se", "closed") for r in REGIONS}
        | {f"tail_bound_U_{k}" for k in (1, 2, 3)}
        | {"samples", "oracle_equivalence_ok", "tail_bound_ok"},
    ),
    3: (
        "separation-property",
        "backward images of the escape region avoid it for j = 1..q*g(n)",
        {"samples", "separated"},
    ),
    4: (
        "dichotomy-nonperiodic",
        "block maxima, cluster index, gap law, multiplicity at a generic centre",
        DICHOTOMY | {"ks_stat", "ks_p_value", "multiplicity_mass_at_1"},
    ),
    5: (
        "dichotomy-periodic-euclidean",
        "both extremal-index estimators and the cluster-size law at the fixed point",
        DICHOTOMY | CHI2 | {"q", "theta_formula", "theta_hat_ratio"},
    ),
    6: (
        "dichotomy-periodic-adapted",
        "cluster index and geometric size law in the eigenbasis sup metric",
        DICHOTOMY | CHI2 | {"q", "theta_formula"},
    ),
    7: (
        "repp-counting-law",
        "window counts match the geometric-multiplicity counting pmf",
        CHI2 | {"trials", "t", "theta", "mean_count", "pa_vs_convolution_max_err"},
    ),
    8: (
        "engineering",
        "1-vs-N worker equality, forward/backward exactness, 30 min budget",
        {"workers_identical", "parallel_workers", "inverse_identity_ok", "suite_wall_time_s"},
    ),
}


def test_manifest_shape(manifest):
    shape = {c.cid: (c.name, c.detail, set(c.measured)) for c in manifest.criteria}
    assert shape == MANIFEST_SHAPE


def test_manifest_lists_every_criterion_once(manifest):
    assert [c.cid for c in manifest.criteria] == list(range(1, 9))


def test_manifest_round_trips_losslessly(manifest):
    assert json.loads(manifest.to_json()) == manifest.to_dict()
