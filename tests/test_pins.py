"""Bit pins of the oracle and engine outputs that the benchmark's digests leave out.

The benchmark digests the Euclidean cat-map oracle at the origin and a
few simulate runs. These pins cover the rest of the metric-ball code:
every region kind in both metrics on two matrices, the measure-ratio
estimator, the engine at a decimal centre and on a matrix with
negative entries, and the points that Ball.points samples.
Floats are compared as float.hex and record columns by sha256, so a
change that moves one bit fails here.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from fractions import Fraction

import numpy as np
import pytest

from extorus import (
    Ball,
    ExperimentConfig,
    MetricKind,
    RegionKind,
    RegionSpec,
    ToralAutomorphism,
    ei_measure_ratio,
    monte_carlo_measure,
    run_experiment,
)
from extorus.torus import TorusPoint

# (matrix, radius, centre of period 1, centre of period 2)
MATRICES = {
    "2,1,1,1": ((2, 1, 1, 1), 1e-3, (0.0, 0.0), (0.2, 0.4)),
    "3,1,2,1": ((3, 1, 2, 1), 1e-4, (0.0, 0.0), (0.0, 0.5)),
}


def oracle(matrix: str, metric: MetricKind, kind: RegionKind, q: int, kappa: int):
    """The oracle's (estimate, std_error) at 20k samples, around a centre of period max(q, 1)."""
    entries, radius, fixed, period_two = MATRICES[matrix]
    T = ToralAutomorphism(*entries)
    centre = TorusPoint(*(period_two if q == 2 else fixed))
    region = RegionSpec(Ball(T, centre, radius, metric), kind, q=q, kappa=kappa)
    seed = zlib.crc32(case_id(matrix, metric, kind, q, kappa).encode())
    return monte_carlo_measure(region, 20_000, seed)


def digest(records) -> str:
    h = hashlib.sha256()
    for column in (records.trial, records.time, records.value, records.maxima):
        h.update(column.tobytes())
    return h.hexdigest()


ORACLE_PINS = {
    "2,1,1,1-euclidean-ball-q0-k0": ("0x1.a5a84d380747ep-19", "0x0.0p+0"),
    "2,1,1,1-euclidean-a_q-q1-k0": ("0x1.c4fc903101104p-20", "0x1.7c95fad3c10f2p-27"),
    "2,1,1,1-euclidean-u_kappa-q1-k0": ("0x1.a5a84d380747ep-19", "0x0.0p+0"),
    "2,1,1,1-euclidean-u_kappa-q1-k1": ("0x1.86b5309d0790cp-20", "0x1.7c9c7dbfbe68fp-27"),
    "2,1,1,1-euclidean-u_kappa-q1-k2": ("0x1.3a634573e9937p-21", "0x1.293e790822f35p-27"),
    "2,1,1,1-euclidean-q_kappa-q1-k0": ("0x1.c588e40e14f03p-20", "0x1.7c8c6efc5fea1p-27"),
    "2,1,1,1-euclidean-q_kappa-q1-k1": ("0x1.ca5774b474754p-21", "0x1.538e00d0cda72p-27"),
    "2,1,1,1-euclidean-q_kappa-q1-k2": ("0x1.810ebc7b2701ep-22", "0x1.e56fd7a1ea19fp-28"),
    "2,1,1,1-euclidean-a_q-q2-k0": ("0x1.59acbd0d1ce80p-19", "0x1.255ec8d043cb2p-27"),
    "2,1,1,1-euclidean-u_kappa-q2-k0": ("0x1.a5a84d380747ep-19", "0x0.0p+0"),
    "2,1,1,1-euclidean-u_kappa-q2-k1": ("0x1.2d3b68ba0c930p-21", "0x1.24598c6dff76bp-27"),
    "2,1,1,1-euclidean-u_kappa-q2-k2": ("0x1.7108da5093464p-24", "0x1.f1f7e0e0c429dp-29"),
    "2,1,1,1-euclidean-q_kappa-q2-k0": ("0x1.5873b333a1ccep-19", "0x1.2732ad1f30ea5p-27"),
    "2,1,1,1-euclidean-q_kappa-q2-k1": ("0x1.0cae1be797af9p-21", "0x1.1753bf72969c6p-27"),
    "2,1,1,1-euclidean-q_kappa-q2-k2": ("0x1.4d472d0f340a2p-24", "0x1.d9df95259dcf2p-29"),
    "2,1,1,1-adapted-ball-q0-k0": ("0x1.0c6f7a0b5ed8cp-18", "0x0.0p+0"),
    "2,1,1,1-adapted-a_q-q1-k0": ("0x1.4a5d0f5d67a56p-19", "0x1.d8cff6379405fp-27"),
    "2,1,1,1-adapted-u_kappa-q1-k0": ("0x1.0c6f7a0b5ed8cp-18", "0x0.0p+0"),
    "2,1,1,1-adapted-u_kappa-q1-k1": ("0x1.9bc7ad6462e72p-20", "0x1.d88bc4e0358e4p-27"),
    "2,1,1,1-adapted-u_kappa-q1-k2": ("0x1.396cdc6ceaf44p-21", "0x1.571d34565a97ap-27"),
    "2,1,1,1-adapted-q_kappa-q1-k0": ("0x1.4e1f21f830245p-19", "0x1.d725c58f288b1p-27"),
    "2,1,1,1-adapted-q_kappa-q1-k1": ("0x1.fc33b69e89aeap-21", "0x1.9d0e9558f96b9p-27"),
    "2,1,1,1-adapted-q_kappa-q1-k2": ("0x1.776150f6ea36fp-22", "0x1.1277a86f9d8d0p-27"),
    "2,1,1,1-adapted-a_q-q2-k0": ("0x1.cbb8f9d1d5af8p-19", "0x1.54e83f803b768p-27"),
    "2,1,1,1-adapted-u_kappa-q2-k0": ("0x1.0c6f7a0b5ed8cp-18", "0x0.0p+0"),
    "2,1,1,1-adapted-u_kappa-q2-k1": ("0x1.3573d0126ec5ep-21", "0x1.554d36be94567p-27"),
    "2,1,1,1-adapted-u_kappa-q2-k2": ("0x1.7239e6fe11c35p-24", "0x1.1a3d4fd83788ap-28"),
    "2,1,1,1-adapted-q_kappa-q2-k0": ("0x1.cb140c92baa11p-19", "0x1.561674fb8b66fp-27"),
    "2,1,1,1-adapted-q_kappa-q2-k1": ("0x1.0f3a28c77ec20p-21", "0x1.42d533f0a2f23p-27"),
    "2,1,1,1-adapted-q_kappa-q2-k2": ("0x1.3988594cc4cc0p-24", "0x1.042b71e009111p-28"),
    "3,1,2,1-euclidean-ball-q0-k0": ("0x1.0ddc5a614c56fp-25", "0x0.0p+0"),
    "3,1,2,1-euclidean-a_q-q1-k0": ("0x1.6cb0983ec7448p-26", "0x1.c958a41f7b507p-34"),
    "3,1,2,1-euclidean-u_kappa-q1-k0": ("0x1.0ddc5a614c56fp-25", "0x0.0p+0"),
    "3,1,2,1-euclidean-u_kappa-q1-k1": ("0x1.5c7f889519ba4p-27", "0x1.c8cfe0fff8c96p-34"),
    "3,1,2,1-euclidean-u_kappa-q1-k2": ("0x1.7fa250f88063dp-29", "0x1.15fbaa8bce7a4p-34"),
    "3,1,2,1-euclidean-q_kappa-q1-k0": ("0x1.6a9ca52b22eaap-26", "0x1.cabd8f9f1c3cdp-34"),
    "3,1,2,1-euclidean-q_kappa-q1-k1": ("0x1.f19f8c096f130p-28", "0x1.9b776bc0f9bbbp-34"),
    "3,1,2,1-euclidean-q_kappa-q1-k2": ("0x1.0b0de032d2197p-29", "0x1.d6af73253133bp-35"),
    "3,1,2,1-euclidean-a_q-q2-k0": ("0x1.ed1dd69c57179p-26", "0x1.126b867c5cd10p-34"),
    "3,1,2,1-euclidean-u_kappa-q2-k0": ("0x1.0ddc5a614c56fp-25", "0x0.0p+0"),
    "3,1,2,1-euclidean-u_kappa-q2-k1": ("0x1.8b4ac2a5de9e8p-29", "0x1.19c1bc99fbc08p-34"),
    "3,1,2,1-euclidean-u_kappa-q2-k2": ("0x1.0310fa9ad8a56p-32", "0x1.512bd8f2834d7p-36"),
    "3,1,2,1-euclidean-q_kappa-q2-k0": ("0x1.e9cc19ccc198ap-26", "0x1.1b111744d5972p-34"),
    "3,1,2,1-euclidean-q_kappa-q2-k1": ("0x1.6168de666fa5ep-29", "0x1.0bd4bcdcf169cp-34"),
    "3,1,2,1-euclidean-q_kappa-q2-k2": ("0x1.d251c316b929bp-33", "0x1.3ffd5620c3ebbp-36"),
    "3,1,2,1-adapted-ball-q0-k0": ("0x1.4a1e20d07242cp-25", "0x0.0p+0"),
    "3,1,2,1-adapted-a_q-q1-k0": ("0x1.e7300c1344462p-26", "0x1.06cce743dd2d1p-33"),
    "3,1,2,1-adapted-u_kappa-q1-k0": ("0x1.4a1e20d07242cp-25", "0x0.0p+0"),
    "3,1,2,1-adapted-u_kappa-q1-k1": ("0x1.6b42f1eecb8e8p-27", "0x1.0adb508cec691p-33"),
    "3,1,2,1-adapted-u_kappa-q1-k2": ("0x1.8041ca0928d6ep-29", "0x1.3669811488360p-34"),
    "3,1,2,1-adapted-q_kappa-q1-k0": ("0x1.e13669f200ab8p-26", "0x1.09a7a01dd8ad4p-33"),
    "3,1,2,1-adapted-q_kappa-q1-k1": ("0x1.f86b79d1f6454p-28", "0x1.d5cd44a0c58e2p-34"),
    "3,1,2,1-adapted-q_kappa-q1-k2": ("0x1.165af0a935563p-29", "0x1.0b09b1034e45ep-34"),
    "3,1,2,1-adapted-a_q-q2-k0": ("0x1.32948e58b9fc6p-25", "0x1.338b14965ae48p-34"),
    "3,1,2,1-adapted-u_kappa-q2-k0": ("0x1.4a1e20d07242cp-25", "0x0.0p+0"),
    "3,1,2,1-adapted-u_kappa-q2-k1": ("0x1.6c2f92caeca4fp-29", "0x1.2ed0a45da7847p-34"),
    "3,1,2,1-adapted-u_kappa-q2-k2": ("0x1.c85acd1b3db2cp-33", "0x1.5e5a2a33b2fd1p-36"),
    "3,1,2,1-adapted-q_kappa-q2-k0": ("0x1.337482047ddf7p-25", "0x1.2e34461deedc2p-34"),
    "3,1,2,1-adapted-q_kappa-q2-k1": ("0x1.5bcfdefd34cd2p-29", "0x1.286bf2e3e57e8p-34"),
    "3,1,2,1-adapted-q_kappa-q2-k2": ("0x1.b33a272a928bap-33", "0x1.56306895b5a78p-36"),
}

RATIO_PINS = {
    "adapted-q1": "0x1.40068db8bac71p-1",
    "adapted-q2": "0x1.b5119ce075f70p-1",
}

ENGINE_PINS = {
    "adapted-decimal": "12b7422a2a1ef91487cc72fcf36183e1e592c2efa857ebd55cbde654df0e690d",
    "-3,1,-1,0-euclidean-origin": "c3f910064a341a8268afe2b71efd2b4c5c5ab3d805b7dd331fa0530f36dbe19f",
}

# sha256 of (px, py) of Ball.points on the uniforms of ball_points, one pair per "matrix-metric"
POINT_PINS = {
    "2,1,1,1-euclidean": ("87620f09c74f4fd6ee4c6f27494eb33bcd08af717fbd8f0f38c166130369364f",
                          "dbbae172f04cd9f7d34030a42d1c14742aa4186823cd49a959d7ec85e5c1a2f5"),
    "2,1,1,1-adapted": ("338a0bd89c45c762ebd4f1adec3e1d8e5354189021fd8dc19a5b37d9cbb4e999",
                        "c27ac078876de185183a139028519fb375a4b5e824d995abfe131fb8c65c6648"),
    "3,1,2,1-euclidean": ("9d3fd30083bfd9998d6ba76fe217d9c8ec670101999bdf0959e24e63a57dcea1",
                          "a02bd3153da2b38dd8558a7946de38d4410d64cda89d98c1a5ec3bc3f7c5ad38"),
    "3,1,2,1-adapted": ("e20097691bf680ffd1d85529705ab301c316e49083ad9f8841bcdcf59eac2beb",
                        "2adebdad3ae0719ba6927c5cf3b15b9dcb1ac7fcf2edc74be7eee226e558f738"),
    "1000,999,1,1-euclidean": ("0fe523093093757b95fb0e07775c976cb6cccac8e2b66d0b1974244ac13242e6",
                               "566c9db9d8a817108f08c56421541c99002ef87b83c30b9872aa843636e20e59"),
    "1000,999,1,1-adapted": ("40d1d2422ac49747949bc740d41f1ee48d1c3a9ecbe8cd480507ab7829bc9646",
                             "02e18923d22a57a987cb88db0576d79576a2aafdde6ef89f68804b36cf0870d7"),
}

# uniforms at the ends of [0, 1), around its quarters, and at the tie of the rim's angle
EDGE_UNIFORMS = np.array([
    0.0, 2.0**-53, math.nextafter(0.25, 0.0), 0.25, math.nextafter(0.25, 1.0), 0.5, 0.75, 1.0 - 2.0**-53
])

RATIO_CONFIGS = {
    "adapted-q1": dict(metric=MetricKind.ADAPTED),
    "adapted-q2": dict(metric=MetricKind.ADAPTED, zeta=(Fraction(1, 5), Fraction(2, 5))),
}

ENGINE_CONFIGS = {
    "adapted-decimal": dict(zeta=(Fraction(0.4142), Fraction(0.7321)), metric=MetricKind.ADAPTED),
    "-3,1,-1,0-euclidean-origin": dict(matrix=(-3, 1, -1, 0), metric=MetricKind.EUCLIDEAN),
}


def oracle_cases():
    for matrix in MATRICES:
        for metric in MetricKind:
            yield matrix, metric, RegionKind.BALL, 0, 0
            for q in (1, 2):
                yield matrix, metric, RegionKind.A_Q, q, 0
                for kind in (RegionKind.U_KAPPA, RegionKind.Q_KAPPA):
                    for kappa in range(3):
                        yield matrix, metric, kind, q, kappa


def case_id(matrix, metric, kind, q, kappa) -> str:
    return f"{matrix}-{metric.value}-{kind.value}-q{q}-k{kappa}"


@pytest.mark.parametrize("case", list(oracle_cases()), ids=lambda case: case_id(*case))
def test_oracle_keeps_its_bits(case):
    estimate, std_error = oracle(*case)
    assert (estimate.hex(), std_error.hex()) == ORACLE_PINS[case_id(*case)]


def ball_points(name: str):
    """Ball.points of the radius-0.01 ball at (0.3, 1 - 2^-53) on every pair of EDGE_UNIFORMS and 2^14 draws."""
    matrix, metric = name.split("-")
    ball = Ball(ToralAutomorphism(*map(int, matrix.split(","))), TorusPoint(0.3, 1.0 - 2.0**-53), 0.01,
                MetricKind(metric))
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    u = np.concatenate([np.repeat(EDGE_UNIFORMS, EDGE_UNIFORMS.size), rng.random(1 << 14)])
    v = np.concatenate([np.tile(EDGE_UNIFORMS, EDGE_UNIFORMS.size), rng.random(1 << 14)])
    return ball.points(u, v)


@pytest.mark.parametrize("name", list(POINT_PINS))
def test_ball_points_keep_their_bits(name):
    px, py = ball_points(name)
    assert tuple(hashlib.sha256(c.tobytes()).hexdigest() for c in (px, py)) == POINT_PINS[name]


@pytest.mark.parametrize("name", list(RATIO_CONFIGS))
def test_measure_ratio_keeps_its_bits(name):
    cfg = ExperimentConfig(n=100_000, **RATIO_CONFIGS[name])
    assert ei_measure_ratio(cfg, 20_000, 5).hex() == RATIO_PINS[name]


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_engine_keeps_its_bits(name):
    cfg = ExperimentConfig(n=20_000, trials=400, seed=3, **ENGINE_CONFIGS[name])
    records = run_experiment(cfg, workers=1)
    assert records.time.size > 100  # the digest covers real hits
    assert digest(records) == ENGINE_PINS[name]
