"""Command-line front end: theory | simulate | estimate | validate.

Configuration comes from flags, which override an optional UTF-8
key=value config file whose keys mirror ExperimentConfig field names.
Centres are given as exact rationals ("1/2,1/2") or decimals
("0.4142,0.7321"); decimals denote the exact rational the double holds,
which for a generic decimal is effectively non-periodic. All machine
output carries full float precision; human tables round.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .acceptance import RunManifest, run_acceptance
from .errors import ExtorusError, NoExceedances, OutOfLocalRange
from .formulas import ExtremalModel, extremal_model, threshold_radius, wrap_time_g
from .simulate import (
    ExperimentConfig,
    TrialRecord,
    chi_square_vs_pmf,
    decluster_all,
    ei_measure_ratio,
    empirical_extremal_index,
    empirical_multiplicity,
    estimate_block_maxima_cdf,
    gap_ks_statistic,
    run_experiment,
)
from .torus import MAX_MODULUS_BITS, MIN_MODULUS_BITS, MetricKind, ToralAutomorphism

EXCEEDANCE_HEADER = "trial,time,value"
BLOCK_MAX_HEADER = "trial,maximum"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_matrix(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"matrix needs four comma-separated integers, got {text!r}")
    a, b, c, d = (int(p.strip()) for p in parts)
    return (a, b, c, d)


def parse_zeta(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"zeta needs two comma-separated coordinates, got {text!r}")

    def one(token: str) -> Fraction:
        token = token.strip()
        if "/" in token:
            return Fraction(token)
        return Fraction(float(token))

    return (one(parts[0]), one(parts[1]))


def parse_metric(text: str) -> MetricKind:
    try:
        return MetricKind(text.lower())
    except ValueError:
        raise ValueError(f"metric must be 'euclidean' or 'adapted', got {text!r}") from None


# Config keys: the ExperimentConfig fields, which are also the flag names.
_CONFIG_KEYS = {
    "matrix": parse_matrix,
    "zeta": parse_zeta,
    "metric": parse_metric,
    "tau": float,
    "n": int,
    "trials": int,
    "modulus_bits": int,
    "seed": int,
    "run_gap": int,
}


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge flags over config-file values over defaults."""
    file_values = _read_config_file(args.config) if args.config else {}
    kwargs = {}
    for key, convert in _CONFIG_KEYS.items():
        flag = getattr(args, key)
        if flag is not None:
            kwargs[key] = convert(flag) if isinstance(flag, str) else flag
        elif key in file_values:
            kwargs[key] = convert(file_values[key])
    return ExperimentConfig(**kwargs)


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "matrix": list(cfg.matrix),
        "zeta": f"{cfg.zeta[0]},{cfg.zeta[1]}",
        "metric": cfg.metric.value,
        "tau": cfg.tau,
        "n": cfg.n,
        "trials": cfg.trials,
        "modulus_bits": cfg.modulus_bits,
        "seed": cfg.seed,
        "run_gap": cfg.run_gap,
        "derived": {
            "q": cfg.q,
            "u_n": cfg.u_n,
            "radius": cfg.radius,
            "v_n": cfg.v_n,
            "g_n": cfg.g_n,
            "run_gap_effective": cfg.run_gap_effective,
            "lambda": cfg.automorphism.lam,
        },
    }


def _config_from_echo(echo: dict, path: Path) -> ExperimentConfig:
    missing = [key for key in _CONFIG_KEYS if key not in echo]
    if missing:
        raise ValueError(f"{path}: config lacks {', '.join(missing)}")
    try:
        values = {**{key: echo[key] for key in _CONFIG_KEYS}, "matrix": tuple(echo["matrix"])}
        values.update(zeta=parse_zeta(str(echo["zeta"])), metric=MetricKind(echo["metric"]))
        return ExperimentConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad config: {exc}") from None


def _closed_form_model(T: ToralAutomorphism, q: int, metric: MetricKind) -> ExtremalModel:
    """The closed-form law for (T, q, metric), refused where it is known to be wrong.

    The Euclidean forms take |lam| alone. At a periodic centre the disc's
    overlap with its images depends on the singular values of A^q, which
    equal |lam|^q only when the matrix is symmetric.
    """
    if metric is MetricKind.EUCLIDEAN and q >= 1 and T.b != T.c:
        raise ValueError(
            f"the Euclidean closed forms at a periodic centre (q = {q}) need a symmetric "
            f"matrix (b == c), got {T.entries}; the adapted metric has no such limit"
        )
    return extremal_model(T.lam_abs, q, metric)


# --------------------------------------------------------------------------
# theory
# --------------------------------------------------------------------------


def cmd_theory(args: argparse.Namespace) -> int:
    metric = parse_metric(args.metric)
    cfg = ExperimentConfig(
        matrix=parse_matrix(args.matrix), zeta=parse_zeta(args.zeta), metric=metric,
        tau=args.tau, n=args.n,
    )
    T = cfg.automorphism
    q = cfg.q if args.q is None else args.q
    if q < 0:
        raise ValueError("q must be >= 0")
    model = _closed_form_model(T, q, metric)
    theta = model.theta
    pis = model.multiplicity_table(args.kmax)
    payload = {
        "lambda": T.lam,
        "basis_det": T.basis_det,
        "q": q,
        "metric": metric.value,
        "theta": theta,
        "pi": pis,
        "n": args.n,
        "tau": args.tau,
        "u_n": cfg.u_n,
        "s_n": threshold_radius(args.n, args.tau, MetricKind.EUCLIDEAN),
        "radius": cfg.radius,
        "g_n": wrap_time_g(args.n, T.lam_abs, q, args.tau),
        "v_n": cfg.v_n,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"matrix      {T.entries}")
    print(f"lambda      {T.lam:.12g}")
    print(f"basis_det   {T.basis_det:.12g}")
    print(f"metric      {metric.value}")
    print(f"q           {q}")
    print(f"theta       {theta:.12g}")
    print(f"u_n         {payload['u_n']:.12g}   (n={args.n}, tau={args.tau})")
    print(f"s_n         {payload['s_n']:.12g}")
    print(f"radius      {payload['radius']:.12g}")
    print(f"g_n         {payload['g_n']}")
    print(f"v_n         {payload['v_n']:.12g}")
    for k, p in enumerate(pis, start=1):
        print(f"{f'pi[{k}]':<12}{p:.12g}")
    return 0


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    t0 = time.perf_counter()
    records = run_experiment(cfg, args.workers)
    wall = time.perf_counter() - t0

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "exceedances.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(EXCEEDANCE_HEADER + "\n")
            for rec in records:
                for t, v in zip(rec.exceedance_times, rec.exceedance_values):
                    fh.write(f"{rec.trial_id},{t},{_fmt(v)}\n")
        with open(out / "block_maxima.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(BLOCK_MAX_HEADER + "\n")
            for rec in records:
                fh.write(f"{rec.trial_id},{_fmt(rec.block_maximum)}\n")
        manifest = RunManifest(
            config=_config_echo(cfg), version=__version__, wall_time_s=wall, criteria=[]
        )
        (out / "manifest.json").write_text(manifest.to_json() + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 3
    total = sum(len(r.exceedance_times) for r in records)
    print(f"wrote {len(records)} trials, {total} exceedances to {out}")
    return 0


# --------------------------------------------------------------------------
# estimate
# --------------------------------------------------------------------------


def _csv_rows(path: Path, header: str, parse):
    """(line number, parse(*fields)) of each data row; parse puts the float value last."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}:1: expected header {header!r}")
    for lineno, line in enumerate(lines[1:], 2):
        try:
            row = parse(*line.split(","))
        except (TypeError, ValueError):  # TypeError: wrong field count
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from None
        if not math.isfinite(row[-1]):
            raise ValueError(f"{path}:{lineno}: non-finite value in {line!r}")
        yield lineno, row


def _read_records(indir: Path) -> tuple[ExperimentConfig, list[TrialRecord]]:
    path = indir / "manifest.json"
    manifest = RunManifest.from_json(path.read_text(encoding="utf-8"))
    cfg = _config_from_echo(manifest.config, path)

    maxima: dict[int, float] = {}
    path = indir / "block_maxima.csv"
    rows = _csv_rows(path, BLOCK_MAX_HEADER, lambda trial, m: (int(trial), float(m)))
    for lineno, (trial, maximum) in rows:
        if trial in maxima:
            raise ValueError(f"{path}:{lineno}: duplicate trial {trial}")
        if len(maxima) == cfg.trials:
            raise ValueError(f"{path}:{lineno}: more trials than the manifest's {cfg.trials}")
        maxima[trial] = maximum
    if len(maxima) != cfg.trials:
        # the first missing row would sit right after the last one read
        raise ValueError(
            f"{path}:{len(maxima) + 2}: {len(maxima)} trials, the manifest says {cfg.trials}"
        )

    times: dict[int, list[tuple[int, float]]] = {t: [] for t in maxima}
    u_n = cfg.u_n
    path = indir / "exceedances.csv"
    rows = _csv_rows(path, EXCEEDANCE_HEADER, lambda trial, t, v: (int(trial), int(t), float(v)))
    for lineno, (trial, t, v) in rows:
        if trial not in times:
            raise ValueError(f"{path}:{lineno}: trial {trial} has no block maximum")
        if v <= u_n:
            raise ValueError(f"{path}:{lineno}: value {_fmt(v)} is not above u_n = {_fmt(u_n)}")
        times[trial].append((t, v))

    records = []
    for trial in sorted(maxima):
        pairs = sorted(times[trial])
        records.append(
            TrialRecord(
                trial,
                tuple(t for t, _ in pairs),
                tuple(v for _, v in pairs),
                maxima[trial],
            )
        )
    return cfg, records


def cmd_estimate(args: argparse.Namespace) -> int:
    indir = Path(args.indir)
    cfg, records = _read_records(indir)
    total_exceedances = sum(len(r.exceedance_times) for r in records)
    if total_exceedances == 0:
        raise NoExceedances("no exceedances in the supplied CSVs")

    summaries = decluster_all(records, cfg.run_gap_effective, cfg.v_n)
    model = _closed_form_model(cfg.automorphism, cfg.q, cfg.metric)
    theta_model = model.theta
    theta_clusters = empirical_extremal_index(summaries)
    hist = empirical_multiplicity(summaries)

    p_hat, _ = estimate_block_maxima_cdf(cfg, records)

    print(f"trials                {len(records)}")
    print(f"exceedances           {total_exceedances}")
    print(f"q (detected)          {cfg.q}")
    print(f"theta (formula)       {theta_model:.6g}")
    print(f"theta_hat (clusters)  {theta_clusters:.6g}")
    if cfg.q >= 1 and args.mc_samples > 0:
        try:
            theta_ratio = ei_measure_ratio(cfg, args.mc_samples, cfg.seed + 1)
        except OutOfLocalRange as exc:
            print(f"theta_hat (ratio)     skipped ({type(exc).__name__}: {exc})")
        else:
            print(f"theta_hat (ratio)     {theta_ratio:.6g}")
    print(f"P(M_n <= u_n)         {p_hat:.6g}  (model {math.exp(-theta_model * cfg.tau):.6g})")

    sizes = [s for summ in summaries for s in summ.cluster_sizes]
    try:
        chi, chi_p, dof = chi_square_vs_pmf(sizes, model.multiplicity, 1, 5)
        print(f"size chi-square       {chi:.4g} (dof {dof}, p {chi_p:.4g})")
    except ValueError as exc:
        print(f"size chi-square       skipped ({exc})")

    theta_gap = args.theta_override if args.theta_override is not None else theta_model
    try:
        ks, ks_p = gap_ks_statistic(summaries, theta_gap, window_span=cfg.tau)
        print(f"gap KS vs Exp({theta_gap:.4g})   {ks:.4g} (p {ks_p:.4g})")
    except ExtorusError as exc:
        print(f"gap KS                skipped ({exc})")

    k_max = max(max(hist), 10)
    plot_path = Path(args.out) if args.out else indir / "multiplicity.tsv"
    with open(plot_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("kappa\tempirical\ttheory\n")
        for k in range(1, k_max + 1):
            fh.write(f"{k}\t{_fmt(hist.get(k, 0.0))}\t{_fmt(model.multiplicity(k))}\n")
    print(f"wrote multiplicity table to {plot_path}")
    return 0


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    manifest = run_acceptance(quick=args.quick, workers=args.workers)
    out = Path(args.out)
    out.write_text(manifest.to_json() + "\n", encoding="utf-8")
    print(f"manifest written to {out}")
    if manifest.all_passed:
        print("all criteria passed")
        return 0
    print(f"FAILED criteria: {', '.join(manifest.failed_names())}", file=sys.stderr)
    return 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", default=None, help="a,b,c,d integer matrix entries")
    p.add_argument("--zeta", default=None, help="centre: 'a/b,c/d' exact or decimals")
    p.add_argument("--metric", default=None, help="euclidean | adapted")
    p.add_argument("--tau", type=float, default=None, help="limit mean exceedance count")
    p.add_argument("--n", type=int, default=None, help="orbit length")
    p.add_argument("--trials", type=int, default=None, help="number of trials")
    p.add_argument("--modulus-bits", dest="modulus_bits", type=int, default=None,
                   help=f"exact grid 2^k, k in [{MIN_MODULUS_BITS}, {MAX_MODULUS_BITS}] (default 61)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--run-gap", dest="run_gap", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--workers", type=int, default=None, help="worker cap (or EXTORUS_THREADS)")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token such as -1000,-999,-1,-1 or -1/3,1/2 as a value.

    argparse takes a token that starts with '-' for a flag unless it is a
    plain negative number, so --matrix and --zeta would miss their values.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extorus",
        description="Extreme-value statistics of hyperbolic torus maps",
    )
    parser.add_argument("--version", action="version", version=f"extorus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="print closed-form quantities")
    p.add_argument("--matrix", default="2,1,1,1")
    p.add_argument("--zeta", default="0/1,0/1")
    p.add_argument("--metric", default="euclidean")
    p.add_argument("--q", type=int, default=None, help="period (derived from --zeta if omitted)")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("simulate", help="run trials, write CSVs and a manifest")
    _add_config_flags(p)
    p.add_argument("--out", default="extorus_out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimators and GOF from simulate output")
    p.add_argument("--in", dest="indir", default="extorus_out")
    p.add_argument("--out", default=None, help="multiplicity table path")
    p.add_argument("--theta-override", type=float, default=None)
    p.add_argument("--mc-samples", type=int, default=200_000,
                   help="measure-ratio oracle samples (0 disables)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true", help="formulas and oracles only")
    p.add_argument("--out", default="acceptance_manifest.json")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoExceedances as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (ExtorusError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
