"""Command-line front end: theory | simulate | estimate | validate.

The run schema is one table, _FIELDS: for each ExperimentConfig field,
the flag help, the text parser and the manifest's JSON form. Flags,
UTF-8 key=value config-file keys (flags win) and the manifest's config
echo all come from it; theory takes ExperimentConfig's defaults too. One
parse step reads every value and names the source of a bad one ("--n:
..." or "run.cfg:2: n: ..."). estimate reads a manifest's config only if
it is, key for key, the echo that config writes, derived block included,
rejects, naming path:line, every CSV row the manifest rules out, and
formats simulate.estimate_run. Centres are exact rationals ("1/2,1/2")
or decimals ("0.4142,0.7321"); a decimal denotes the exact rational the
double holds, which for a generic decimal is effectively non-periodic.
All machine output carries full float precision; human tables round.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import time
from collections.abc import Callable, Iterable
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from . import __version__
from .acceptance import RunManifest, run_acceptance
from .errors import ExtorusError, NoExceedances
from .formulas import MAX_K, ExtremalModel, threshold_radius, wrap_time_g
from .regions import MIN_SAMPLES
from .simulate import (
    ExperimentConfig,
    Records,
    check_field,
    check_ratio_samples,
    estimate_run,
    experiment_workers,
    run_experiment,
)
from .torus import MetricKind, check_count, check_positive

EXCEEDANCE_HEADER = "trial,time,value"
BLOCK_MAX_HEADER = "trial,maximum"
_CSV_ROWS = 1 << 15


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_matrix(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"matrix needs four comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)  # int() strips the spaces around an entry


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


class _Field(NamedTuple):
    """One ExperimentConfig field: its flag help, its text parser, its manifest JSON form."""

    help: str
    parse: Callable[[str], Any]
    echo: Callable[[Any], Any]


def _same(value: Any) -> Any:
    return value


# The run schema: ExperimentConfig's fields in their order. Each is a flag
# (--n for n), a config-file key and a manifest config key.
_FIELDS = {
    "matrix": _Field("a,b,c,d integer matrix entries", parse_matrix, list),
    "zeta": _Field("centre: 'a/b,c/d' exact or decimals", parse_zeta, lambda z: f"{z[0]},{z[1]}"),
    "metric": _Field("euclidean | adapted", parse_metric, lambda metric: metric.value),
    "tau": _Field("limit mean exceedance count", float, _same),
    "n": _Field("orbit length", int, _same),
    "trials": _Field("number of trials", int, _same),
    "seed": _Field("seed of the per-trial random streams", int, _same),
}


def _parse(source: str, key: str, text: str) -> Any:
    """The value of field `key` written as `text`, checked on its own; an error names the source."""
    try:
        value = check_field(key, _FIELDS[key].parse(text))
    except ExtorusError as exc:  # a matrix that is not hyperbolic or not of determinant 1
        raise type(exc)(f"{source}: {exc}") from None
    except (ValueError, ArithmeticError) as exc:  # Fraction: 1/0 and inf
        raise ValueError(f"{source}: {exc}") from None
    return value


def _read_config_file(path: str) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = _parse(f"{path}:{lineno}: {key}", key, value)
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge flags over config-file values over ExperimentConfig's defaults.

    A command may carry only some of the fields' flags, and no --config.
    """
    values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _FIELDS:
        text = getattr(args, key, None)
        if text is not None:
            values[key] = _parse("--" + key, key, text)
    return ExperimentConfig(**values)


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = {key: field.echo(getattr(cfg, key)) for key, field in _FIELDS.items()}
    echo["derived"] = {
        "q": cfg.q,
        "u_n": cfg.u_n,
        "radius": cfg.radius,
        "v_n": cfg.v_n,
        "g_n": cfg.g_n,
        "run_gap": cfg.run_gap,
        "lambda": cfg.automorphism.lam,
    }
    return echo


def _dotted(echo: dict, prefix: str = "") -> dict:
    """A config echo's values by dotted key: derived.u_n for echo["derived"]["u_n"]."""
    out = {}
    for key, value in echo.items():
        out.update(_dotted(value, f"{prefix}{key}.") if isinstance(value, dict) else {prefix + key: value})
    return out


def _config_from_echo(echo: dict, path: Path) -> ExperimentConfig:
    """The config a manifest echoes, which must be, key for key, the echo it writes.

    Every key counts, the derived block's too: an unknown key, a missing
    one or a value that differs raises ValueError naming it.
    """
    missing = [key for key in _FIELDS if key not in echo]
    if missing:
        raise ValueError(f"{path}: config lacks {', '.join(missing)}")
    # each JSON value as its flag text, a list joined by commas
    texts = {
        key: ",".join(map(str, echo[key])) if isinstance(echo[key], list) else str(echo[key])
        for key in _FIELDS
    }
    try:
        cfg = ExperimentConfig(**{key: _parse(key, key, text) for key, text in texts.items()})
    except (ValueError, ExtorusError) as exc:
        raise type(exc)(f"{path}: bad config: {exc}") from None
    got, written = _dotted(echo), _dotted(_config_echo(cfg))
    unknown = [key for key in got if key not in written]
    if unknown:
        raise ValueError(f"{path}: bad config: unknown key {', '.join(unknown)}")
    for key, value in written.items():
        if key not in got:
            raise ValueError(f"{path}: config lacks {key}")
        if json.dumps(got[key]) != json.dumps(value):  # as JSON text: true is not 1, 2 is not 2.0
            raise ValueError(f"{path}: bad config: {key} is {got[key]!r}, not {value!r}")
    return cfg


# --------------------------------------------------------------------------
# theory
# --------------------------------------------------------------------------


def cmd_theory(args: argparse.Namespace) -> int:
    k_max = check_count("--kmax: kmax", args.kmax, 1, MAX_K)
    cfg = build_config(args)
    T = cfg.automorphism
    q = cfg.q if args.q is None else check_count("--q: q", args.q, 0)
    model = ExtremalModel(T, q, cfg.metric)
    theta = model.theta
    pis = model.multiplicity_table(k_max)
    payload = {
        "lambda": T.lam,
        "basis_det": T.basis_det,
        "q": q,
        "metric": cfg.metric.value,
        "theta": theta,
        "pi": pis,
        "n": cfg.n,
        "tau": cfg.tau,
        "u_n": cfg.u_n,
        "s_n": threshold_radius(cfg.n, cfg.tau, MetricKind.EUCLIDEAN),
        "radius": cfg.radius,
        "g_n": wrap_time_g(cfg.n, T, q, cfg.tau),
        "v_n": cfg.v_n,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"matrix      {T.entries}")
    print(f"lambda      {T.lam:.12g}")
    print(f"basis_det   {T.basis_det:.12g}")
    print(f"metric      {cfg.metric.value}")
    print(f"q           {q}")
    print(f"theta       {theta:.12g}")
    print(f"u_n         {payload['u_n']:.12g}   (n={cfg.n}, tau={cfg.tau})")
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


def _write_csv(path: Path, header: str, *columns: np.ndarray) -> None:
    """header, then a row per line: integers, then the last column as _fmt writes it.

    One % formats _CSV_ROWS rows: faster than a call per row, and of bounded memory.
    """
    line = "%d," * (len(columns) - 1) + "%.17g\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _CSV_ROWS):
            rows = zip(*(column[start : start + _CSV_ROWS].tolist() for column in columns))
            fields = tuple(itertools.chain.from_iterable(rows))
            fh.write(line * (len(fields) // len(columns)) % fields)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    t0 = time.perf_counter()
    records = run_experiment(cfg, args.workers)
    wall = time.perf_counter() - t0

    out = Path(args.out)  # an OSError exits 3 through main
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "exceedances.csv", EXCEEDANCE_HEADER, records.trial, records.time, records.value)
    _write_csv(out / "block_maxima.csv", BLOCK_MAX_HEADER, np.arange(len(records)), records.maxima)
    manifest = RunManifest(
        config=_config_echo(cfg),
        version=__version__,
        wall_time_s=wall,
        workers=experiment_workers(cfg, args.workers),
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n", encoding="utf-8")
    print(f"wrote {len(records)} trials, {records.time.size} exceedances to {out}")
    return 0


# --------------------------------------------------------------------------
# estimate
# --------------------------------------------------------------------------

# The columns of each records CSV, the float last.
_EXCEEDANCE_ROW = np.dtype([("trial", np.int64), ("time", np.int64), ("value", np.float64)])
_BLOCK_MAX_ROW = np.dtype([("trial", np.int64), ("maximum", np.float64)])


def _first_problem(columns: dict[str, np.ndarray], checks) -> tuple[int, str, dict] | None:
    """The first row that fails a check, the message of the first check it fails, and its fields."""
    value = [*columns.values()][-1]
    masks = [(~np.isfinite(value), "non-finite value in {line!r}"), *checks(columns)]
    firsts = [(np.argmax(mask), i) for i, (mask, _) in enumerate(masks) if np.any(mask)]
    if not firsts:
        return None
    row, i = min(firsts)
    return row, masks[i][1], {name: column.item(row) for name, column in columns.items()}


def _read_csv(path: Path, header: str, dtype: np.dtype, checks) -> dict[str, np.ndarray]:
    """A records CSV's columns, read by NumPy; the first bad row raises, naming path:line.

    checks(columns) gives (failing-row mask, message) pairs in the order a
    row is checked, after "malformed" and "non-finite"; a message is
    formatted with the row's fields and line, which is found only then.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}:1: expected header {header!r}")
    body = lines[1:]

    def parse(lines: list[str]) -> np.ndarray:
        if "" in lines:  # loadtxt would skip it
            raise ValueError("empty line")
        if not lines:
            return np.empty(0, dtype)
        return np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)

    try:
        rows, bad = parse(body), len(body)
    except ValueError:  # bisect for the first line that does not parse: body[:good] does
        good, bad = 0, len(body) - 1
        while good < bad:
            mid = (good + bad + 1) // 2
            try:
                parse(body[:mid])
                good = mid
            except ValueError:
                bad = mid - 1
        rows = parse(body[:bad])
    columns = {name: rows[name] for name in dtype.names}
    problem = _first_problem(columns, checks)
    if problem is None and bad < len(body):
        try:  # int() and float() read more than NumPy: an integer beyond int64 fails its range check
            one = {
                name: np.array([(float if dtype[name].kind == "f" else int)(text)])
                for name, text in zip(dtype.names, body[bad].split(","), strict=True)
            }
            problem = _first_problem(one, checks)
        except ValueError:
            problem = None
        _, message, fields = problem or (bad, "malformed row {line!r}", {})
        problem = bad, message, fields
    if problem is not None:
        row, message, fields = problem
        raise ValueError(f"{path}:{row + 2}: " + message.format(line=body[row], **fields))
    return columns


def _repeats(values: np.ndarray) -> np.ndarray:
    """The mask of the entries equal to an earlier one."""
    mask = np.ones(values.size, dtype=bool)
    mask[np.unique(values, return_index=True)[1]] = False
    return mask


def _read_records(indir: Path) -> tuple[ExperimentConfig, Records]:
    path = indir / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # only the config is read: the version, wall time and criteria are not estimate's input
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)):
        raise ValueError(f"{path}: not a JSON object holding a config object")
    cfg = _config_from_echo(manifest["config"], path)
    last, n = cfg.trials - 1, cfg.n

    path = indir / "block_maxima.csv"
    maxima = _read_csv(path, BLOCK_MAX_HEADER, _BLOCK_MAX_ROW, lambda c: [
        ((c["trial"] < 0) | (c["trial"] > last), f"trial {{trial}} is not in the manifest's 0..{last}"),
        (_repeats(c["trial"]), "duplicate trial {trial}"),
    ])
    found = maxima["trial"].size
    if found != cfg.trials:
        # the first missing row would sit right after the last one read
        raise ValueError(f"{path}:{found + 2}: {found} trials, the manifest says {cfg.trials}")

    path = indir / "exceedances.csv"
    rows = _read_csv(path, EXCEEDANCE_HEADER, _EXCEEDANCE_ROW, lambda c: [
        ((c["trial"] < 0) | (c["trial"] > last), "trial {trial} has no block maximum"),
        ((c["time"] < 0) | (c["time"] >= n), f"time {{time}} is not in the manifest's [0, {n})"),
        (c["value"] <= cfg.u_n, f"value {{value:.17g}} is not above u_n = {_fmt(cfg.u_n)}"),
    ])
    trial, times, values = rows["trial"], rows["time"], rows["value"]
    # sorted by (trial, time) with no repeat, as simulate writes them, unless a row says otherwise
    if not np.all((trial[1:] > trial[:-1]) | ((trial[1:] == trial[:-1]) & (times[1:] > times[:-1]))):
        line = np.lexsort((times, trial))  # stable: a repeat comes after the row it repeats
        trial, times, values = trial[line], times[line], values[line]
        same = np.flatnonzero((trial[1:] == trial[:-1]) & (times[1:] == times[:-1]))
        if same.size:
            i = same[0] + 1
            raise ValueError(f"{path}:{line[i] + 2}: repeated time {times[i]} of trial {trial[i]}")

    block_maxima = np.empty(cfg.trials)
    block_maxima[maxima["trial"]] = maxima["maximum"]
    return cfg, Records(trial, times, values, block_maxima)


def cmd_estimate(args: argparse.Namespace) -> int:
    check_ratio_samples("--mc-samples: mc_samples", args.mc_samples)
    if args.theta_override is not None:
        check_positive("--theta-override: theta_override", args.theta_override, 1)
    indir = Path(args.indir)
    cfg, records = _read_records(indir)
    if records.time.size == 0:
        raise NoExceedances("no exceedances in the supplied CSVs")
    est = estimate_run(cfg, records, args.mc_samples, cfg.seed + 1, args.theta_override)

    print(f"trials                {est['trials']}")
    print(f"exceedances           {est['exceedances']}")
    print(f"q (detected)          {est['q']}")
    print(f"theta (formula)       {est['theta_formula']:.6g}")
    print(f"theta_hat (clusters)  {est['theta_hat_clusters']:.6g}")
    if (ratio := est.get("theta_hat_ratio")) is not None:
        print("theta_hat (ratio)     " + (f"skipped ({ratio})" if isinstance(ratio, str) else f"{ratio:.6g}"))
    print(f"P(M_n <= u_n)         {est['p_hat']:.6g}  (model {est['p_target']:.6g})")
    if isinstance(est["chi2"], str):
        print(f"size chi-square       skipped ({est['chi2']})")
    else:
        print(f"size chi-square       {est['chi2']:.4g} (dof {est['chi2_dof']}, p {est['chi2_p_value']:.4g})")
    if isinstance(est["ks_stat"], str):
        print(f"gap KS                skipped ({est['ks_stat']})")
    else:
        print(f"gap KS vs Exp({est['ks_theta']:.4g})   {est['ks_stat']:.4g} (p {est['ks_p_value']:.4g})")

    plot_path = Path(args.out) if args.out else indir / "multiplicity.tsv"
    with open(plot_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("kappa\tempirical\ttheory\n")
        for k in range(1, max(max(est["size_histogram"]), 10) + 1):
            fh.write(f"{k}\t{_fmt(est['size_histogram'].get(k, 0.0))}\t{_fmt(cfg.model.multiplicity(k))}\n")
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


def _add_config_flags(p: argparse.ArgumentParser, keys: Iterable[str]) -> None:
    """A flag for each ExperimentConfig field in keys; build_config parses its text."""
    for key in keys:
        p.add_argument("--" + key, default=None, help=_FIELDS[key].help)


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
    _add_config_flags(p, ("matrix", "zeta", "metric", "tau", "n"))
    p.add_argument("--q", type=int, default=None, help="period, >= 0 (derived from --zeta if omitted)")
    p.add_argument("--kmax", type=int, default=10, help=f"pi rows to print (1 to {MAX_K})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("simulate", help="run trials, write CSVs and a manifest")
    _add_config_flags(p, _FIELDS)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes, at most the cores (default: min(cores, 8))")
    p.add_argument("--out", default="extorus_out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimators and GOF from simulate output")
    p.add_argument("--in", dest="indir", default="extorus_out")
    p.add_argument("--out", default=None, help="multiplicity table path")
    p.add_argument("--theta-override", type=float, default=None,
                   help="theta of the gap law, in (0, 1] (default: the formula's)")
    p.add_argument("--mc-samples", type=int, default=200_000,
                   help=f"measure-ratio oracle samples, >= {MIN_SAMPLES} (0 disables)")
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
    except (ExtorusError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, NoExceedances) else 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
