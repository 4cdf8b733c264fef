"""The benchmark's workloads and the checks that their outputs are right.

Every workload is a short list of `extorus` CLI commands run in a fresh
directory. A command's outputs are checked for invariants that hold for
any seed, and reduced to sha256 digests; at the reference seed the
digests must equal those recorded in reference.json.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

RUN_DIR = "run"
VALIDATE_MANIFEST = "acceptance_manifest.json"
WORKERS = 2
# The tail-bound check of criterion 2 fails by design; the run must keep
# reporting exactly that failure.
EXPECTED_FAILED = ["oracle-equivalence"]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    work_units: int  # what commands[0] does: orbit steps, or oracle samples
    trials: int = 0
    n: int = 0

    def argv(self, seed: int) -> list[list[str]]:
        return [[arg.replace("{seed}", str(seed)) for arg in cmd] for cmd in self.commands]


def _simulate(zeta: str, n: int, trials: int, *extra: str) -> tuple[str, ...]:
    return (
        "simulate", "--zeta", zeta, *extra, "--n", str(n), "--trials", str(trials),
        "--seed", "{seed}", "--workers", str(WORKERS), "--out", RUN_DIR,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-dense",
            (
                _simulate("0/1,0/1", 50_000, 4096, "--metric", "adapted", "--tau", "40"),
                ("estimate", "--in", RUN_DIR),
            ),
            work_units=4096 * 50_000,
            trials=4096,
            n=50_000,
        ),
        Workload(
            "orbit-long",
            (_simulate("0.4142135623730951,0.7320508075688772", 200_000, 8),),
            work_units=8 * 200_000,
            trials=8,
            n=200_000,
        ),
        Workload(
            "validate-quick",
            (("validate", "--quick", "--workers", str(WORKERS), "--out", VALIDATE_MANIFEST),),
            # criterion 2: 8 oracle calls of 10M samples; criterion 3: 1M samples
            work_units=8 * 10_000_000 + 1_000_000,
        ),
    )
}


def drop_timing(value):
    """`value` without the keys that hold seconds (named *_s), at any depth."""
    if isinstance(value, dict):
        return {k: drop_timing(v) for k, v in value.items() if not k.endswith("_s")}
    if isinstance(value, list):
        return [drop_timing(v) for v in value]
    return value


def canonical_digest(value) -> str:
    text = json.dumps(drop_timing(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path, header: str, width: int) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    for lineno, row in enumerate(rows, 2):
        if len(row) != width:
            raise ValueError(f"{path.name}:{lineno}: expected {width} fields")
    return rows


def check_simulate(run_dir: Path, trials: int, n: int) -> dict[str, str]:
    """Invariants of a simulate output directory; returns the CSV digests."""
    config = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["config"]
    u_n = config["derived"]["u_n"]
    if config["trials"] != trials or config["n"] != n:
        raise ValueError("manifest trials/n differ from the command")

    maxima = _csv_rows(run_dir / "block_maxima.csv", "trial,maximum", 2)
    if [int(r[0]) for r in maxima] != list(range(trials)):
        raise ValueError(f"block_maxima.csv: {len(maxima)} rows, expected trials 0..{trials - 1}")
    for row in maxima:
        if not math.isfinite(float(row[1])):
            raise ValueError(f"block_maxima.csv: non-finite maximum {row}")

    for row in _csv_rows(run_dir / "exceedances.csv", "trial,time,value", 3):
        trial, step, value = int(row[0]), int(row[1]), float(row[2])
        if not (0 <= trial < trials and 0 <= step < n):
            raise ValueError(f"exceedances.csv: row {row} out of range")
        if not (math.isfinite(value) and value > u_n):
            raise ValueError(f"exceedances.csv: value {value} not above u_n = {u_n}")
    return {f: file_digest(run_dir / f) for f in ("exceedances.csv", "block_maxima.csv")}


def exceedance_rows(run_dir: Path) -> int:
    return len((run_dir / "exceedances.csv").read_text(encoding="utf-8").splitlines()) - 1


def check_estimate(stdout: str, run_dir: Path, trials: int) -> dict[str, str]:
    """The estimate report must describe the simulate output it read."""
    fields: dict[str, str] = {}
    for line in stdout.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            fields.setdefault(parts[0], parts[1].strip())
    if fields.get("trials") != str(trials):
        raise ValueError(f"estimate reports trials {fields.get('trials')!r}, expected {trials}")
    rows = exceedance_rows(run_dir)
    if fields.get("exceedances") != str(rows):
        raise ValueError(f"estimate reports exceedances {fields.get('exceedances')!r}, CSV has {rows}")
    return {"estimate_stdout": hashlib.sha256(stdout.encode()).hexdigest()}


def check_validate(code: int, manifest_path: Path) -> dict[str, str]:
    """Quick validate: exit 1 with exactly the known tail-bound failure."""
    if code != 1:
        raise ValueError(f"validate exited {code}, expected 1")
    criteria = json.loads(manifest_path.read_text(encoding="utf-8"))["criteria"]
    status = {c["cid"]: c["passed"] for c in criteria}
    if status != {1: True, 2: False, 3: True, 4: None, 5: None, 6: None, 7: None, 8: None}:
        raise ValueError(f"criterion outcomes {status}")
    failed = [c["name"] for c in criteria if c["passed"] is False]
    if failed != EXPECTED_FAILED:
        raise ValueError(f"failed criteria {failed}, expected {EXPECTED_FAILED}")
    oracle = next(c["measured"] for c in criteria if c["cid"] == 2)
    if not (oracle["oracle_equivalence_ok"] is True and oracle["tail_bound_ok"] is False):
        raise ValueError("criterion 2 must pass equivalence and fail only the tail bound")
    return {
        f"criterion_{c['cid']}": canonical_digest(c["measured"]) for c in criteria if c["cid"] <= 3
    }


def check_command(workload: Workload, index: int, cwd: Path, code: int, stdout: str) -> dict[str, str]:
    """Check one finished command; raises ValueError naming what is wrong."""
    verb = workload.commands[index][0]
    if verb == "validate":
        return check_validate(code, cwd / VALIDATE_MANIFEST)
    if code != 0:
        raise ValueError(f"{verb} exited {code}")
    run_dir = cwd / RUN_DIR
    if verb == "simulate":
        return check_simulate(run_dir, workload.trials, workload.n)
    return check_estimate(stdout, run_dir, workload.trials)


def load_reference() -> dict:
    return json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))


def reference_mismatches(workload: Workload, seed: int, digests: dict[str, str], reference: dict) -> list[str]:
    """Names of the digests that differ from the reference.

    Quick validate takes no seed, so its reference holds for every seed.
    """
    if workload.name != "validate-quick" and seed != reference["seed"]:
        return []
    expected = reference[workload.name]
    return [k for k in sorted(digests) if k in expected and digests[k] != expected[k]]
