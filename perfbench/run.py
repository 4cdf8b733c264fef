#!/usr/bin/env python3
"""Benchmark of the extorus CLI: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-dense --seed 3 --seconds 25 --trace 0

--trace 0 runs the workload's commands as `python -m extorus.cli ...`
subprocesses, with the checkout's src on PYTHONPATH, over and over
until --seconds have passed, and reports the end-to-end metrics that
BENCHMARK.json names (medians over the repetitions). --trace 1 runs the
same commands in-process through extorus.cli.main, alternating an
untraced pass with a traced one, and reports the per-layer metrics.
Every command's outputs are checked. The last line of stdout is the
JSON result; a report with the environment, every repetition and the
spans is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

import layers
import tracing
from workloads import (
    RUN_DIR,
    VALIDATE_MANIFEST,
    WORKERS,
    WORKLOADS,
    Workload,
    check_command,
    exceedance_rows,
    load_reference,
    reference_mismatches,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_REPETITIONS = 3
MIN_TRACED_PAIRS = 2
COMMAND_TIMEOUT_S = 150
# One thread per process: the pools already use every core they are given.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


@dataclass
class Outcome:
    """One finished command."""

    argv: list[str]
    wall_s: float
    code: int
    cpu_s: float = 0.0
    max_rss_kb: int = 0
    digests: dict = field(default_factory=dict)
    problem: str | None = None


def child_env(tmp: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "EXTORUS_THREADS")}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_python(args: list[str], cwd: Path, env: dict[str, str]) -> tuple[float, int, float, int, str, str]:
    """Run the interpreter; return wall, exit code, tree CPU, max RSS (KiB), stdout and stderr."""
    with open(cwd / ".stdout", "w+", encoding="utf-8") as out, open(cwd / ".stderr", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            # wait4 reports the child together with every child it reaped,
            # which includes its joined pool workers.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)  # interrupted: leave nothing running
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, code, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, out.read(), err.read()


def judge(workload: Workload, index: int, cwd: Path, outcome: Outcome, stdout: str, stderr: str) -> None:
    try:
        outcome.digests = check_command(workload, index, cwd, outcome.code, stdout)
    except (ValueError, KeyError, OSError) as exc:
        last = stderr.strip().splitlines()[-1:]
        outcome.problem = f"{type(exc).__name__}: {exc}" + (f" (stderr: {last[0]})" if last else "")


def subprocess_iteration(workload: Workload, seed: int, env: dict, work: Path) -> list[Outcome]:
    cwd = Path(tempfile.mkdtemp(dir=work))
    try:
        outcomes = []
        for i, argv in enumerate(workload.argv(seed)):
            wall, code, cpu, rss, stdout, stderr = run_python(["-m", "extorus.cli", *argv], cwd, env)
            outcome = Outcome(argv, wall, code, cpu, rss)
            judge(workload, i, cwd, outcome, stdout, stderr)
            outcomes.append(outcome)
        return outcomes
    finally:
        shutil.rmtree(cwd)


def _call_main(cli, argv: list[str]) -> int:
    """cli.main as the command line would end: an uncaught error exits 1."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


def inprocess_iteration(
    cli, workload: Workload, seed: int, work: Path, tracer: tracing.Tracer | None
) -> tuple[list[Outcome], dict]:
    """Run the commands through cli.main; return outcomes and facts read from the outputs."""
    cwd = Path(tempfile.mkdtemp(dir=work))
    home = os.getcwd()
    os.chdir(cwd)
    try:
        outcomes = []
        for i, argv in enumerate(workload.argv(seed)):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    code = _call_main(cli, argv)
                else:
                    with tracer.span("cli.main"):
                        code = _call_main(cli, argv)
            outcome = Outcome(argv, time.perf_counter() - start, code)
            judge(workload, i, cwd, outcome, out.getvalue(), err.getvalue())
            outcomes.append(outcome)
        return outcomes, output_facts(workload, cwd)
    finally:
        os.chdir(home)
        shutil.rmtree(cwd)


def output_facts(workload: Workload, cwd: Path) -> dict:
    """Numbers from the outputs that the traced counters must agree with."""
    try:
        if workload.name == "validate-quick":
            manifest = json.loads((cwd / VALIDATE_MANIFEST).read_text(encoding="utf-8"))
            measured = {c["cid"]: c["measured"] for c in manifest["criteria"]}
            oracle_calls = sum(1 for k in measured[2] if k.startswith("mc_"))
            return {
                "runtime_s": {c["cid"]: c["runtime_s"] for c in manifest["criteria"]},
                "samples": measured[2]["samples"] * oracle_calls + measured[3]["samples"],
            }
        return {"exceedances": exceedance_rows(cwd / RUN_DIR)}
    except (ValueError, KeyError, OSError):
        return {}  # the output check has already failed the command


def mark_inconsistent(workload: Workload, seed: int, iterations: list[list[Outcome]], reference: dict) -> None:
    """Fail commands whose digests differ from the first repetition or the reference."""
    for outcomes in iterations:
        for first, outcome in zip(iterations[0], outcomes):
            if outcome.problem:
                continue
            if outcome.digests != first.digests:
                outcome.problem = "outputs differ from the first repetition"
            elif bad := reference_mismatches(workload, seed, outcome.digests, reference):
                outcome.problem = f"digests differ from reference.json: {', '.join(bad)}"


def trace_violations(metrics: list[dict], spans: list[list], facts: list[dict]) -> list[str]:
    """Breaks of the trace rules: exact counters repeat, self times fit in the top spans."""
    found = []
    first = {k: metrics[0][k] for k in layers.EXACT_COUNTERS}
    for i, (m, run_spans, fact) in enumerate(zip(metrics, spans, facts), 1):
        exact = {k: m[k] for k in layers.EXACT_COUNTERS}
        if exact != first:
            found.append(f"traced pass {i}: exact counters differ from pass 1: {exact} vs {first}")
        excess = layers.self_time_excess(run_spans)
        if excess > 1e-9:
            found.append(f"traced pass {i}: self times exceed the top spans by {excess:.3g} s")
        if "exceedances" in fact and fact["exceedances"] != m["simulate.run_experiment.exceedances"]:
            found.append(f"traced pass {i}: {fact['exceedances']} CSV rows, counter "
                         f"{m['simulate.run_experiment.exceedances']}")
        if "samples" in fact:
            counted = m["regions.monte_carlo_measure.samples"] + m["regions.separation_check.samples"]
            if counted != fact["samples"]:
                found.append(f"traced pass {i}: {counted} samples traced, manifest says {fact['samples']}")
        for cid, runtime in fact.get("runtime_s", {}).items():
            if cid <= 3:
                wall = m[f"acceptance.criterion_{cid}.wall_s"]
                if not runtime <= wall <= runtime + 0.01 + 0.02 * runtime:
                    found.append(f"traced pass {i}: criterion {cid} span {wall:.4f} s, "
                                 f"manifest runtime_s {runtime:.4f} s")
    return found


def measure_untraced(workload: Workload, seed: int, seconds: int, work: Path, reference: dict):
    env = child_env(work)
    run_python(["-c", "import extorus.cli"], work, env)  # untimed: compiles __pycache__
    setup: list[float] = []
    iterations: list[list[Outcome]] = []
    start = time.perf_counter()
    while len(iterations) < MIN_REPETITIONS or time.perf_counter() - start < seconds:
        wall, code, *_ = run_python(["-c", "import extorus.cli"], work, env)
        if code != 0:
            raise RuntimeError(f"import extorus.cli exited {code}")
        setup.append(wall)
        iterations.append(subprocess_iteration(workload, seed, env, work))
        print(f"repetition {len(iterations)}: setup {wall:.3f} s, "
              f"commands {sum(o.wall_s for o in iterations[-1]):.3f} s", flush=True)
    mark_inconsistent(workload, seed, iterations, reference)

    med = statistics.median
    values = {
        "wall_s": med(sum(o.wall_s for o in it) for it in iterations),
        "setup_s": med(setup),
        "work_per_s": med(workload.work_units / it[0].wall_s for it in iterations),
        "cpu_s": med(sum(o.cpu_s for o in it) for it in iterations),
        "peak_rss_mb": med(max(o.max_rss_kb for o in it) for it in iterations) / 1024.0,
    }
    return values, iterations, {"setup_s": setup}


def measure_traced(workload: Workload, seed: int, seconds: int, work: Path, reference: dict):
    os.environ.update(THREAD_ENV)
    os.environ.pop("EXTORUS_THREADS", None)
    sys.path.insert(0, str(SRC))
    import extorus.cli as cli

    iterations: list[list[Outcome]] = []
    untraced, traced, metrics, spans, facts, missing = [], [], [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        outcomes, _ = inprocess_iteration(cli, workload, seed, work, None)
        iterations.append(outcomes)
        untraced.append(sum(o.wall_s for o in outcomes))

        tracer = tracing.Tracer()
        try:
            missing = layers.install(tracer)
            outcomes, fact = inprocess_iteration(cli, workload, seed, work, tracer)
        finally:
            tracer.restore()
        iterations.append(outcomes)
        traced.append(sum(o.wall_s for o in outcomes))
        metrics.append(layers.layer_metrics(tracer.spans))
        spans.append(tracer.spans)
        facts.append(fact)
        print(f"pair {len(traced)}: untraced {untraced[-1]:.3f} s, traced {traced[-1]:.3f} s", flush=True)
    mark_inconsistent(workload, seed, iterations, reference)

    violations = trace_violations(metrics, spans, facts)
    for line in violations:
        print(f"trace violation: {line}", file=sys.stderr)
    if missing:
        print(f"not traced (not found): {', '.join(missing)}", file=sys.stderr)
    values = {k: statistics.median(m[k] for m in metrics) for k in metrics[0]}
    values["trace_overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    values["trace.violations"] = len(violations)
    own = tracing.self_times(spans[-1])
    detail = {
        "untraced_s": untraced,
        "traced_s": traced,
        "violations": violations,
        "missing_targets": missing,
        "spans": [dict(asdict(s), self_s=t) for s, t in zip(spans[-1], own)],
    }
    return values, iterations, detail


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_model": _cpu_model(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


class Stopped(BaseException):
    """Raised on SIGTERM so that every clean-up block runs; cli.main cannot catch it."""


def _terminate(signum, frame):
    raise Stopped(signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)  # so clean-up code runs when stopped
    if not (SRC / "extorus" / "cli.py").is_file():
        print(f"error: {SRC / 'extorus'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    cpus = len(os.sched_getaffinity(0))
    if WORKERS > cpus:
        print(f"error: the workloads use {WORKERS} workers but only {cpus} CPUs are available",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    env_block = environment()
    print(json.dumps({"environment": env_block}), flush=True)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        measure = measure_traced if args.trace else measure_untraced
        values, iterations, detail = measure(workload, args.seed, args.seconds, work, load_reference())
    finally:
        shutil.rmtree(work)
    env_block["loadavg_end"] = os.getloadavg()

    outcomes = [o for it in iterations for o in it]
    failed = [o for o in outcomes if o.problem]
    for o in failed:
        print(f"failed: extorus {' '.join(o.argv)}: {o.problem}", file=sys.stderr)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_block,
        "repetitions": [[asdict(o) for o in it] for it in iterations],
        "detail": detail,
        "metrics": metrics,
    }
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"loadavg_end": env_block["loadavg_end"], "report": str(path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Stopped as stop:
        sys.exit(128 + stop.args[0])
