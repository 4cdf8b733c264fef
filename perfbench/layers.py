"""Which extorus functions the traced run wraps, and the per-layer metrics.

The layers are the package's modules. Each layer is timed from outside,
by replacing the public functions the workloads call with traced
wrappers. A module that imported a function by name looks it up in its
own namespace, so the wrapper is put wherever the function is found.
Calls inside `formulas` itself are not wrapped: the formulas layer
counts the calls made into it by the other layers.
"""

from __future__ import annotations

import concurrent.futures
import inspect
import sys
from pathlib import Path

from tracing import Span, Tracer, self_times, subtree

REGION_KINDS = ("ball", "a_q", "q_kappa", "u_kappa")
CSV_FILES = ("exceedances.csv", "block_maxima.csv")


def _experiment(arguments: dict, records) -> dict:
    cfg = arguments["cfg"]
    return {
        "steps": cfg.trials * cfg.n,
        "exceedances": sum(len(r.exceedance_times) for r in records),
    }


def _clusters(arguments: dict, summaries) -> dict:
    return {"clusters": sum(len(s.cluster_sizes) for s in summaries)}


def _oracle(arguments: dict, estimate) -> dict:
    return {"samples": arguments["samples"], "kind": arguments["region"].kind.value}


def _separation(arguments: dict, separated) -> dict:
    return {"samples": arguments["samples"]}


def _elements(first: str, repeat: str | None = None):
    def count(arguments: dict, result) -> dict:
        times = arguments[repeat] if repeat else 1
        return {"elements": int(arguments[first].size) * times}

    return count


def _bytes_written(arguments: dict, code) -> dict:
    out = Path(arguments["args"].out)
    return {"bytes_written": sum((out / f).stat().st_size for f in CSV_FILES if (out / f).exists())}


# (module, function, span name, record CPU, counter function)
TARGETS = (
    ("simulate", "run_experiment", "simulate.run_experiment", True, _experiment),
    # counts the chunks run without a pool; pooled chunks are counted as pool tasks
    ("simulate", "_simulate_chunk", "simulate._simulate_chunk", False, None),
    ("simulate", "decluster_all", "simulate.decluster_all", False, _clusters),
    ("simulate", "chi_square_vs_pmf", "simulate.chi_square_vs_pmf", False, None),
    ("simulate", "gap_ks_statistic", "simulate.gap_ks_statistic", False, None),
    ("simulate", "empirical_multiplicity", "simulate.empirical_multiplicity", False, None),
    ("simulate", "ei_measure_ratio", "simulate.ei_measure_ratio", False, None),
    ("regions", "monte_carlo_measure", "regions.monte_carlo_measure", True, _oracle),
    ("regions", "separation_check", "regions.separation_check", False, _separation),
    ("torus", "advance_arrays", "torus.advance_arrays", False, _elements("px", "steps")),
    ("torus", "folded_offsets", "torus.folded_offsets", False, _elements("px")),
    ("torus", "metric_values", "torus.metric_values", False, _elements("dx")),
    ("acceptance", "criterion_1_formula_identities", "acceptance.criterion_1", False, None),
    ("acceptance", "criterion_2_oracle_equivalence", "acceptance.criterion_2", False, None),
    ("acceptance", "criterion_3_separation", "acceptance.criterion_3", False, None),
    ("cli", "cmd_simulate", "cli.cmd_simulate", False, _bytes_written),
    ("cli", "cmd_estimate", "cli.cmd_estimate", False, None),
)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "extorus" or name.startswith("extorus.")]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target wherever it is looked up; return the targets not found."""
    modules = _package_modules()
    missing = []
    wrapped = []
    for module, fn_name, span_name, cpu, count in TARGETS:
        home = sys.modules.get(f"extorus.{module}")
        original = getattr(home, fn_name, None)
        if original is None:
            missing.append(f"{module}.{fn_name}")
            continue
        wrapped.append((original, tracer.wrap(original, span_name, cpu, count), modules))

    formulas = sys.modules["extorus.formulas"]
    others = [m for m in modules if m is not formulas]
    for fn_name, original in inspect.getmembers(formulas, inspect.isfunction):
        if original.__module__ == formulas.__name__ and not fn_name.startswith("_"):
            wrapped.append((original, tracer.wrap(original, f"formulas.{fn_name}"), others))

    for original, traced, sites in wrapped:
        for module in sites:
            for attr, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, attr, traced)

    pool = concurrent.futures.ProcessPoolExecutor
    traced_pool = tracer.pool_class(pool)
    tracer.patch(concurrent.futures, "ProcessPoolExecutor", traced_pool)
    for module in modules:
        if getattr(module, "ProcessPoolExecutor", None) is pool:
            tracer.patch(module, "ProcessPoolExecutor", traced_pool)
    return missing


def _wall(spans: list[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _counter(spans: list[Span], name: str, key: str) -> float:
    return sum(s.counters.get(key, 0) for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run (0 for a layer the run never entered)."""
    m: dict[str, float] = {}
    own = self_times(spans)

    name = "simulate.run_experiment"
    wall, cpu = _wall(spans, name), _counter(spans, name, "cpu_s")
    chunks = 0
    pool_workers = 0
    for i, span in enumerate(spans):
        if span.name != name:
            continue
        below = [spans[j] for j in subtree(spans, i)]
        chunks += sum(1 for s in below if s.name == "simulate._simulate_chunk")
        chunks += sum(s.counters.get("process_pool.tasks", 0) for s in below)
        workers = max((s.counters.get("process_pool.max_workers", 0) for s in below), default=0)
        pool_workers = max(pool_workers, workers or 1)
    steps = _counter(spans, name, "steps")
    m[f"{name}.wall_s"] = wall
    m[f"{name}.cpu_s"] = cpu
    m[f"{name}.steps"] = steps
    m[f"{name}.steps_per_s"] = _ratio(steps, wall)
    m[f"{name}.exceedances"] = _counter(spans, name, "exceedances")
    m[f"{name}.chunks"] = chunks
    m[f"{name}.parallel_eff"] = _ratio(cpu, wall * pool_workers)

    for fn in ("decluster_all", "chi_square_vs_pmf", "gap_ks_statistic",
               "empirical_multiplicity", "ei_measure_ratio"):
        m[f"simulate.{fn}.wall_s"] = _wall(spans, f"simulate.{fn}")
    m["simulate.decluster_all.clusters"] = _counter(spans, "simulate.decluster_all", "clusters")

    name = "regions.monte_carlo_measure"
    wall, samples = _wall(spans, name), _counter(spans, name, "samples")
    m[f"{name}.wall_s"] = wall
    m[f"{name}.cpu_s"] = _counter(spans, name, "cpu_s")
    m[f"{name}.samples"] = samples
    m[f"{name}.samples_per_s"] = _ratio(samples, wall)
    for kind in REGION_KINDS:
        of_kind = [s for s in spans if s.name == name and s.counters.get("kind") == kind]
        m[f"{name}.{kind}.samples_per_s"] = _ratio(
            sum(s.counters["samples"] for s in of_kind), sum(s.duration for s in of_kind)
        )
    m["regions.separation_check.wall_s"] = _wall(spans, "regions.separation_check")
    m["regions.separation_check.samples"] = _counter(spans, "regions.separation_check", "samples")

    for fn in ("advance_arrays", "folded_offsets", "metric_values"):
        name = f"torus.{fn}"
        m[f"{name}.calls"] = sum(1 for s in spans if s.name == name)
        m[f"{name}.elements"] = _counter(spans, name, "elements")
        m[f"{name}.wall_s"] = _wall(spans, name)

    formulas = [s for s in spans if s.name.startswith("formulas.")]
    m["formulas.calls"] = len(formulas)
    m["formulas.wall_s"] = sum(s.duration for s in formulas)

    for cid in (1, 2, 3):
        m[f"acceptance.criterion_{cid}.wall_s"] = _wall(spans, f"acceptance.criterion_{cid}")

    for cmd in ("cmd_simulate", "cmd_estimate"):
        m[f"cli.{cmd}.self_s"] = sum(t for s, t in zip(spans, own) if s.name == f"cli.{cmd}")
    m["cli.simulate.bytes_written"] = _counter(spans, "cli.cmd_simulate", "bytes_written")

    m["process_pool.starts"] = sum(s.counters.get("process_pool.starts", 0) for s in spans)
    m["process_pool.max_workers"] = max(
        (s.counters.get("process_pool.max_workers", 0) for s in spans), default=0
    )
    return m


# Counters that must repeat bit-for-bit between runs of the same inputs.
EXACT_COUNTERS = (
    "simulate.run_experiment.steps",
    "simulate.run_experiment.exceedances",
    "simulate.decluster_all.clusters",
    "regions.monte_carlo_measure.samples",
    "regions.separation_check.samples",
    "cli.simulate.bytes_written",
    "process_pool.starts",
)


def self_time_excess(spans: list[Span]) -> float:
    """How far the summed self times exceed the top spans' wall (<= 0 when sound)."""
    top = sum(s.duration for s in spans if s.parent is None)
    return sum(self_times(spans)) - top
