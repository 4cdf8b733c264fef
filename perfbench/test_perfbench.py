"""Tests of the benchmark harness's pure parts: python -m pytest perfbench"""

import json
import math
import re
from pathlib import Path

import pytest

import layers
from tracing import Span, Tracer, self_times
from workloads import WORKLOADS, canonical_digest, drop_timing, reference_mismatches

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("top", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 6.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)
    assert layers.self_time_excess(spans) <= 1e-12


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span("top", 0.0, 10.0),
        Span("x", 2.0, 6.0, parent=0),
        Span("y", 4.0, 8.0, parent=0),
        Span("z", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    # overlapping siblings are the kind of trace the excess rule flags
    assert layers.self_time_excess(spans) > 0


def test_tracer_records_nested_spans_counters_and_restores():
    import types

    mod = types.SimpleNamespace()

    def inner(x):
        return x * 2

    def outer(x, scale=3):
        return mod.inner(x) * scale

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.patch(mod, "inner", tracer.wrap(inner, "m.inner", count=lambda a, r: {"seen": a["x"]}))
    tracer.patch(mod, "outer", tracer.wrap(outer, "m.outer", cpu=True,
                                           count=lambda a, r: {"scale": a["scale"]}))
    with tracer.span("top"):
        assert mod.outer(5) == 30
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("top", None), ("m.outer", 0), ("m.inner", 1)]
    assert tracer.spans[1].counters["scale"] == 3 and "cpu_s" in tracer.spans[1].counters
    assert tracer.spans[2].counters == {"seen": 5}


def test_layer_metrics_chunks_and_parallel_efficiency():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("simulate.run_experiment", 1.0, 5.0, parent=0,
             counters={"cpu_s": 6.0, "steps": 400, "exceedances": 7,
                       "process_pool.starts": 1, "process_pool.max_workers": 2,
                       "process_pool.tasks": 4}),
        Span("regions.monte_carlo_measure", 6.0, 8.0, parent=0,
             counters={"cpu_s": 2.0, "samples": 1000, "kind": "a_q"}),
    ]
    m = layers.layer_metrics(spans)
    assert m["simulate.run_experiment.chunks"] == 4
    assert m["simulate.run_experiment.parallel_eff"] == pytest.approx(6.0 / (4.0 * 2))
    assert m["simulate.run_experiment.steps_per_s"] == pytest.approx(100.0)
    assert m["regions.monte_carlo_measure.a_q.samples_per_s"] == pytest.approx(500.0)
    assert m["regions.monte_carlo_measure.ball.samples_per_s"] == 0.0
    assert m["process_pool.starts"] == 1 and m["process_pool.max_workers"] == 2


def test_drop_timing_removes_seconds_keys_at_any_depth():
    measured = {"samples": 10, "suite_wall_time_s": 3.2, "nested": [{"runtime_s": 1.0, "x": 1.5}]}
    assert drop_timing(measured) == {"samples": 10, "nested": [{"x": 1.5}]}


def test_canonical_digest_ignores_timing_and_key_order_but_not_values():
    a = {"mc_A_q1": 1.25e-4, "samples": 10, "runtime_s": 1.0}
    b = {"runtime_s": 99.0, "samples": 10, "mc_A_q1": 1.25e-4}
    assert canonical_digest(a) == canonical_digest(b)
    # one unit in the last place is a different record
    assert canonical_digest(a) != canonical_digest(dict(a, mc_A_q1=math.nextafter(1.25e-4, 1.0)))


def test_reference_applies_to_its_seed_and_always_to_quick_validate():
    reference = {"seed": 1, "orbit-long": {"exceedances.csv": "aa"}, "validate-quick": {"criterion_1": "bb"}}
    orbit, quick = WORKLOADS["orbit-long"], WORKLOADS["validate-quick"]
    assert reference_mismatches(orbit, 1, {"exceedances.csv": "zz"}, reference) == ["exceedances.csv"]
    assert reference_mismatches(orbit, 2, {"exceedances.csv": "zz"}, reference) == []
    assert reference_mismatches(quick, 7, {"criterion_1": "zz"}, reference) == ["criterion_1"]
    assert reference_mismatches(quick, 7, {"criterion_1": "bb"}, reference) == []


def test_names_are_well_formed_and_match_the_code():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    produced = set(layers.layer_metrics([])) | {"trace_overhead", "trace.violations"}
    assert {m["name"] for m in SPEC["per_layer"]} == produced
