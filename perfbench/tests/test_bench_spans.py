"""Span arithmetic, namespace patching, and the metric list of record."""

import json
import re
from pathlib import Path

import layers
import rqsid.diagnostics
import rqsid.mitigation
import run
from rqsid.core import QuantizerConfig
from rqsid.diagnostics import Selector, token_histogram
from spans import Span, Target, Tracer, self_times

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        Span(1, "root", 0.0, 10.0, None, "r"),
        Span(2, "a", 1.0, 4.0, 1, "r"),
        Span(3, "a.leaf", 2.0, 3.0, 2, "r"),
        Span(4, "b", 5.0, 9.0, 1, "r"),
        # overlaps b; only its uncovered part [9, 9.5] counts against root
        Span(5, "c", 8.0, 9.5, 1, "r"),
        Span(6, "other-run-root", 20.0, 21.0, None, "r"),
    ]
    got = self_times(spans)
    assert got == {1: 10.0 - 3.0 - 4.0 - 0.5, 2: 2.0, 3: 1.0, 4: 4.0, 5: 1.5, 6: 1.0}


def test_install_patches_every_namespace_binding_the_function():
    original = rqsid.diagnostics.hourglass_report
    tracer = Tracer("t", clock=iter(range(100)).__next__)
    tracer.install([Target("rqsid.diagnostics", "hourglass_report", "h")])
    try:
        assert rqsid.mitigation.hourglass_report is rqsid.diagnostics.hourglass_report
        assert rqsid.hourglass_report is not original
        config = QuantizerConfig(num_layers=3, codebook_size=4, dim=2, seed=0)
        sids = [(0, 1, 2), (1, 1, 3), (2, 0, 3)]
        hist = token_histogram(sids, 2, 4)
        outcome = rqsid.mitigation.varlen_topk(sids, hist, Selector.top_k(1), config)
        rqsid.mitigation.post_mitigation_report(outcome, config)
    finally:
        tracer.uninstall()
    assert rqsid.diagnostics.hourglass_report is original
    assert rqsid.mitigation.hourglass_report is original
    assert tracer.calls("h") == 1
    assert layers.missing_calls(tracer, {"h", "never"}) == ["never"]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads(BENCHMARK.read_text())
    reported = {name: unit for name, (_, unit) in layers.layer_metrics(Tracer("e"), 0).items()}
    reported["trace_overhead_s"] = "s"  # added by run.py from both pipelines
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    # Every gated workload is defined; uniform-100k runs by hand only.
    assert {w["name"] for w in spec["workloads"]} < set(run.WORKLOADS)
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
