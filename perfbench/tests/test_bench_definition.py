"""BENCHMARK.json names exactly the workloads and metrics the harness reports."""

import json
from pathlib import Path

import spans
import workloads

DEFINITION = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text("utf-8"))


def test_workloads_match():
    assert DEFINITION["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]


def test_per_layer_metrics_match():
    assert DEFINITION["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better in spans.PER_LAYER
    ]


def test_end_to_end_metrics_are_the_reported_ones():
    names = {m["name"] for m in DEFINITION["end_to_end"]}
    assert names == {"setup_s", "wall_s", "peak_rss_mb"}
    bounds = {m["name"]: m["bound"] for m in DEFINITION["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
