"""BENCHMARK.json and the runner declare the same workloads and metrics."""

import json

import pytest

from benchmarks.e2e import char, run, serve

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(char.JOBS) | set(serve.WORKLOADS) == set(run.WORKLOADS)


@pytest.mark.parametrize("section, declared", [
    ("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER),
])
def test_metrics_match(section, declared):
    listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}
    assert listed == declared


def test_runner_emits_exactly_the_declared_metrics():
    e2e = run.metric_block({name: 1.0 for name in run.END_TO_END}, False)
    layers = run.metric_block({}, True)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert all(v == {"value": 0.0, "unit": run.PER_LAYER[k][0]}
               for k, v in layers.items())
    with pytest.raises(ValueError):
        run.metric_block({"not_declared": 1.0}, True)
    with pytest.raises(KeyError):
        run.metric_block({"setup_s": 1.0}, False)


def test_command_and_paths():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
