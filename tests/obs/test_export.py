"""Trace exporters: Chrome trace_event JSON, span summaries, text tree."""

import json

from repro.obs import (
    TraceContext,
    chrome_trace,
    profile_tree,
    span,
    span_summary,
    trace,
    validate_chrome,
    write_chrome,
)
from repro.obs.export import request_trace


def _sample_trace():
    with trace("root", run=1) as ctx:
        with span("phase.a", rows=10):
            with span("unit"):
                pass
            with span("unit"):
                pass
        with span("phase.b", note="x", skipme=object()):
            pass
    return ctx


def test_chrome_trace_structure_and_validation():
    ctx = _sample_trace()
    obj = chrome_trace(ctx)
    assert validate_chrome(obj) == []
    assert obj["displayTimeUnit"] == "ms"
    assert obj["otherData"]["trace_id"] == ctx.trace_id
    assert "repro_spans_recorded_total" in obj["otherData"]["counters"]
    # A served request's trace block leaves the process-wide counters out.
    summary, chrome = request_trace(ctx)
    assert summary == span_summary(ctx)
    assert chrome["otherData"] == {"trace_id": ctx.trace_id}
    assert chrome["traceEvents"] == obj["traceEvents"]
    events = obj["traceEvents"]
    assert len(events) == 5
    assert {e["ph"] for e in events} == {"X"}
    assert min(e["ts"] for e in events) == 0  # rebased to earliest span
    root = [e for e in events if e["name"] == "root"][0]
    assert root["args"]["run"] == 1
    # Non-JSON attribute values are dropped, scalars survive.
    phase_b = [e for e in events if e["name"] == "phase.b"][0]
    assert phase_b["args"] == {"note": "x"}
    # The root span covers its children on the rebased timeline.
    for event in events:
        assert root["ts"] <= event["ts"]
        assert event["ts"] + event["dur"] <= root["ts"] + root["dur"] + 1


def test_validate_chrome_flags_problems():
    assert validate_chrome({}) != []
    assert validate_chrome({"traceEvents": []}) != []
    missing_dur = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 1}
    ]}
    assert any("dur" in p for p in validate_chrome(missing_dur))
    bad_ts = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": "soon", "dur": 1, "pid": 1, "tid": 1}
    ]}
    assert validate_chrome(bad_ts) != []


def test_write_chrome_roundtrip(tmp_path):
    ctx = _sample_trace()
    path = tmp_path / "trace.json"
    write_chrome(ctx, path)
    loaded = json.loads(path.read_text())
    assert validate_chrome(loaded) == []
    assert len(loaded["traceEvents"]) == 5


def test_span_summary_aggregates_by_name():
    summary = span_summary(_sample_trace())
    assert summary["unit"]["count"] == 2
    assert summary["phase.a"]["count"] == 1
    assert summary["root"]["total_s"] >= summary["phase.a"]["total_s"]
    assert summary["unit"]["max_s"] <= summary["unit"]["total_s"] + 1e-12


def test_profile_tree_renders_nesting():
    tree = profile_tree(_sample_trace())
    lines = tree.splitlines()
    assert lines[0].startswith("root")
    assert any(line.startswith("  phase.a") for line in lines)
    assert any(line.startswith("    unit") for line in lines)
    unit_line = next(line for line in lines if "unit" in line)
    assert "2x" in unit_line


def test_profile_tree_empty_context():
    assert "no spans" in profile_tree(TraceContext())
