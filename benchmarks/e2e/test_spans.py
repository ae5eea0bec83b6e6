"""Attribution math on a synthetic span set."""

import pytest

from benchmarks.e2e import spans


def record(id_, parent, name, start, dur):
    return {"id": id_, "parent": parent, "name": name, "start": start,
            "dur": dur}


@pytest.fixture
def tree():
    # job (10s) -> run (6s) -> sim (3s), fit (1s); job -> build (2s)
    return [
        record(1, None, "job", 0.0, 10.0),
        record(2, 1, "run", 1.0, 6.0),
        record(3, 2, "sim", 1.5, 3.0),
        record(4, 2, "fit", 5.0, 1.0),
        record(5, 1, "build", 7.5, 2.0),
    ]


def test_attributed_fraction_counts_leaf_time_only(tree):
    assert {r["name"] for r in spans.leaves(tree)} == {"sim", "fit", "build"}
    assert spans.attributed_fraction([tree], wall=10.0) == pytest.approx(0.6)
    # The workload's wall time may exceed the root span.
    assert spans.attributed_fraction([tree], wall=12.0) == pytest.approx(0.5)
    # Several traced operations: leaf time and wall time both add up.
    assert spans.attributed_fraction([tree, tree], wall=20.0) == \
        pytest.approx(0.6)
    assert spans.totals_by_name(tree)["run"] == 6.0


def test_childless_root_explains_nothing():
    lone = [record(1, None, "serve.request", 0.0, 4.0)]
    assert spans.attributed_fraction([lone], wall=4.0) == 0.0


def test_replayed_leaf_is_clipped_to_parent_self_time(tree):
    run = tree[1]
    added = spans.add_leaf(tree, run, "stimulus", 1.5)
    assert added["dur"] == 1.5 and added["parent"] == run["id"]
    # Only 0.5 s of "run" is still unexplained.
    clipped = spans.add_leaf(tree, run, "classify", 1.5)
    assert clipped["dur"] == pytest.approx(0.5)
    assert spans.attributed_fraction([tree], wall=10.0) == pytest.approx(0.8)


def test_from_chrome_recovers_nesting_across_threads():
    events = [
        {"name": "serve.request", "ts": 0.0, "dur": 4000.0, "tid": 1},
        {"name": "batch.flush", "ts": 2500.0, "dur": 300.0, "tid": 2},
        {"name": "fit.update", "ts": 2600.0, "dur": 100.0, "tid": 2},
    ]
    records = spans.from_chrome(events)
    by_name = {r["name"]: r for r in records}
    assert by_name["serve.request"]["parent"] is None
    assert by_name["batch.flush"]["parent"] == by_name["serve.request"]["id"]
    assert by_name["fit.update"]["parent"] == by_name["batch.flush"]["id"]
    assert spans.leaf_time(records) == pytest.approx(100e-6)
