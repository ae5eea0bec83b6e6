"""Attribution math over span records.

A record is a dict with ``id``, ``parent`` (``None`` for a root), ``name``,
``start`` and ``dur`` (seconds), the shape ``repro.obs.TraceContext``
records already have.  A span's *self time* is its duration minus its
children's; *attributed* time is the total duration of leaf spans, the
spans nothing else was measured inside.  A root with no children is not
counted: it only restates the operation's own duration.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

Record = Dict[str, Any]


def children_of(records: Iterable[Record]) -> Dict[Any, List[Record]]:
    """Parent id -> child records."""
    children: Dict[Any, List[Record]] = {}
    for record in records:
        if record.get("parent") is not None:
            children.setdefault(record["parent"], []).append(record)
    return children


def leaves(records: List[Record]) -> List[Record]:
    """Non-root records with no children."""
    parents = children_of(records)
    return [r for r in records
            if r["id"] not in parents and r.get("parent") is not None]


def leaf_time(records: List[Record]) -> float:
    """Total duration of the leaf spans."""
    return sum(r["dur"] for r in leaves(records))


def attributed_fraction(traces: Iterable[List[Record]],
                        wall: float) -> float:
    """Leaf time of every trace over ``wall``, their measured wall time."""
    if wall <= 0:
        raise ValueError("wall time must be positive")
    return sum(map(leaf_time, traces)) / wall


def totals_by_name(records: Iterable[Record]) -> Dict[str, float]:
    """Span name -> summed duration."""
    totals: Dict[str, float] = {}
    for record in records:
        name = record["name"]
        totals[name] = totals.get(name, 0.0) + record["dur"]
    return totals


def add_leaf(records: List[Record], parent: Record, name: str,
             dur: float) -> Record:
    """Append a measured-from-outside leaf under ``parent``.

    Used for work the program does not span itself but the benchmark can
    time by replaying it.  The duration is clipped to the parent's
    remaining self time, so a noisy replay can never attribute more time
    than the parent actually spent.
    """
    covered = sum(
        r["dur"] for r in records if r.get("parent") == parent["id"]
    )
    dur = max(0.0, min(dur, parent["dur"] - covered))
    record = {
        "id": max(r["id"] for r in records) + 1,
        "parent": parent["id"],
        "name": name,
        "start": parent["start"],
        "dur": dur,
    }
    records.append(record)
    return record


def from_chrome(events: Iterable[Dict[str, Any]]) -> List[Record]:
    """Records from Chrome trace events (microseconds, no parent ids).

    Parents are recovered by interval containment: each event's parent is
    the shortest other event that encloses it, whatever thread ran it
    (the server hands batch flushes to an executor thread).
    """
    records = [
        {"id": index, "parent": None, "name": event["name"],
         "start": event["ts"] / 1e6, "dur": event["dur"] / 1e6}
        for index, event in enumerate(events)
    ]
    for record in records:
        end = record["start"] + record["dur"]
        best: Optional[Record] = None
        for other in records:
            if other is record or other["dur"] < record["dur"]:
                continue
            if other["dur"] == record["dur"] and other["id"] > record["id"]:
                continue  # equal intervals: the earlier record encloses
            if (other["start"] <= record["start"]
                    and end <= other["start"] + other["dur"]):
                if best is None or other["dur"] < best["dur"]:
                    best = other
        record["parent"] = best["id"] if best is not None else None
    return records
