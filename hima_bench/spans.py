"""Span arithmetic for the traced run: self time, coverage, per-call stats.

Every function takes span records as exported by ``repro.obs.Tracer``
(dicts with ``span_id``, ``parent_id``, ``name``, ``t_start``, ``t_end``,
``pid``).  Times are ``time.perf_counter`` seconds; on Linux that clock is
system-wide, so spans adopted from worker processes share the parent's
time base.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

Interval = Tuple[float, float]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(intervals: Iterable[Interval], lo: float, hi: float) -> List[Interval]:
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


def self_times(records: Sequence[dict]) -> Dict[str, float]:
    """Per span name: summed duration minus the part its children cover.

    A child's interval is clipped to its parent's before the union is
    taken, so a child that runs later than its parent (``cluster.tick``
    parented on the submit it serves) takes nothing from the parent.
    """
    children: Dict[int, List[Interval]] = defaultdict(list)
    for record in records:
        if record["parent_id"] is not None:
            children[record["parent_id"]].append(
                (record["t_start"], record["t_end"])
            )
    out: Dict[str, float] = defaultdict(float)
    for record in records:
        t0, t1 = record["t_start"], record["t_end"]
        covered = union_length(_clip(children.get(record["span_id"], ()), t0, t1))
        out[record["name"]] += (t1 - t0) - covered
    return dict(out)


def uncovered_time(outer: Sequence[Interval], inner: Sequence[Interval]) -> float:
    """Summed length of ``outer`` intervals not covered by any ``inner`` one."""
    inner = sorted(inner)
    starts = [s for s, _ in inner]
    longest = max((e - s for s, e in inner), default=0.0)
    total = 0.0
    for lo, hi in outer:
        # Only inner intervals starting in [lo - longest, hi) can overlap.
        first = bisect.bisect_left(starts, lo - longest)
        last = bisect.bisect_left(starts, hi)
        covered = union_length(_clip(inner[first:last], lo, hi))
        total += (hi - lo) - covered
    return total


def durations(records: Sequence[dict], name: str) -> np.ndarray:
    """Durations in seconds of every span called ``name``."""
    return np.array(
        [r["t_end"] - r["t_start"] for r in records if r["name"] == name],
        dtype=float,
    )


def call_stats(records: Sequence[dict], name: str) -> Dict[str, float]:
    """``calls``, ``busy_s``, ``p50_ms`` and ``p99_ms`` of one span name."""
    d = durations(records, name)
    if d.size == 0:
        return {"calls": 0, "busy_s": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
    return {
        "calls": int(d.size),
        "busy_s": float(d.sum()),
        "p50_ms": float(np.percentile(d, 50) * 1e3),
        "p99_ms": float(np.percentile(d, 99) * 1e3),
    }


def intervals(records: Sequence[dict], name: str) -> List[Interval]:
    """``(t_start, t_end)`` of every span called ``name``."""
    return [(r["t_start"], r["t_end"]) for r in records if r["name"] == name]
