"""Metric arithmetic, kept free of process handling so it can be tested alone."""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Sequence

from tracer import TARGETS, Stat

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

_EXTRA_UNITS = {"hit_ratio": "ratio", "terms_out": "count", "cells": "count",
                "p50_ms": "ms", "p90_ms": "ms"}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    spec = []
    for target in TARGETS:
        spec.append((f"{target.name}.calls", "count", "lower"))
        spec.append((f"{target.name}.self_s", "s", "lower"))
        for extra in target.extra:
            better = "higher" if extra == "hit_ratio" else "lower"
            spec.append((f"{target.name}.{extra}", _EXTRA_UNITS[extra], better))
    spec += [
        ("torsion.sweep.points_per_s", "1/s", "higher"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def setup_seconds(wall_s: float, payload: dict | None) -> float:
    """Time to a verdict not spent inside any reported check."""
    if payload is None:
        return wall_s
    return wall_s - sum(r.get("elapsedMs", 0) for r in payload["reports"]) / 1000


def relative_speed(probe_s: Sequence[float], reference_s: float) -> float:
    """The host's mean speed over the probes, relative to one where a probe takes reference_s.

    Probes are taken at a fixed interval, so the mean of the per-probe
    speeds is the share of reference work the host did per second.
    """
    return sum(reference_s / p for p in probe_s) / len(probe_s)


def fail_ratio(passed: dict[str, bool]) -> float:
    return sum(not ok for ok in passed.values()) / len(passed)


def sweep_points_per_s(payload: dict | None, density_check_id: str | None) -> float:
    """Sampled points per second of the density check; 0 when there is no sweep."""
    if payload is None or density_check_id is None:
        return 0.0
    elapsed = next((r.get("elapsedMs", 0) for r in payload["reports"]
                    if r["checkId"] == density_check_id), 0)
    return len(payload.get("points", [])) / (elapsed / 1000) if elapsed else 0.0


def layer_metrics(snapshot: dict[str, dict], traced_wall_s: float,
                  overhead_s: float, points_per_s: float) -> dict[str, float]:
    """Per-layer figures from one traced run's aggregates.

    traced_wall_s is the traced child's raw wall time, comparable with the
    self times measured inside it; overhead_s is traced minus untraced wall
    time, both at reference speed.
    """
    out: dict[str, float] = {}
    total_self_ns = 0
    for target in TARGETS:
        stat = snapshot.get(target.name) or asdict(Stat())
        calls = stat["calls"]
        total_self_ns += stat["self_ns"]
        durations_ms = [d / 1e6 for d in stat["durations_ns"] or ()]
        extras = {
            "hit_ratio": stat["hits"] / calls if calls else 0.0,
            "terms_out": stat["amount"],
            "cells": stat["amount"],
            "p50_ms": percentile(durations_ms, 50),
            "p90_ms": percentile(durations_ms, 90),
        }
        out[f"{target.name}.calls"] = calls
        out[f"{target.name}.self_s"] = stat["self_ns"] / 1e9
        for extra in target.extra:
            out[f"{target.name}.{extra}"] = extras[extra]
    out["torsion.sweep.points_per_s"] = points_per_s
    out["trace.unattributed_s"] = traced_wall_s - total_self_ns / 1e9
    out["trace.overhead_s"] = overhead_s
    return out
