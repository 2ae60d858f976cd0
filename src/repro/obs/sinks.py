"""Emission sinks: Chrome trace events, metrics JSON, human summaries.

Three consumers, three formats:

* :func:`write_chrome_trace` — the Trace Event Format understood by
  ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_: one
  complete ("X") event per span, timestamped in microseconds, with the
  recording pid/tid preserved so parallel backends render as one row
  per worker;
* :func:`write_metrics_json` — a versioned JSON document with the full
  metrics registry plus per-span-name aggregates, the machine-readable
  form benches and CI gates consume;
* :func:`timings_summary` / :func:`provenance_timings` — fixed-width
  text for ``repro-rrs inspect --timings`` and interactive use.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .recorder import Recorder

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "metrics_document",
    "write_metrics_json",
    "timings_summary",
    "provenance_timings",
]

#: Format marker written into every metrics document.
METRICS_SCHEMA = "repro.obs/v1"


def chrome_trace_events(recorder: Recorder) -> List[Dict[str, Any]]:
    """Spans as Trace Event Format dicts (complete events, microseconds).

    Timestamps are rebased to the recorder's start so traces begin near
    t=0 regardless of machine uptime.
    """
    t0 = recorder.t0_ns
    events: List[Dict[str, Any]] = []
    for name, start, dur, pid, tid, attrs in recorder.spans():
        ev: Dict[str, Any] = {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": (start - t0) / 1e3,   # microseconds
            "dur": dur / 1e3,
            "pid": pid,
            "tid": tid,
        }
        if attrs:
            ev["args"] = attrs
        events.append(ev)
    return events


def write_chrome_trace(
    path: Union[str, Path],
    recorder: Recorder,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write the recorder's spans as a ``chrome://tracing`` JSON file."""
    doc: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(recorder),
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["otherData"] = metadata
    Path(path).write_text(json.dumps(doc))


def metrics_document(
    recorder: Recorder, extra: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The versioned metrics JSON document (sink + bench interchange)."""
    doc: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "metrics": recorder.metrics.as_dict(),
        "span_stats": recorder.span_stats(),
    }
    if extra:
        doc.update(extra)
    return doc


def write_metrics_json(
    path: Union[str, Path],
    recorder: Recorder,
    extra: Optional[Dict[str, Any]] = None,
) -> None:
    """Write the metrics registry (and span aggregates) as JSON."""
    Path(path).write_text(json.dumps(metrics_document(recorder, extra),
                                     indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Human-readable summaries
# ---------------------------------------------------------------------------
def _fmt_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:8.3f}s "
    if s >= 1e-3:
        return f"{s * 1e3:8.2f}ms"
    return f"{s * 1e6:8.1f}us"


def timings_summary(recorder: Recorder) -> str:
    """Fixed-width span/counter digest of a live recorder."""
    lines = ["span                                count      total       mean"]
    for name, agg in recorder.span_stats().items():
        lines.append(
            f"{name:<34} {agg['count']:>7} {_fmt_seconds(agg['total_s'])} "
            f"{_fmt_seconds(agg['mean_s'])}"
        )
    counters = recorder.metrics.as_dict()["counters"]
    if counters:
        lines.append("")
        lines.append("counter                                   value")
        for name in sorted(counters):
            lines.append(f"{name:<40} {counters[name]:>8}")
    return "\n".join(lines)


def provenance_timings(provenance: Dict[str, Any]) -> str:
    """Human digest of a saved surface's observability provenance.

    Renders whatever generation metadata the surface carries — engine,
    plan-cache deltas, region/level active sets, batched-FFT work, halo
    overhead, the serial sweep's noise-block cache, and a stamped
    ``obs_metrics`` snapshot — and says so when
    a block is absent rather than printing nothing.
    """
    lines: List[str] = []
    for key in ("method", "backend", "engine", "tiles", "noise_seed"):
        if key in provenance:
            lines.append(f"{key:<16} {provenance[key]}")
    if "halo_overhead" in provenance:
        lines.append(f"{'halo_overhead':<16} "
                     f"{float(provenance['halo_overhead']) * 100:.2f}%")
    pc = provenance.get("plan_cache")
    if pc:
        lookups = int(pc.get("hits", 0)) + int(pc.get("misses", 0))
        rate = int(pc.get("hits", 0)) / lookups if lookups else 0.0
        lines.append(
            f"{'plan_cache':<16} hits={pc.get('hits', 0)} "
            f"misses={pc.get('misses', 0)} hit_rate={rate:.1%}"
        )
    for key in ("regions", "levels"):
        row = provenance.get(key)
        if isinstance(row, dict):
            lines.append(
                f"{key:<16} active={row.get('active_total', 0)} "
                f"skipped={row.get('skipped_total', 0)} "
                f"single_kernel_tiles={row.get('single_kernel_tiles', 0)}"
            )
    for key in ("regions_active", "regions_skipped",
                "levels_active", "levels_skipped"):
        if key in provenance and not isinstance(provenance.get(key), dict):
            lines.append(f"{key:<16} {provenance[key]}")
    batch = provenance.get("batch_fft")
    if isinstance(batch, dict):
        lines.append(
            f"{'batch_fft':<16} forward={batch.get('forward_ffts', 0)} "
            f"inverse={batch.get('inverse_ffts', 0)} "
            f"blocks={batch.get('blocks', 0)}"
        )
    nc = provenance.get("noise_cache")
    if isinstance(nc, dict):
        lines.append(
            f"{'noise_cache':<16} draws={nc.get('draws', 0)} "
            f"hits={nc.get('hits', 0)} fallbacks={nc.get('fallbacks', 0)} "
            f"peak={int(nc.get('peak_bytes', 0)) / 2**20:.1f} MiB"
        )
    obs_metrics = provenance.get("obs_metrics")
    if isinstance(obs_metrics, dict):
        counters = obs_metrics.get("counters", {})
        if counters:
            lines.append("")
            lines.append("obs counter                               value")
            for name in sorted(counters):
                lines.append(f"{name:<40} {counters[name]:>8}")
    if not lines:
        return "no timing/provenance records in this surface"
    return "\n".join(lines)
