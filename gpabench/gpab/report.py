"""What a run reports, and how it prints it."""

from __future__ import annotations

import json
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from gpab.host import HostSpeed
from gpab.stats import median, tail

Metric = Tuple[float, str]

#: End-to-end metrics every workload reports (the ones ``BENCHMARK.json``
#: gates), times in reference-host seconds (see ``gpab/host.py``).  The workload-specific ones,
#: and the raw values as ``<name>.raw``, are printed where they apply.
GATED_METRICS = (
    "setup_s", "requests_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb",
)


@dataclass
class Outcome:
    workload: str
    speed: HostSpeed = field(default_factory=HostSpeed)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.mismatches and self.attempted > 0


def add_time(outcome: Outcome, name: str, seconds: float, raw_seconds: float,
             unit: str = "s", scale: float = 1.0) -> None:
    """``name`` in reference-host time, and ``name.raw``."""
    outcome.metrics[name] = (seconds * scale, unit)
    outcome.metrics[f"{name}.raw"] = (raw_seconds * scale, unit)


def add_rate(outcome: Outcome, name: str, count: float, seconds: float, raw_seconds: float,
             unit: str) -> None:
    """``count`` per reference-host second, and per raw second."""
    outcome.metrics[name] = (count / seconds, unit)
    outcome.metrics[f"{name}.raw"] = (count / raw_seconds, unit)


def add_latencies(outcome: Outcome, seconds: Sequence[float], raw_seconds: Sequence[float],
                  suffix: str = "") -> None:
    """Median and tail latency in ms, scaled and raw; the tail's
    percentile and the sample count go into the outcome's notes."""
    pct, value = tail(seconds)
    outcome.note(f"latency_tail_ms{suffix} is p{pct:.4g} of {len(seconds)} samples")
    add_time(outcome, f"latency_p50_ms{suffix}", median(seconds), median(raw_seconds), "ms", 1e3)
    add_time(outcome, f"latency_tail_ms{suffix}", value, tail(raw_seconds)[1], "ms", 1e3)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def render(outcome: Outcome, trace: bool, record: dict) -> List[str]:
    """The human-readable lines; the last line is the JSON result."""
    lines = [f"== {outcome.workload} (seed {record['seed']}, trace {int(trace)})"]
    host = record["host"]
    speed = outcome.speed
    lines.append(
        f"host: {host['cpu_model']} x{host['nproc']}, Python {host['python']}, "
        f"numpy {host['numpy']}; calibration {speed.median_sample_s * 1e3:.4f} ms median of "
        f"{len(speed.samples)} samples (reference-host seconds per raw second "
        f"{speed.factor:.4f})"
    )
    for name, (value, unit) in outcome.metrics.items():
        lines.append(f"{name:<28} {value:>16.6g} {unit}")
    failed_ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    lines.append(f"{'failed_ratio':<28} {failed_ratio:>16.6g} ratio "
                 f"({outcome.failed} of {outcome.attempted})")
    for name, (value, unit) in outcome.layers.items():
        lines.append(f"{name:<28} {value:>16.6g} {unit}")
    for text in outcome.notes:
        lines.append(f"note: {text}")
    for text in outcome.mismatches[:20]:
        lines.append(f"WRONG: {text}")
    chosen = outcome.layers if trace else {
        name: outcome.metrics[name] for name in GATED_METRICS
    }
    lines.append(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()
        },
    }))
    return lines
