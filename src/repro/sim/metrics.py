"""Metrics collection.

Benchmarks and the end-to-end scenario runner record counters (transactions
submitted, policies violated), gauges (pending transactions, stored copies),
and latency distributions (process completion times).  The registry keeps
everything in memory and renders compact report dictionaries.  The figures
the benchmarks record go to the ``BENCH_*.json`` artifacts instead
(``benchmarks/bench_helpers.py``), and the repository benchmark's per-layer
timings come from ``perfbench/``.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


class Counter:
    """Monotonically increasing counter."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def increment(self, amount: float = 1.0) -> float:
        if amount < 0:
            raise ValueError("counters can only increase")
        self._value += amount
        return self._value

    def to_dict(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self._value}


class Gauge:
    """Value that can go up and down (e.g. pending transactions)."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> float:
        self._value = float(value)
        return self._value

    def increment(self, amount: float = 1.0) -> float:
        self._value += amount
        return self._value

    def decrement(self, amount: float = 1.0) -> float:
        self._value -= amount
        return self._value

    def to_dict(self) -> dict:
        return {"type": "gauge", "name": self.name, "value": self._value}


class LatencyHistogram:
    """Collects individual observations and summarizes their distribution."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("latency observations must be non-negative")
        self._samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """Return the *q*-th percentile (0-100) using nearest-rank."""
        if not self._samples:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError("percentile must be within [0, 100]")
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    def summary(self) -> dict:
        if not self._samples:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": len(self._samples),
            "mean": statistics.fmean(self._samples),
            "min": min(self._samples),
            "max": max(self._samples),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def to_dict(self) -> dict:
        return {"type": "histogram", "name": self.name, **self.summary()}


class Timer:
    """Context manager recording elapsed wall-clock time into a histogram."""

    def __init__(self, histogram: LatencyHistogram):
        self._histogram = histogram
        self._start: Optional[float] = None
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
            self._histogram.observe(self.elapsed)


@dataclass
class MetricsRegistry:
    """Namespace of counters, gauges, and histograms for one simulation run."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    gauges: Dict[str, Gauge] = field(default_factory=dict)
    histograms: Dict[str, LatencyHistogram] = field(default_factory=dict)

    def counter(self, name: str, description: str = "") -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name, description)
        return self.counters[name]

    def gauge(self, name: str, description: str = "") -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name, description)
        return self.gauges[name]

    def histogram(self, name: str, description: str = "") -> LatencyHistogram:
        if name not in self.histograms:
            self.histograms[name] = LatencyHistogram(name, description)
        return self.histograms[name]

    def timer(self, name: str) -> Timer:
        return Timer(self.histogram(name))

    def __iter__(self) -> Iterator[dict]:
        for counter in self.counters.values():
            yield counter.to_dict()
        for gauge in self.gauges.values():
            yield gauge.to_dict()
        for histogram in self.histograms.values():
            yield histogram.to_dict()

    def report(self) -> dict:
        """Return a nested dictionary with every metric's current state."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary() for name, h in sorted(self.histograms.items())},
        }

    def reset(self) -> None:
        """Drop every metric, returning the registry to its initial state."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
