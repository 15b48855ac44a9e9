"""A label-aware metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the quantitative half of the observability layer (the other
half is the span trace in :mod:`repro.obs.trace`).  Executors, the SSA
tracer, the redo phase and the database cache all publish into one registry
per instrumented block run, and the CLI/benchmark harness export it as JSON
alongside the simulated makespans.

Design constraints:

- **Zero cost when absent.**  Nothing in the execution stack creates a
  registry on its own; every instrumentation site is guarded by an
  ``if metrics is not None`` (or holds a pre-resolved metric object), so
  uninstrumented runs execute exactly the pre-observability code path.
- **Deterministic export.**  ``as_dict()`` orders series by (name, labels);
  two identical runs serialise to byte-identical JSON.
- **Simulated time.**  All ``*_us`` series hold simulated microseconds, not
  wall clock — the registry never reads a real clock.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Iterator, Sequence

LabelKey = tuple[tuple[str, str], ...]

#: The label value every folded series lands on once a series name hits
#: its cardinality limit (see ``MetricsRegistry(label_limit=...)``).
OVERFLOW_LABEL = "(overflow)"

#: The per-name label-set bound of the long-run harness registries (soak
#: and ingress): per-sender series stay O(limit) on 100k-account streams.
HARNESS_LABEL_LIMIT = 512


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (events, entries, conflicts)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def as_value(self):
        return self.value


class Gauge:
    """A point-in-time value (utilization, makespan, cache size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def as_value(self):
        return self.value


class Histogram:
    """A fixed-bucket histogram (redo-slice sizes, span durations).

    ``buckets`` are upper edges; one implicit overflow bucket catches
    everything above the last edge.  Tracks count and sum so means are
    recoverable without the raw samples.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Sequence[float]) -> None:
        edges = list(buckets)
        if edges != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def bucket_bounds(self) -> list[list]:
        # Explicit [lower, upper) boundaries for every exported count, with
        # "-inf"/"+inf" string sentinels at the open ends.  A value equal
        # to an edge lands in the bucket whose *lower* bound it is
        # (``bisect_right`` semantics), matching ``observe``.
        edges: list = ["-inf"] + list(self.buckets) + ["+inf"]
        return [[edges[i], edges[i + 1]] for i in range(len(edges) - 1)]

    def as_value(self) -> dict:
        # The overflow bucket is exported with an explicit "+inf" upper
        # edge so buckets and counts pair one-to-one: consumers that zip
        # them can no longer silently drop everything above the last
        # finite edge (multi-ms cold-read spans used to vanish this way).
        # ``bounds`` pairs each count with its full [lower, upper) range so
        # JSONL consumers can recompute quantiles without importing repro.
        return {
            "buckets": list(self.buckets) + ["+inf"],
            "bounds": self.bucket_bounds(),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Holds every metric series of one instrumented run, keyed by labels.

    ``label_limit`` (optional) bounds the number of *distinct label sets*
    each series name may hold; once a name is at its limit, further label
    sets fold into one explicit overflow series whose every label value is
    :data:`OVERFLOW_LABEL`.  This is the cardinality guard for per-sender
    and per-key series under 100k-account streams: memory stays O(limit)
    per name, the folded totals stay correct, and the overflow series
    makes the truncation visible instead of silent.  ``None`` (default)
    keeps the registry unbounded — existing callers are byte-identical.
    """

    def __init__(self, label_limit: int | None = None) -> None:
        if label_limit is not None and label_limit <= 0:
            raise ValueError("label_limit must be positive (or None)")
        self.label_limit = label_limit
        self._series: dict[tuple[str, LabelKey], Counter | Gauge | Histogram] = {}
        # Per-series baseline of the previous window_snapshot() call.
        self._window_base: dict[tuple[str, LabelKey], object] = {}
        # Distinct non-overflow label sets per series name, and how many
        # creations each name has folded into its overflow series.
        self._label_counts: dict[str, int] = {}
        self._overflow: dict[str, int] = {}

    # ------------------------------------------------------------ creation

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(name, labels, Counter, lambda: Counter())

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(name, labels, Gauge, lambda: Gauge())

    def histogram(
        self, name: str, buckets: Sequence[float], **labels: str
    ) -> Histogram:
        return self._get(name, labels, Histogram, lambda: Histogram(buckets))

    def _get(self, name, labels, kind, factory):
        key = (name, _label_key(labels))
        metric = self._series.get(key)
        if metric is None:
            # Creation path only: the hot path (series exists) pays one
            # dict lookup exactly as before the cardinality guard.
            if (
                self.label_limit is not None
                and labels
                and self._label_counts.get(name, 0) >= self.label_limit
            ):
                self._overflow[name] = self._overflow.get(name, 0) + 1
                key = (name, tuple((k, OVERFLOW_LABEL) for k in sorted(labels)))
                metric = self._series.get(key)
                if metric is None:
                    metric = self._series[key] = factory()
            else:
                if labels:
                    self._label_counts[name] = (
                        self._label_counts.get(name, 0) + 1
                    )
                metric = self._series[key] = factory()
        elif type(metric) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    # ------------------------------------------------------------- reading

    def overflow_counts(self) -> dict[str, int]:
        """``series-name -> creations folded into its overflow bucket``."""
        return dict(sorted(self._overflow.items()))

    def __len__(self) -> int:
        return len(self._series)

    def series(self) -> Iterator[tuple[str, LabelKey, object]]:
        """All series in deterministic (name, labels) order."""
        for (name, key), metric in sorted(self._series.items()):
            yield name, key, metric

    def value(self, name: str, **labels: str):
        """The exported value of one series (None if never created)."""
        metric = self._series.get((name, _label_key(labels)))
        return None if metric is None else metric.as_value()

    def sum_by_name(self, name: str) -> float:
        """Sum of a counter/gauge series across all label combinations."""
        total = 0.0
        for (series_name, _), metric in self._series.items():
            if series_name == name and not isinstance(metric, Histogram):
                total += metric.as_value()
        return total

    def labelled_values(self, name: str) -> dict[LabelKey, object]:
        """``labels -> value`` for every series under ``name``."""
        return {
            key: metric.as_value()
            for (series_name, key), metric in self._series.items()
            if series_name == name
        }

    def kinds(self) -> dict[str, str]:
        """``series-name -> "counter" | "gauge" | "histogram"`` for every
        series, letting snapshot consumers filter by metric semantics."""
        return {
            _series_name(name, key): type(metric).__name__.lower()
            for name, key, metric in self.series()
        }

    def window_snapshot(self) -> dict:
        """A delta-since-last-snapshot view of every series.

        Counters report the increase since the previous call (the first
        call reports their full value); histograms likewise report delta
        counts/count/sum alongside their (constant) bucket boundaries;
        gauges report their current value — a delta of a point-in-time
        reading means nothing.  Keys and ordering match :meth:`as_dict`,
        so windowed rates need no caller-side diffing of cumulative
        counters.  Calling this advances the window baseline.
        """
        snapshot: dict = {}
        for name, key, metric in self.series():
            series = _series_name(name, key)
            if isinstance(metric, Counter):
                base = self._window_base.get((name, key), 0)
                snapshot[series] = metric.value - base
                self._window_base[(name, key)] = metric.value
            elif isinstance(metric, Histogram):
                base_counts, base_count, base_sum = self._window_base.get(
                    (name, key), ([0] * len(metric.counts), 0, 0.0)
                )
                snapshot[series] = {
                    "buckets": list(metric.buckets) + ["+inf"],
                    "bounds": metric.bucket_bounds(),
                    "counts": [
                        now - before
                        for now, before in zip(metric.counts, base_counts)
                    ],
                    "count": metric.count - base_count,
                    "sum": metric.sum - base_sum,
                }
                self._window_base[(name, key)] = (
                    list(metric.counts),
                    metric.count,
                    metric.sum,
                )
            else:
                snapshot[series] = metric.value
        return snapshot

    # ------------------------------------------------------------- export

    def as_dict(self) -> dict:
        """A flat, deterministically ordered ``series-name -> value`` dict."""
        return {
            _series_name(name, key): metric.as_value()
            for name, key, metric in self.series()
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def fold_counters(registry: MetricsRegistry, values: dict | None = None) -> dict:
    """Non-zero counter values with labelled series folded into base names.

    ``values`` is a ``series-name -> value`` view of ``registry`` —
    :meth:`MetricsRegistry.as_dict` (the default: cumulative totals) or
    :meth:`MetricsRegistry.window_snapshot` (per-window deltas).  Gauges
    and histograms are skipped.
    """
    if values is None:
        values = registry.as_dict()
    kinds = registry.kinds()
    counters: dict = {}
    for series, value in values.items():
        if kinds.get(series) != "counter" or not value:
            continue
        base = series.split("{", 1)[0]
        counters[base] = counters.get(base, 0) + value
    return counters
