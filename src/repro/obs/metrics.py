"""Metrics primitives: counters, gauges, histograms, and a registry.

Prometheus-flavoured but dependency-free and aware that this codebase
measures *virtual* time: nothing here ever reads the wall clock, so
recording a metric costs zero simulated seconds.  A metric is created
once on a :class:`MetricsRegistry` and then addressed through labelled
children::

    registry = MetricsRegistry()
    hits = registry.counter("cache_hits_total", labelnames=("owner",))
    hits.labels(owner="client").inc()

There is no process-global registry: every testbed builds a private
:class:`MetricsRegistry` of its own so two scenarios in one process
never share counters (see :mod:`repro.obs`).
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, Optional, Sequence, Union


class MetricError(Exception):
    """Metric misuse (name clash, bad labels, negative counter step)."""


#: Default ceiling on labelled children per metric family.  At fleet
#: scale a carelessly-labelled metric (say, one child per request id)
#: would grow client memory without bound; creation past the cap is a
#: hard :class:`MetricError` rather than a silent leak.
DEFAULT_MAX_CHILDREN = 10_000


def format_series(
    name: str, labelnames: Sequence[str], labelvalues: Sequence[str]
) -> str:
    """Canonical ``name{label=value,...}`` series key (snapshot format).

    Shared by :meth:`MetricsRegistry.snapshot` and the fleet telemetry
    reporter so a series is addressed identically on both ends of the
    wire.
    """
    if not labelnames:
        return name
    body = ",".join(f"{ln}={lv}" for ln, lv in zip(labelnames, labelvalues))
    return f"{name}{{{body}}}"


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile(..., method="linear")``: for a sorted
    sample ``v[0..n-1]`` the rank is ``(n - 1) * p / 100`` and the
    result interpolates between the two straddling observations.
    """
    if not values:
        raise MetricError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise MetricError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (p / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


class _Child:
    """One labelled series of a metric."""

    __slots__ = ("labelvalues",)

    def __init__(self, labelvalues: tuple[str, ...]) -> None:
        self.labelvalues = labelvalues


class CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, labelvalues: tuple[str, ...]) -> None:
        super().__init__(labelvalues)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a Gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class GaugeChild(_Child):
    __slots__ = ("_fn",)

    def __init__(self, labelvalues: tuple[str, ...]) -> None:
        super().__init__(labelvalues)
        self._fn: Optional[Callable[[], float]] = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Make this gauge a live view: ``fn()`` is called at read time.

        This is how pre-existing plain-attribute counters (e.g.
        ``RoverServer.imports_served``) are surfaced through the
        registry without rewriting every increment site.
        """
        self._fn = fn

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else 0.0


#: Default latency-ish buckets (seconds), spanning a LAN RPC to a
#: long disconnection.  Exported snapshots report cumulative counts.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 600.0,
)


class HistogramChild(_Child):
    __slots__ = ("_values", "buckets", "bucket_counts", "_sum")

    def __init__(
        self, labelvalues: tuple[str, ...], buckets: tuple[float, ...]
    ) -> None:
        super().__init__(labelvalues)
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self._values: list[float] = []
        self._sum = 0.0

    def observe(self, value: float) -> None:
        self._values.append(value)
        self._sum += value
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, p: float) -> float:
        """Exact percentile from the raw observations (not buckets)."""
        return percentile(self._values, p)

    def values(self) -> list[float]:
        return list(self._values)


class Metric:
    """A named family of labelled children (one kind: counter/gauge/histogram)."""

    __slots__ = ("name", "help", "labelnames", "max_children", "_children")

    child_class: type = CounterChild
    kind = "counter"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_children: Optional[int] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.max_children = (
            DEFAULT_MAX_CHILDREN if max_children is None else int(max_children)
        )
        #: None, the only child itself, or (from the second child on) a
        #: dict by label values: a fleet client's private registry has
        #: ~30 families and nearly all label one series, its own host.
        self._children: Union[None, _Child, dict[tuple[str, ...], _Child]] = None

    def labels(self, **labelvalues: str) -> _Child:
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        # Several lookups per QRPC: C-level maps, not a generator frame
        # per label.
        key = tuple(map(str, map(labelvalues.__getitem__, self.labelnames)))
        held = self._children
        if type(held) is dict:
            child = held.get(key)
            if child is None:
                child = held[key] = self._new_child(key, len(held))
        elif held is None:
            child = self._children = self._new_child(key, 0)
        elif held.labelvalues == key:
            child = held
        else:
            child = self._new_child(key, 1)
            self._children = {held.labelvalues: held, key: child}
        return child

    def _new_child(self, key: tuple[str, ...], existing: int) -> _Child:
        if existing >= self.max_children:
            raise MetricError(
                f"{self.name}: label cardinality cap reached "
                f"({self.max_children} children); check for an "
                f"unbounded label (request ids, timestamps, ...)"
            )
        return self._make_child(key)

    def _make_child(self, key: tuple[str, ...]) -> _Child:
        return self.child_class(key)

    @property
    def default(self) -> _Child:
        """The unlabelled series (only for metrics without labelnames)."""
        if self.labelnames:
            raise MetricError(f"{self.name} requires labels {self.labelnames}")
        return self.labels()

    def children(self) -> Iterable[tuple[tuple[str, ...], _Child]]:
        held = self._children
        if type(held) is dict:
            return list(held.items())
        return [] if held is None else [(held.labelvalues, held)]

    # convenience passthroughs for unlabelled metrics
    def inc(self, amount: float = 1.0) -> None:
        self.default.inc(amount)  # type: ignore[attr-defined]


class Counter(Metric):
    __slots__ = ()
    child_class = CounterChild
    kind = "counter"

    @property
    def value(self) -> float:
        return sum(child.value for __, child in self.children())  # type: ignore[attr-defined]


class Gauge(Metric):
    __slots__ = ()
    child_class = GaugeChild
    kind = "gauge"


class Histogram(Metric):
    __slots__ = ("buckets",)
    child_class = HistogramChild
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        max_children: Optional[int] = None,
    ) -> None:
        super().__init__(name, help, labelnames, max_children=max_children)
        self.buckets = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS

    def _make_child(self, key: tuple[str, ...]) -> HistogramChild:
        return HistogramChild(key, self.buckets)


class MetricsRegistry:
    """A namespace of metrics.

    Registration is idempotent: asking twice for the same name returns
    the existing metric (so several components can share one family
    and distinguish themselves with an ``owner``/``host`` label), but
    re-registering a name as a *different* kind raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _register(self, cls: type, name: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricError(
                    f"{name} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_children: Optional[int] = None,
    ) -> Counter:
        return self._register(
            Counter, name, help=help, labelnames=labelnames,
            max_children=max_children,
        )  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_children: Optional[int] = None,
    ) -> Gauge:
        return self._register(
            Gauge, name, help=help, labelnames=labelnames,
            max_children=max_children,
        )  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        max_children: Optional[int] = None,
    ) -> Histogram:
        return self._register(
            Histogram, name, help=help, labelnames=labelnames, buckets=buckets,
            max_children=max_children,
        )  # type: ignore[return-value]

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def metrics(self) -> list[Metric]:
        return list(self._metrics.values())

    def snapshot(self) -> dict[str, float]:
        """Flat ``name{label=value,...} -> number`` view of every series.

        Counters/gauges report their value; histograms report their
        observation count plus ``_sum`` and exact ``_p50/_p95/_p99``
        series when non-empty.
        """
        out: dict[str, float] = {}
        for metric in self._metrics.values():
            for key, child in metric.children():
                series = format_series(metric.name, metric.labelnames, key)
                if isinstance(child, HistogramChild):
                    out[f"{series}_count"] = float(child.count)
                    out[f"{series}_sum"] = child.sum
                    if child.count:
                        out[f"{series}_p50"] = child.percentile(50)
                        out[f"{series}_p95"] = child.percentile(95)
                        out[f"{series}_p99"] = child.percentile(99)
                else:
                    out[series] = child.value  # type: ignore[attr-defined]
        return out

    def render(self) -> str:
        """Plain-text dump of the snapshot, one series per line."""
        snap = self.snapshot()
        if not snap:
            return "(no metrics recorded)"
        width = max(len(name) for name in snap)
        lines = []
        for name in sorted(snap):
            value = snap[name]
            text = f"{value:.6f}".rstrip("0").rstrip(".") if value else "0"
            lines.append(f"{name:<{width}}  {text}")
        return "\n".join(lines)
