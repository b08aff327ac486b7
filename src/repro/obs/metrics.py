"""Metrics primitives: counters, gauges, histograms, and a registry.

Prometheus-flavoured but dependency-free and aware that this codebase
measures *virtual* time: nothing here ever reads the wall clock, so
recording a metric costs zero simulated seconds.  A count is an
attribute: a component keeps each series fixed when it is built as a
plain attribute, bumped inline, and the registry reads it when it is
read (:meth:`MetricsRegistry.expose`).  A family whose label values
arrive at run time, and every histogram, is held by the registry and
addressed through labelled children::

    failed = registry.counter("qrpc_failed_total", labelnames=("op",))
    failed.labels(op="invoke").inc()

There is no process-global registry: every testbed builds a private
:class:`MetricsRegistry` of its own so two scenarios in one process
never share counters (see :mod:`repro.obs`).
"""

from __future__ import annotations

import bisect
import operator
from collections import namedtuple
from typing import Iterable, Optional, Sequence, Union


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


class Sample(_Child):
    """A series' value: a gauge's as the registry read it."""

    __slots__ = ("value",)

    def __init__(self, labelvalues: tuple[str, ...], value: float) -> None:
        self.labelvalues = labelvalues
        self.value = value


class CounterChild(Sample):
    """A counter's series: read from its component, or kept here for a
    family whose label values arrive at run time."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a Gauge")
        self.value += amount


#: Default latency-ish buckets (seconds), spanning a LAN RPC to a
#: long disconnection.  Exported snapshots report cumulative counts.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 600.0,
)


class HistogramChild(_Child):
    __slots__ = ("_values", "_sum")
    buckets = DEFAULT_BUCKETS

    def __init__(self, labelvalues: tuple[str, ...]) -> None:
        super().__init__(labelvalues)
        self._values: list[float] = []
        self._sum = 0.0

    def observe(self, value: float) -> None:
        self._values.append(value)
        self._sum += value

    @property
    def bucket_counts(self) -> list[int]:
        """Observations per bucket, the last for +Inf (counted from the
        raw observations when read; every one is kept anyway)."""
        counts = [0] * (len(self.buckets) + 1)
        for value in self._values:
            counts[bisect.bisect_left(self.buckets, value)] += 1
        return counts

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

    __slots__ = ("name", "help", "labelnames", "_children")

    child_class: type = CounterChild
    kind = "counter"
    max_children = DEFAULT_MAX_CHILDREN

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
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
        return self.child_class(key, 0.0)

    def children(self) -> Iterable[tuple[tuple[str, ...], _Child]]:
        held = self._children
        if type(held) is dict:
            return list(held.items())
        return [] if held is None else [(held.labelvalues, held)]


class Counter(Metric):
    __slots__ = ()
    child_class = CounterChild
    kind = "counter"

    @property
    def value(self) -> float:
        return sum(child.value for __, child in self.children())  # type: ignore[attr-defined]


class Gauge(Metric):
    __slots__ = ()
    child_class = Sample
    kind = "gauge"


class Histogram(Metric):
    __slots__ = ()
    child_class = HistogramChild
    kind = "histogram"

    def _make_child(self, key: tuple[str, ...]) -> HistogramChild:
        return HistogramChild(key)


#: One family of a component class's ``METRICS`` table.  ``rows`` is
#: None for a run-time family, else per row ``(read, keep, fixed)``:
#: the getter, the exposure's label values kept (by index into the
#: exposure) and the fixed label values appended.
_Family = namedtuple("_Family", "name kind help labelnames rows")


class _Plan(namedtuple("_Plan", "families declared widest")):
    """A class's table read for one set of exposure label names
    (``widest``: the series one exposure adds to its widest family),
    a registry's key for its exposures: equal only to itself."""

    __hash__, __eq__ = object.__hash__, object.__eq__


_PLANS: dict[tuple[type, tuple[str, ...]], _Plan] = {}


def _plan(cls: type, names: tuple[str, ...]) -> _Plan:
    plan = _PLANS.get((cls, names))
    if plan is not None:
        return plan
    families: dict[str, _Family] = {}
    for name, kind, help, attribute, *labels in cls.METRICS:
        labels = labels[0] if labels else ()
        family = families.get(name)
        if attribute is None:
            if kind not in ("counter", "histogram") or family is not None:
                raise MetricError(f"{cls.__name__}.METRICS: bad run-time row {name}")
            families[name] = _Family(name, kind, help, names + tuple(labels), None)
            continue
        fixed = dict(labels)
        keep = tuple(i for i, label in enumerate(names, 1) if fixed.get(label, label) is not None)
        added = tuple(label for label, value in fixed.items() if value is not None)
        labelnames = tuple(names[i - 1] for i in keep) + added
        if family is None:
            family = families[name] = _Family(name, kind, help, labelnames, [])
        if kind not in ("counter", "gauge") or family[1:4] != (kind, help, labelnames):
            raise MetricError(f"{cls.__name__}.METRICS: bad row {name}")
        read = attribute if callable(attribute) else operator.attrgetter(attribute)
        family.rows.append((read, keep, tuple(str(fixed[label]) for label in added)))
    declared = [family for family in families.values() if family.rows is not None]
    plan = _PLANS[(cls, names)] = _Plan(
        list(families.values()), frozenset(family.name for family in declared),
        max((len(family.rows) for family in declared), default=0),
    )
    return plan


class MetricsRegistry:
    """A namespace of metrics.

    A component exposes its fixed series with :meth:`expose`: its
    class's ``METRICS`` table names them, one row each::

        (family, kind, help, attribute[, labels])

    ``kind`` is ``"counter"`` or ``"gauge"``; ``attribute`` names an
    attribute of the component (dotted for one a member holds) or a
    zero-argument method, or is a function of the component; ``labels``
    are fixed label values appended to the exposure's (a ``None`` value
    drops that exposure label: the family sums over it).  The registry
    keeps one entry per exposed component and reads the attributes
    when it is read; where two live components expose the same series,
    a counter reads their sum and a gauge the latest one's value.

    A row whose attribute is ``None`` declares a run-time family
    (``"counter"`` or ``"histogram"``, its ``labels`` the label names
    that arrive at run time), created by :meth:`expose` in table order
    and returned by it.  Such families, like those of :meth:`counter`
    and :meth:`histogram`, hold their children; asking twice for the
    same name returns the same family, as another kind raises.
    """

    __slots__ = ("_metrics", "_order", "_exposed")

    def __init__(self) -> None:
        #: Run-time families, by name.
        self._metrics: dict[str, Metric] = {}
        #: Family order: each plan at its first exposure, and each
        #: run-time family made outside a table.
        self._order: list = []
        #: Per plan, its exposure ``(component, *label values)``, or a
        #: list of them from the second on (a client's private registry
        #: exposes each of its components once).
        self._exposed: dict[_Plan, Union[tuple, list]] = {}

    def expose(self, component: object, labels: dict[str, str]) -> tuple[Metric, ...]:
        """Register ``component``'s ``METRICS`` table under ``labels``;
        returns its run-time families in table order."""
        plan = _plan(type(component), tuple(labels))
        held = self._exposed.get(plan)
        if held is None:
            for name in plan.declared:
                if name in self._metrics:
                    raise MetricError(f"{name} already registered as a run-time family")
            self._order.append(plan)
        exposed = [] if held is None else held if type(held) is list else [held]
        if plan.widest:
            if (len(exposed) + 1) * plan.widest > DEFAULT_MAX_CHILDREN:
                raise MetricError(
                    f"{type(component).__name__}: label cardinality cap reached "
                    f"({DEFAULT_MAX_CHILDREN} series a family)"
                )
            exposed.append((component, *map(str, labels.values())))
        self._exposed[plan] = exposed[0] if len(exposed) == 1 else exposed
        return tuple(
            self._register(
                Histogram if family.kind == "histogram" else Counter, family.name,
                ordered=False, help=family.help, labelnames=family.labelnames,
            )
            for family in plan.families
            if family.rows is None
        )

    def _register(self, cls: type, name: str, ordered: bool = True, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricError(
                    f"{name} already registered as {existing.kind}"
                )
            return existing
        if any(name in plan.declared for plan in self._exposed):
            raise MetricError(f"{name} is a component's attribute family")
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        if ordered:
            self._order.append(metric)
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help=help, labelnames=labelnames)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Histogram:
        return self._register(Histogram, name, help=help, labelnames=labelnames)  # type: ignore[return-value]

    def _families(self, only: Optional[str] = None) -> dict[str, Metric]:
        """Every family (or the one named ``only``) in registration
        order; an exposed family is built here from its components."""
        out: dict[str, Metric] = {}
        for entry in self._order:
            if type(entry) is not _Plan:
                if only is None or entry.name == only:
                    out.setdefault(entry.name, entry)
                continue
            held = self._exposed[entry]
            exposed = held if type(held) is list else (held,)
            for family in entry.families:
                name = family.name
                if only is not None and name != only:
                    continue
                if family.rows is None:
                    out.setdefault(name, self._metrics[name])
                    continue
                metric = out.get(name)
                if metric is None:
                    metric = out[name] = (Counter if family.kind == "counter" else Gauge)(
                        name, family.help, family.labelnames
                    )
                    metric._children = {}
                children = metric._children
                make = metric.child_class
                summed = family.kind == "counter"
                for exposure in exposed:
                    for read, keep, fixed in family.rows:
                        value = read(exposure[0])
                        if callable(value):
                            value = value()
                        key = tuple(map(exposure.__getitem__, keep)) + fixed
                        child = children.get(key)
                        if child is None:
                            children[key] = make(key, float(value))
                        elif summed:
                            child.value += value
                        else:
                            child.value = float(value)
        return out

    def get(self, name: str) -> Optional[Metric]:
        metric = self._metrics.get(name)
        return metric if metric is not None else self._families(name).get(name)

    def metrics(self) -> list[Metric]:
        return list(self._families().values())

    def snapshot(self) -> dict[str, float]:
        """Flat ``name{label=value,...} -> number`` view of every series.

        Counters/gauges report their value; histograms report their
        observation count plus ``_sum`` and exact ``_p50/_p95/_p99``
        series when non-empty.
        """
        out: dict[str, float] = {}
        for metric in self._families().values():
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
