"""Process-wide metrics registry: counters, gauges, histograms.

The one place every layer of the system — controller, the five execution
engines, the cluster wire, the replay harness — reports quantitative
signals.  Design constraints, in order:

1. **Near-zero cost when disabled.**  A disabled registry's record
   methods are one attribute read and a branch; nothing allocates,
   nothing locks.  Hot paths additionally hoist the handle lookup out of
   their loops (``counter(...).labels(...)`` once per run, ``inc`` per
   event), so per-packet work never touches the registry at all.
2. **Thread-safe.**  Engines hammer the same counters from parallel
   lanes.  Updates are *lock-striped*: each labeled child hashes onto
   one of :data:`_STRIPES` locks, so two lanes bumping different
   counters almost never contend, while increments on the same child
   are still atomic.
3. **Stable export.**  :meth:`MetricsRegistry.render_prometheus` emits
   the Prometheus text exposition format (``# HELP``/``# TYPE`` plus
   samples, histograms as ``_bucket``/``_sum``/``_count``);
   :meth:`MetricsRegistry.snapshot` returns the same data as a
   JSON-able dict.  Both are consistent-enough snapshots: samples are
   read under the stripe locks, families under the registry lock.

Metric and label *names* must match ``[a-zA-Z_:][a-zA-Z0-9_:]*`` (the
Prometheus grammar); violations raise at registration time, not at
scrape time.  Label *values* are arbitrary strings and are escaped on
export.
"""

from __future__ import annotations

import json
import re
import threading

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: exponential from 100µs to ~100s — wide
#: enough for compile phases (ms) and cluster round trips (s) alike.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 100.0,
)

#: Lock stripes shared by every child in the process.  16 is plenty: a
#: run uses a handful of hot children, and a stripe lock is held for a
#: couple of bytecodes.
_STRIPE_COUNT = 16
_STRIPES = tuple(threading.Lock() for _ in range(_STRIPE_COUNT))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value) -> str:
    # Prometheus floats: integers render without the trailing ".0".
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_suffix(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in labels
    )
    return "{" + inner + "}"


class _Child:
    """One (metric, label-set) time series."""

    __slots__ = ("_metric", "labels", "_lock")

    def __init__(self, metric: "Metric", labels: tuple):
        self._metric = metric
        self.labels = labels  # sorted tuple of (key, value) pairs
        self._lock = _STRIPES[hash((metric.name, labels)) % _STRIPE_COUNT]


class _CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, metric, labels):
        super().__init__(metric, labels)
        self.value = 0

    def inc(self, amount=1) -> None:
        if not self._metric.registry.enabled:
            return
        with self._lock:
            self.value += amount


class _GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, metric, labels):
        super().__init__(metric, labels)
        self.value = 0

    def set(self, value) -> None:
        if not self._metric.registry.enabled:
            return
        with self._lock:
            self.value = value

    def inc(self, amount=1) -> None:
        if not self._metric.registry.enabled:
            return
        with self._lock:
            self.value += amount

    def dec(self, amount=1) -> None:
        self.inc(-amount)


class _HistogramChild(_Child):
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, metric, labels):
        super().__init__(metric, labels)
        self.bucket_counts = [0] * len(metric.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value) -> None:
        if not self._metric.registry.enabled:
            return
        with self._lock:
            self.sum += value
            self.count += 1
            for index, bound in enumerate(self._metric.buckets):
                if value <= bound:
                    self.bucket_counts[index] += 1
                    break
            # Values beyond the last bound land only in +Inf (count).

    def cumulative(self) -> list:
        """Cumulative per-bucket counts, Prometheus style (no +Inf)."""
        total = 0
        out = []
        for count in self.bucket_counts:
            total += count
            out.append(total)
        return out


_CHILD_TYPES = {
    "counter": _CounterChild,
    "gauge": _GaugeChild,
    "histogram": _HistogramChild,
}


class Metric:
    """One metric family: a name, a kind, and its labeled children."""

    __slots__ = ("name", "kind", "help", "registry", "buckets", "_children",
                 "_lock")

    def __init__(self, name: str, kind: str, help: str, registry,
                 buckets=None):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.registry = registry
        self.buckets = tuple(sorted(buckets or DEFAULT_BUCKETS))
        self._children: dict = {}
        self._lock = threading.Lock()

    def labels(self, **labels):
        """The child for this label set (created on first use, cached)."""
        key = tuple(sorted(labels.items()))
        child = self._children.get(key)
        if child is None:
            for label_name in labels:
                if not _LABEL_RE.match(label_name):
                    raise ValueError(f"invalid label name {label_name!r}")
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = _CHILD_TYPES[self.kind](self, key)
                    self._children[key] = child
        return child

    # Unlabeled convenience: metric.inc() == metric.labels().inc().

    def inc(self, amount=1) -> None:
        self.labels().inc(amount)

    def set(self, value) -> None:
        self.labels().set(value)

    def observe(self, value) -> None:
        self.labels().observe(value)

    def children(self) -> list:
        with self._lock:
            return list(self._children.values())

    def __repr__(self):
        return f"Metric({self.kind} {self.name}, {len(self._children)} series)"


class MetricsRegistry:
    """Registry of metric families; usually the process-wide default.

    ``enabled`` gates every record method.  Registration is always
    allowed (so module-level handles can be created before telemetry is
    configured); a handle fetched while disabled starts recording the
    moment the registry is enabled.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: dict = {}
        self._lock = threading.Lock()

    def _register(self, name: str, kind: str, help: str, buckets=None):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}, not {kind}"
                    )
                return family
            family = Metric(name, kind, help, self, buckets=buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "") -> Metric:
        return self._register(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> Metric:
        return self._register(name, "gauge", help)

    def histogram(self, name: str, help: str = "", buckets=None) -> Metric:
        return self._register(name, "histogram", help, buckets=buckets)

    def families(self) -> list:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def reset(self) -> None:
        """Drop every family (tests; never called on the hot path)."""
        with self._lock:
            self._families.clear()

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able dump: ``{name: {kind, help, series: [...]}}``."""
        out: dict = {}
        for family in self.families():
            series = []
            for child in family.children():
                with child._lock:
                    if family.kind == "histogram":
                        value = {
                            "buckets": dict(
                                zip(map(str, family.buckets),
                                    child.cumulative())
                            ),
                            "sum": child.sum,
                            "count": child.count,
                        }
                    else:
                        value = child.value
                series.append({"labels": dict(child.labels), "value": value})
            out[family.name] = {
                "kind": family.kind, "help": family.help, "series": series,
            }
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list = []
        for family in self.families():
            children = family.children()
            if not children:
                # Registered, never recorded: a bare ``# TYPE`` would
                # announce a histogram without its mandatory samples.
                continue
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in children:
                suffix = _label_suffix(child.labels)
                with child._lock:
                    if family.kind == "histogram":
                        cumulative = child.cumulative()
                        total, summed = child.count, child.sum
                        for bound, count in zip(family.buckets, cumulative):
                            le = _label_suffix(
                                child.labels + (("le", _format_value(
                                    float(bound))),)
                            )
                            lines.append(
                                f"{family.name}_bucket{le} {count}"
                            )
                        inf = _label_suffix(child.labels + (("le", "+Inf"),))
                        lines.append(f"{family.name}_bucket{inf} {total}")
                        lines.append(
                            f"{family.name}_sum{suffix} "
                            f"{_format_value(summed)}"
                        )
                        lines.append(f"{family.name}_count{suffix} {total}")
                    else:
                        lines.append(
                            f"{family.name}{suffix} "
                            f"{_format_value(child.value)}"
                        )
        return "\n".join(lines) + ("\n" if lines else "")

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({len(self._families)} families, {state})"


#: The process-wide registry every instrumented layer reports into.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "") -> Metric:
    """A counter family on the process-wide registry."""
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Metric:
    """A gauge family on the process-wide registry."""
    return REGISTRY.gauge(name, help)


def histogram(name: str, help: str = "", buckets=None) -> Metric:
    """A histogram family on the process-wide registry."""
    return REGISTRY.histogram(name, help, buckets=buckets)


# -- Prometheus text-format validation (CI lint hook) -------------------------

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                       # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""  # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (?:[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf)|NaN)"
    r"(?: \d+)?$"                                      # optional timestamp
)


def validate_prometheus_text(text: str) -> list:
    """Check ``text`` against the exposition grammar; returns problems.

    A lightweight validator for the CI lint job (promtool without the
    binary): every non-comment line must be a well-formed sample, every
    ``# TYPE`` must name a known kind, and histogram families must end
    with the mandatory ``_sum``/``_count``/``+Inf`` samples.
    """
    problems: list = []
    histogram_names: set = set()
    seen_samples: set = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                problems.append(f"line {number}: malformed TYPE line")
            elif parts[3] == "histogram":
                histogram_names.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {number}: malformed sample {line!r}")
            continue
        seen_samples.add(line.split("{")[0].split(" ")[0])
    for name in sorted(histogram_names):
        for suffix in ("_bucket", "_sum", "_count"):
            if name + suffix not in seen_samples:
                problems.append(
                    f"histogram {name} is missing its {suffix} samples"
                )
    return problems
