"""Unified telemetry for the SNAP reproduction.

One subsystem, three signal kinds, every layer reports into it:

* **Metrics** (:mod:`repro.obs.metrics`) — process-wide counters,
  gauges, and histograms with labels; Prometheus-text and JSON export.
* **Trace spans** (:mod:`repro.obs.tracing`) — nested, timed units of
  work (compile phases, controller events, engine lanes, cluster round
  trips) in a bounded ring, with parent ids propagated across threads,
  processes, and the cluster wire.
* **Postcards** (:mod:`repro.obs.postcards`) — sampled per-packet
  hop/state/outcome traces through the data plane.

Configuration is one value, resolved in this order: an explicit
:class:`TelemetryConfig` (or bool/"on"/"off") passed to
:func:`configure`, else the environment:

=========================   ===========================================
``SNAP_TELEMETRY``          ``on``/``1`` (default) or ``off``/``0`` —
                            the one switch for metrics and tracing
``SNAP_TELEMETRY_POSTCARDS``  sample every Nth packet (default ``0``,
                            off — sampling is opt-in)
``SNAP_TELEMETRY_FILE``     write a JSON snapshot here at process exit
                            (and whenever :func:`write_snapshot` is
                            called without a path)
=========================   ===========================================

``python -m repro.obs dump <file>`` renders a written snapshot;
``watch`` follows it live; ``check-prom`` self-tests the Prometheus
exporter (the CI lint hook).
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from dataclasses import dataclass

from repro.obs import postcards
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    validate_prometheus_text,
)
from repro.obs.postcards import PostcardSampler, active_sampler
from repro.obs.tracing import TRACER, Span, Tracer, current_trace_context

__all__ = [
    "REGISTRY",
    "TRACER",
    "MetricsRegistry",
    "PostcardSampler",
    "Span",
    "TelemetryConfig",
    "Tracer",
    "active_sampler",
    "configure",
    "counter",
    "current_config",
    "current_trace_context",
    "gauge",
    "histogram",
    "postcards",
    "resolve_config",
    "validate_prometheus_text",
    "write_snapshot",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """One resolved telemetry configuration."""

    #: Metrics and tracing, on or off together.
    enabled: bool = True
    #: Sample every Nth packet as a postcard; 0 = off.
    postcard_every: int = 0
    #: Where :func:`write_snapshot` (and the atexit flush) writes.
    snapshot_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.postcard_every, int) or self.postcard_every < 0:
            raise ValueError(
                f"postcard_every must be a non-negative int, "
                f"got {self.postcard_every!r}"
            )


_TRUE = frozenset(("1", "on", "true", "yes"))
_FALSE = frozenset(("0", "off", "false", "no"))


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name, "").strip().lower()
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    return default


def _env_config() -> TelemetryConfig:
    try:
        every = int(os.environ.get("SNAP_TELEMETRY_POSTCARDS", "0") or 0)
    except ValueError:
        every = 0
    return TelemetryConfig(
        enabled=_env_flag("SNAP_TELEMETRY", True),
        postcard_every=max(0, every),
        snapshot_path=os.environ.get("SNAP_TELEMETRY_FILE") or None,
    )


def resolve_config(source=None) -> TelemetryConfig:
    """Normalize any accepted telemetry spec to a :class:`TelemetryConfig`.

    ``None`` → the environment; a bool or ``"on"``/``"off"`` → everything
    on/off (postcards still default off — they are opt-in by count, not
    by switch); a :class:`TelemetryConfig` → itself.
    """
    if source is None:
        return _env_config()
    if isinstance(source, TelemetryConfig):
        return source
    if isinstance(source, bool):
        return TelemetryConfig(enabled=source)
    lowered = source.strip().lower() if isinstance(source, str) else None
    if lowered in _TRUE or lowered in _FALSE:
        return TelemetryConfig(enabled=lowered in _TRUE)
    raise ValueError(
        f"telemetry must be a bool, 'on'/'off', or a TelemetryConfig, "
        f"got {source!r}"
    )


_CURRENT: TelemetryConfig | None = None
_CONFIGURED_PID: int | None = None


def configure(source=None) -> TelemetryConfig:
    """Apply a telemetry configuration process-wide and return it.

    Flips the shared registry/tracer enabled flags and installs or
    removes the postcard sampler.  Called with ``None`` it (re)applies
    the environment defaults — which is also what happens at import.
    """
    global _CURRENT, _CONFIGURED_PID
    config = resolve_config(source)
    REGISTRY.enabled = config.enabled
    TRACER.enabled = config.enabled
    postcards.configure_sampling(config.postcard_every)
    _CURRENT = config
    _CONFIGURED_PID = os.getpid()
    return config


def current_config() -> TelemetryConfig:
    """The configuration most recently applied by :func:`configure`."""
    return _CURRENT if _CURRENT is not None else configure()


def snapshot_dict() -> dict:
    """Everything the telemetry layer currently holds, JSON-able."""
    return {
        "meta": {
            "pid": os.getpid(),
            "python": sys.version.split()[0],
            "telemetry": {
                "metrics": REGISTRY.enabled,
                "tracing": TRACER.enabled,
                "postcard_every": getattr(active_sampler(), "every", 0),
            },
        },
        "metrics": REGISTRY.snapshot(),
        "prometheus": REGISTRY.render_prometheus(),
        "spans": TRACER.spans(),
        "postcards": postcards.postcards(),
    }


def write_snapshot(path: str | None = None) -> str | None:
    """Atomically write the live snapshot as JSON; returns the path.

    ``path=None`` uses the configured ``snapshot_path`` (i.e.
    ``SNAP_TELEMETRY_FILE``); with neither, nothing is written and
    ``None`` is returned.
    """
    if path is None:
        path = current_config().snapshot_path
    if not path:
        return None
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(snapshot_dict(), handle, indent=2, default=repr)
        handle.write("\n")
    os.replace(tmp, path)
    return path


@atexit.register
def _flush_snapshot_at_exit() -> None:  # pragma: no cover - exit path
    config = _CURRENT
    # The pid check keeps forked pool workers from clobbering the
    # parent's snapshot; spawned daemons disable the path explicitly
    # (see repro.cluster.worker.main).
    if (
        config is not None
        and config.snapshot_path
        and os.getpid() == _CONFIGURED_PID
    ):
        try:
            write_snapshot(config.snapshot_path)
        except OSError:
            pass


# Apply the environment defaults at import, so the metrics/tracing
# enabled flags are right before the first instrumented call.
configure()
