"""The one shape every engine's ``last_run_stats`` takes.

Before this module, the three parallel engines each grew their own stats
dict — sharded (lanes/parallelism/collapse), process (+ state and spec
bytes), cluster (+ wire bytes and requeues) — and every consumer
hard-coded one shape.  :class:`RunStats` is the union, typed: fields an
engine does not produce stay ``None`` and are **omitted** from
:meth:`to_dict`, so each engine's visible key set is exactly what it was
(benchmarks and tests that do ``dict(engine.last_run_stats)`` or
``stats["lanes"]`` see no difference).

The mapping protocol below makes a ``RunStats`` read like the dict it
replaced; writes go through attributes.

:meth:`publish` pushes the run's numbers into the process-wide metrics
registry (per-engine labels), which is what makes the benches' one-shot
dicts into scrapeable time series.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.obs.metrics import counter, gauge

_RUNS_TOTAL = counter(
    "snap_engine_runs_total", "Data-plane engine runs completed"
)
_PACKETS_TOTAL = counter(
    "snap_engine_packets_total", "Packets executed by data-plane engines"
)
_LANES = gauge("snap_engine_lanes", "Lanes used by the most recent run")
_WIRE_PAYLOAD_BYTES = counter(
    "snap_engine_payload_bytes_total",
    "Per-run payload bytes shipped to remote lanes",
)


@dataclass
class RunStats:
    """What one engine run planned and shipped.  ``None`` = not produced
    by this engine/path; omitted from the dict view."""

    # Every engine
    lanes: int | None = None
    # Thread lanes (sharded and the vector engines riding on it)
    parallelism: int | None = None
    collapse_reasons: dict | None = None
    # Process pool
    state_bytes: int | None = None
    spec_bytes: int | None = None
    # Cluster
    workers: int | None = None
    program_bytes: int | None = None
    network_bytes: int | None = None
    payload_bytes: int | None = None
    requeues: int | None = None

    # -- the dict the engines used to expose -------------------------------

    def to_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    def keys(self):
        return self.to_dict().keys()

    def items(self):
        return self.to_dict().items()

    def get(self, key, default=None):
        value = getattr(self, key, None) if key in _FIELD_NAMES else None
        return default if value is None else value

    def __getitem__(self, key):
        if key in _FIELD_NAMES:
            value = getattr(self, key)
            if value is not None:
                return value
        raise KeyError(key)

    def __contains__(self, key) -> bool:
        return key in _FIELD_NAMES and getattr(self, key) is not None

    def __iter__(self):
        return iter(self.to_dict())

    def __len__(self) -> int:
        return len(self.to_dict())

    def __bool__(self) -> bool:
        # An engine that has not run yet exposes {} today; an empty
        # RunStats must stay falsy for those callers.
        return len(self.to_dict()) > 0

    # -- registry ----------------------------------------------------------

    def publish(self, engine: str, packets: int | None = None) -> None:
        """Report this run to the process-wide metrics registry."""
        _RUNS_TOTAL.labels(engine=engine).inc()
        if packets:
            _PACKETS_TOTAL.labels(engine=engine).inc(packets)
        if self.lanes is not None:
            _LANES.labels(engine=engine).set(self.lanes)
        if self.payload_bytes:
            _WIRE_PAYLOAD_BYTES.labels(engine=engine).inc(self.payload_bytes)


_FIELD_NAMES = frozenset(f.name for f in fields(RunStats))
