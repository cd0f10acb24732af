"""Engine runs into the metrics registry.

Each parallel engine keeps what its previous run planned and shipped as
a plain ``last_run_stats`` dict (lanes, collapse reasons, state/spec
bytes, wire bytes, requeues — whichever the engine produces).
:func:`publish_run` pushes one run's numbers into the process-wide
metrics registry (per-engine labels), which is what makes the benches'
one-shot dicts into scrapeable time series.
"""

from __future__ import annotations

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


def publish_run(engine: str, stats: dict, packets: int | None = None) -> None:
    """Report one engine run (its ``last_run_stats``) to the registry."""
    _RUNS_TOTAL.labels(engine=engine).inc()
    if packets:
        _PACKETS_TOTAL.labels(engine=engine).inc(packets)
    _LANES.labels(engine=engine).set(stats["lanes"])
    if stats.get("payload_bytes"):
        _WIRE_PAYLOAD_BYTES.labels(engine=engine).inc(stats["payload_bytes"])
