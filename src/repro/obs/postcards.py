"""Per-packet postcards: sampled hop-by-hop execution traces.

The in-network-telemetry idea (INT "postcards") applied to our software
data plane: a sampled fraction of packets records, as it executes, the
switches it visited, every state table it tested or wrote, and why it
was finally emitted or dropped.  The record — the *postcard* — lands in
a bounded ring and in the current trace span, where
:func:`repro.obs.write_snapshot` exports it.

Sampling is **deterministic on the global arrival index** (``index %
every == 0``), never random, for two reasons:

* the same packets are sampled no matter which engine runs the trace or
  how it was sharded (batch entries carry their global index end to
  end, including across the cluster wire);
* a sampled run is **byte-identical** to an unsampled one — a sampled
  packet runs the same :class:`repro.dataplane.network.Walker` as
  every other packet, over the *traced* specialisation of the same
  generated switch code
  (:meth:`repro.dataplane.netasm.SwitchProgram.functions`), which adds
  recorder calls and nothing else, so turning postcards on can never
  change what the network does, only what it remembers.

When no sampler is configured (the default), every hook is a single
``None`` check on a module global — the per-packet hot paths pay
nothing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.obs.metrics import counter
from repro.obs.tracing import TRACER

_POSTCARDS_TOTAL = counter(
    "snap_postcards_total", "Sampled packet postcards recorded"
)

#: Bounded postcard ring (finished postcard dicts, oldest first).
RING_SIZE = 512
_RING: list = []
_RING_LOCK = threading.Lock()

#: The active sampler, or None (sampling off).  A module global read
#: once per run/lane by the engines; None is the zero-cost path.
_SAMPLER = None


class PostcardSampler:
    """Deterministic 1-in-``every`` sampling by global arrival index."""

    __slots__ = ("every",)

    def __init__(self, every: int):
        if every < 1:
            raise ValueError(f"postcard_every must be >= 1, got {every}")
        self.every = every

    def should(self, index: int) -> bool:
        return index % self.every == 0

    def __repr__(self):
        return f"PostcardSampler(every={self.every})"


def configure_sampling(every: int) -> None:
    """Install (every >= 1) or remove (0) the process-wide sampler."""
    global _SAMPLER
    _SAMPLER = PostcardSampler(every) if every else None


def active_sampler():
    """The process-wide sampler, or None.  Engines fetch this once per
    run and skip every sampling branch when it is None."""
    return _SAMPLER


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class PostcardRecorder:
    """Collects one sampled packet's events while it executes.

    Handed to :meth:`Walker.run_packet` as ``recorder``: the traced
    switch code reports state/outcome events, the walker reports each
    switch it enters and replays each continuation cell's links as hop
    events.
    """

    __slots__ = ("index", "port", "events")

    def __init__(self, index: int, port: int):
        self.index = index
        self.port = port
        self.events: list = []

    # -- called from the data plane ---------------------------------------

    def process(self, switch: str) -> None:
        self.events.append({"ev": "process", "switch": switch})

    def state_test(self, var: str, key, value, result: bool) -> None:
        self.events.append({
            "ev": "state_test", "var": var, "key": _jsonable(key),
            "value": _jsonable(value), "result": bool(result),
        })

    def state_write(self, var: str, key, value) -> None:
        self.events.append({
            "ev": "state_write", "var": var, "key": _jsonable(key),
            "value": _jsonable(value),
        })

    def state_delta(self, var: str, key, delta) -> None:
        self.events.append({
            "ev": "state_delta", "var": var, "key": _jsonable(key),
            "delta": delta,
        })

    def outcome(self, kind: str, var: str | None = None) -> None:
        event = {"ev": kind}
        if var is not None:
            event["var"] = var
        self.events.append(event)

    def hop(self, switch: str, nxt: str) -> None:
        self.events.append({"ev": "hop", "link": [switch, nxt]})

    # -- finalization ------------------------------------------------------

    def finish(self, records) -> None:
        """The packet is done: file the postcard."""
        card = {
            "index": self.index,
            "port": self.port,
            "events": self.events,
            "deliveries": [
                {"egress": r.egress, "hops": r.hops} for r in records
            ],
        }
        with _RING_LOCK:
            _RING.append(card)
            overflow = len(_RING) - RING_SIZE
            if overflow > 0:
                del _RING[:overflow]
        _POSTCARDS_TOTAL.inc()
        # Mirror onto the current span (engine lane / worker job), so traces
        # and postcards cross-reference without a join key.
        TRACER.add_event(
            "postcard", index=self.index, port=self.port,
            events=len(self.events),
        )


def record_summary(index: int, port: int, records, lane: str) -> None:
    """A delivery-level postcard for lanes without a traced walk.

    The columnar tier executes whole batches as masked column ops — no
    per-packet interpreter to hang events on — so its sampled packets
    record what is known after the fact: the lane kind and each copy's
    egress and hop count.
    """
    card = PostcardRecorder(index, port)
    card.events.append({"ev": "lane", "kind": lane})
    card.finish(records)


def postcards() -> list:
    """Recorded postcards, oldest first."""
    with _RING_LOCK:
        return list(_RING)


def reset() -> None:
    with _RING_LOCK:
        _RING.clear()


@contextmanager
def capture():
    """Collect postcards recorded inside the block.

    The worker-side slicing window (process-pool workers, cluster
    daemons serve one job at a time), so a job's postcards can ride back
    in its reply and be adopted by the parent's ring.
    """
    with _RING_LOCK:
        mark = len(_RING)
    captured: list = []
    yield captured
    with _RING_LOCK:
        captured.extend(_RING[mark:])


def adopt(cards) -> None:
    """Ingest postcards recorded elsewhere (worker replies).

    Counts them here too: the worker recorded into its own process's
    registry, which dies with the worker — the parent's counter is the
    one a scrape sees.
    """
    if not cards:
        return
    with _RING_LOCK:
        _RING.extend(cards)
        overflow = len(_RING) - RING_SIZE
        if overflow > 0:
            del _RING[:overflow]
    _POSTCARDS_TOTAL.inc(len(cards))


@contextmanager
def sampling(every: int):
    """Temporarily install a sampler (worker-side job scope; tests)."""
    global _SAMPLER
    previous = _SAMPLER
    _SAMPLER = PostcardSampler(every) if every else None
    try:
        yield
    finally:
        _SAMPLER = previous
