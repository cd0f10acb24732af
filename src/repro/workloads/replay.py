"""Replaying traces through the data plane and the reference semantics.

:func:`replay` drives a trace through a simulated network and summarizes
deliveries; :func:`replay_obs` runs the same trace through ``eval`` on the
one-big-switch, which is useful both for expected-behaviour tests and for
verifying the distributed realization against the specification.
"""

from __future__ import annotations

from repro.dataplane.engine import SequentialEngine, get_engine
from repro.dataplane.network import Network, Walker
from repro.lang import ast
from repro.lang.semantics import run_sequence
from repro.lang.state import Store
from repro.obs.metrics import counter
from repro.obs.tracing import TRACER
from repro.workloads.traces import Trace

_REPLAY_PACKETS = counter(
    "snap_replay_packets_total", "Packets injected by trace replays"
)


class ReplayStats:
    """Outcome summary of one trace replay.

    Two delivery-rate views exist because multicast makes them diverge:
    ``delivered``/``dropped`` count per-*copy* records (one injected
    packet can fan out into several), while ``sent`` counts injected
    packets.  :attr:`delivery_rate` is the packet-level reading — the
    fraction of injected packets with at least one delivered copy — and
    :attr:`copy_delivery_rate` is the per-copy ratio.  For unicast
    traffic with no drops the two agree.
    """

    def __init__(self):
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        #: Injected packets with >= 1 delivered copy (drives delivery_rate).
        self.packets_delivered = 0
        self.per_egress: dict[int, int] = {}
        self.total_hops = 0
        #: Packets counted without a record — the sequential engine's
        #: :meth:`~repro.dataplane.network.Walker.fold` counts a packet
        #: whose walk stays one copy, delivered or dropped, by its path:
        #: how a replay ran, not what it delivered; 0 on every other
        #: engine.
        self.folded = 0

    def record(self, records) -> None:
        self.sent += 1
        any_delivered = False
        for record in records:
            if record.egress is None:
                self.dropped += 1
            else:
                any_delivered = True
                self.delivered += 1
                self.per_egress[record.egress] = (
                    self.per_egress.get(record.egress, 0) + 1
                )
                self.total_hops += record.hops
        if any_delivered:
            self.packets_delivered += 1

    def add_folded(self, delivered: int, hops: int, dropped: int) -> None:
        """Count ``delivered`` unicast deliveries, ``hops`` hops in all,
        and ``dropped`` packets whose one copy was dropped, that
        :meth:`~repro.dataplane.network.Walker.fold` made no record for
        (it adds their ``per_egress`` counts itself, in order)."""
        self.sent += delivered + dropped
        self.delivered += delivered
        self.packets_delivered += delivered
        self.dropped += dropped
        self.total_hops += hops
        self.folded += delivered + dropped

    @property
    def delivery_rate(self) -> float:
        """Fraction of *injected packets* with a delivered copy."""
        return self.packets_delivered / self.sent if self.sent else 0.0

    @property
    def copy_delivery_rate(self) -> float:
        """Fraction of *packet copies* that reached an egress."""
        total = self.delivered + self.dropped
        return self.delivered / total if total else 0.0

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.delivered if self.delivered else 0.0

    def __repr__(self):
        return (
            f"ReplayStats(sent={self.sent}, delivered={self.delivered} copies, "
            f"dropped={self.dropped}, delivery_rate={self.delivery_rate:.2f}, "
            f"copy_delivery_rate={self.copy_delivery_rate:.2f}, "
            f"mean_hops={self.mean_hops:.2f})"
        )


def replay(trace: Trace, network: Network, engine=None) -> ReplayStats:
    """Drive the trace through the network; returns delivery statistics.

    ``engine`` picks the execution engine (``"sequential"`` |
    ``"sharded"`` | ``"process"`` | ``"cluster"`` | ``"vector"`` |
    ``"vector-jit"`` | any name added via
    :func:`repro.dataplane.engine.register_engine` | an engine instance
    — stateful names like ``"process"`` and ``"cluster"`` resolve to one
    shared pool/daemon-set across calls); when ``None`` the network's
    ``default_engine`` applies
    (``CompilerOptions.engine`` for networks obtained from
    :meth:`SnapController.network`).  Every engine is
    delivery-equivalent to per-packet :meth:`~Network.inject` calls.

    On the sequential engine the statistics are folded straight from
    the walk (:meth:`~repro.dataplane.network.Walker.fold`), which runs
    each packet through the switch programs' generated code fused along
    its continuation cells — a PAUSE falls through into the next
    switch's code — and counts one path per packet: a packet whose walk
    stays one copy, delivered or dropped, makes no record
    (:attr:`ReplayStats.folded`, the ``replay`` span's ``folded``
    attribute).  Every other engine's statistics are folded from the
    list its ``run`` returns.  If a packet raises, the packets that ran
    before it still reach the span and ``snap_replay_packets_total``.
    """
    if engine is None:
        engine = getattr(network, "default_engine", "sequential")
    runner = get_engine(engine)
    stats = ReplayStats()
    with TRACER.span(
        "replay", engine=getattr(runner, "name", str(engine))
    ) as span:
        try:
            if isinstance(runner, SequentialEngine):
                Walker(network).fold(trace, stats)
            else:
                for records in runner.run(network, trace):
                    stats.record(records)
        finally:
            span.set_attr("packets", stats.sent)
            span.set_attr("delivered", stats.delivered)
            span.set_attr("folded", stats.folded)
            _REPLAY_PACKETS.inc(stats.sent)
    return stats


def replay_obs(trace: Trace, policy: ast.Policy, store: Store | None = None):
    """Run the trace through the OBS reference semantics.

    Returns ``(final_store, outputs)`` where outputs is a list of
    per-packet frozensets.  ``store`` is threaded through ``eval``,
    never mutated: the caller's object is left as it was.
    """
    return run_sequence(
        policy, (packet.modify("inport", port) for packet, port in trace), store
    )
