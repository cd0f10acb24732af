"""Immutable compilation snapshots.

Every event a :class:`~repro.core.controller.SnapController` handles
yields one :class:`Snapshot`: a frozen, keyword-only record of everything
that compilation produced, stamped with a monotonically increasing
``generation`` and the ``event`` that produced it.  Snapshots are values
— the controller never edits one in place, and callers can hold onto any
generation (for diffing, rollback inspection, or serving) without it
changing underneath them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.analysis.dependency import DependencyInfo
from repro.analysis.packet_state import PacketStateMapping
from repro.core.program import Program
from repro.milp.results import RoutingPaths
from repro.topology.graph import Topology
from repro.util.timer import PhaseTimer
from repro.xfdd.diagram import DiagramFactory

#: Table 4: which phases run in each scenario.
SCENARIO_PHASES = {
    "cold_start": ("P1", "P2", "P3", "P4", "P5", "P6"),
    "policy_change": ("P1", "P2", "P3", "P5", "P6"),
    "topology_change": ("P5", "P6"),
}

#: Controller event -> Table 4 scenario (phase-set key).
EVENT_SCENARIOS = {
    "cold_start": "cold_start",
    "policy_change": "policy_change",
    "topology_change": "topology_change",
    "topology_replace": "cold_start",
    "link_failure": "topology_change",
    "link_restore": "topology_change",
    "demand_change": "topology_change",
}


@dataclass(frozen=True, kw_only=True, repr=False, eq=False)
class Snapshot:
    """One compilation, immutably.

    ``topology`` is the *effective* topology this compilation was solved
    against (base topology minus currently failed links) — routing,
    validation, and the data plane all agree with it by construction.
    ``scenario`` keys :data:`SCENARIO_PHASES`; ``event`` records which
    controller event produced the snapshot (provenance, see
    :data:`EVENT_SCENARIOS`).

    Compares (and hashes) by identity: each compilation is a distinct
    point in the session's history even when two solves happen to agree,
    so snapshots work as dict keys / set members out of the box.
    """

    generation: int
    event: str
    scenario: str
    program: Program
    topology: Topology
    demands: Mapping
    xfdd: Any
    dependencies: DependencyInfo
    mapping: PacketStateMapping
    placement: Mapping
    routing: RoutingPaths
    objective: float
    timer: PhaseTimer
    #: Per-switch next-hop tables compiled from ``routing`` in P6 (so
    #: data planes built from this snapshot reuse them, not rebuild).
    rules: Any = None
    model_stats: Mapping = field(default_factory=dict)
    #: The hash-consing session that built ``xfdd`` (TE events carry the
    #: previous compilation's factory, since they reuse its diagram).
    diagram_factory: DiagramFactory | None = None

    def __post_init__(self):
        # Mapping-typed fields are defensively copied and exposed through
        # read-only proxies: a snapshot's contents cannot drift even if
        # the caller still holds the dict it passed in.
        for name in ("demands", "placement", "model_stats"):
            object.__setattr__(
                self, name, MappingProxyType(dict(getattr(self, name)))
            )

    def scenario_time(self, scenario: str | None = None) -> float:
        """Total time of the phases Table 4 assigns to the scenario."""
        phases = SCENARIO_PHASES[scenario or self.scenario]
        return self.timer.total(phases)

    def build_network(self):
        """Instantiate a fresh simulated data plane for this snapshot.

        Each call returns an independent :class:`~repro.dataplane.network.
        Network` with empty state tables; use
        :meth:`SnapController.network` for the live, state-carrying one.
        """
        from repro.dataplane.network import Network

        return Network(
            self.topology,
            self.xfdd,
            dict(self.placement),
            self.routing,
            self.mapping,
            dict(self.demands),
            self.program.state_defaults,
            rules=self.rules,
        )

    def __repr__(self):
        return (
            f"Snapshot(gen={self.generation}, {self.program.name!r} on "
            f"{self.topology.name!r}, event={self.event}, "
            f"placement={dict(self.placement)})"
        )
