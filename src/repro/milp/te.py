"""The TE re-optimization (§6.2, Table 4 "Topology/TM change").

"Once the policy is compiled, we fix the decided state placement, and only
re-optimize routing in response to network events."  With ``P`` fixed the
program becomes a pure LP (all variables continuous), which is why TE runs
much faster than ST — the effect Table 6 shows.

A TE event solves the standing model cold (presolve off, see
:meth:`~repro.milp.modeling.Model.solve`), so a smaller program is a
cheaper event.  A constant ``P`` allows two reductions that leave the
optimum where Table 2 puts it (see
:class:`~repro.milp.placement.PlacementModel`): flows that need no state
become one commodity per destination port, and a stateful flow tracks
"passed" per waypoint switch rather than per variable.
"""

from __future__ import annotations

from repro.analysis.dependency import DependencyInfo
from repro.analysis.packet_state import PacketStateMapping
from repro.milp.placement import PlacementInputs, PlacementModel
from repro.topology.graph import Topology


def build_te_model(
    topology: Topology, demands: dict, mapping: PacketStateMapping,
    dependencies: DependencyInfo, placement: dict, stateful_switches=None,
) -> PlacementModel:
    """Construct the routing-only LP with state placement fixed."""
    inputs = PlacementInputs(topology, demands, mapping, dependencies, stateful_switches)
    return PlacementModel(inputs, fixed_placement=placement)
