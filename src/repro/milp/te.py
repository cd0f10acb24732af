"""The TE re-optimization (§6.2, Table 4 "Topology/TM change").

"Once the policy is compiled, we fix the decided state placement, and only
re-optimize routing in response to network events."  With ``P`` fixed the
program becomes a pure LP (all variables continuous), which is why TE runs
much faster than ST — the effect Table 6 shows.

A TE event first tries :func:`shortest_walk_routing`: with ``P`` fixed,
drop the capacity rows and the visit-each-node-once rule and what is left
is a relaxation in which each flow pays ``d_uv`` times its cheapest walk
ingress → owner switches (in a dependency-consistent order) → egress,
under link weight ``1/c``.  When the walks it installs are simple, fit
every capacity and take the cheapest order, they are feasible for Table 2
and cost exactly the relaxation's bound, hence optimal: no LP is built.

Otherwise the event builds the LP of :func:`build_te_model` on its
effective topology and solves it (presolve off, see
:meth:`~repro.milp.modeling.Model.solve`): the ST program's arrays with
every ``P`` column pinned to the placement (see
:class:`~repro.milp.placement.PlacementModel`), Table 2 with ``P`` a
constant.
"""

from __future__ import annotations

import math

from repro.analysis.dependency import DependencyInfo
from repro.analysis.packet_state import PacketStateMapping
from repro.milp.placement import PlacementInputs, PlacementModel, PlacementSolution
from repro.milp.results import RoutingPaths, Segments, _state_sequence
from repro.topology.graph import Topology, port_node

#: Relative slack within which another waypoint order counts as a tie.
ORDER_TOLERANCE = 1e-12


def build_te_model(
    topology: Topology, demands: dict, mapping: PacketStateMapping,
    dependencies: DependencyInfo, placement: dict, stateful_switches=None,
) -> PlacementModel:
    """Construct the routing-only LP with state placement fixed."""
    inputs = PlacementInputs(topology, demands, mapping, dependencies, stateful_switches)
    return PlacementModel(inputs, fixed_placement=placement)


def shortest_walk_routing(
    topology: Topology, demands: dict, mapping: PacketStateMapping,
    dependencies: DependencyInfo, placement: dict, stateful_switches=None,
):
    """The TE optimum by one cheapest walk per flow, if it proves itself.

    Each flow above the demand floor takes ingress switch →
    ``_state_sequence`` waypoints → egress switch, every segment a
    cheapest ``1/c`` path (:class:`~repro.milp.results.Segments`).
    Returns ``(solution, paths)`` — a status-0
    :class:`~repro.milp.placement.PlacementSolution` and its
    :class:`~repro.milp.results.RoutingPaths` — when the walks are simple,
    within capacity and each in the cheapest dependency-consistent order
    of its waypoints; otherwise the reason they are not a certificate.
    """
    graph = topology.graph
    segments = Segments(graph)
    owners = set(stateful_switches if stateful_switches is not None else graph.nodes)
    routing, paths, load = {}, {}, {}
    objective = 0.0
    for flow in PlacementInputs.flows_of(demands):
        u, v = flow
        needed = mapping.states_for(u, v)
        if u == v or not {u, v} <= topology.ports.keys() or not needed <= placement.keys():
            return "malformed flow"
        waypoints = _state_sequence(flow, mapping, dependencies, placement)
        if not owners.issuperset(waypoints):
            return "owner outside stateful_switches"
        before = {w: set() for w in waypoints}
        for s, t in dependencies.dep:
            if s in needed and t in needed and placement[s] != placement[t]:
                before[placement[t]].add(placement[s])
        if any(not before[w] <= set(waypoints[:i]) for i, w in enumerate(waypoints)):
            return "inconsistent order"
        stops = [topology.ports[u], *waypoints, topology.ports[v]]
        cost = sum(segments.cost(a, b) for a, b in zip(stops, stops[1:]))
        if cost == math.inf:
            return "no path"
        if len(waypoints) > 1 and (
            cost - _cheapest_order(stops, before, segments.cost) > ORDER_TOLERANCE * cost
        ):
            return "cheaper waypoint order"
        walk = segments.walk(stops)
        if len(set(walk)) < len(walk):
            return "non-simple walk"
        demand = demands[flow]
        hops = list(zip(walk, walk[1:]))
        for hop in hops:
            load[hop] = load.get(hop, 0.0) + demand
        objective += demand * cost
        routing[flow] = dict.fromkeys(
            [(port_node(u), walk[0]), *hops, (walk[-1], port_node(v))], 1.0
        )
        paths[flow] = tuple(walk)
    if any(total > graph.edges[hop]["capacity"] for hop, total in load.items()):
        return "binding capacity"
    solution = PlacementSolution(
        placement=dict(placement), routing=routing, objective=objective,
        inputs=None, solver={
            "status": 0, "message": "Optimal (certified shortest walks)",
            "mip_gap": None, "nodes": None, "lp_iterations": 0,
        },
    )
    return solution, RoutingPaths(paths, solution.placement)


def _cheapest_order(stops, before, cost) -> float:
    """The cost of ``stops[0]`` → the inner stops in the cheapest order
    that puts every switch after all of ``before[switch]`` → ``stops[-1]``."""
    inner = stops[1:-1]
    best = {(frozenset(), stops[0]): 0.0}
    for _ in inner:
        grown: dict = {}
        for (done, last), total in best.items():
            for w in inner:
                if w not in done and before[w] <= done:
                    key = (done | {w}, w)
                    grown[key] = min(grown.get(key, math.inf), total + cost(last, w))
        best = grown
    return min(total + cost(last, stops[-1]) for (_, last), total in best.items())
