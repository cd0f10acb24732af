"""Turning MILP link fractions into concrete forwarding paths.

The prototype "chooses the same path for the traffic between the same
ports" (§4.4), so after solving we decompose each flow's fractional edge
values into paths and install the heaviest one.  Every decomposed path
provably visits every switch holding a state variable the flow needs (the
visit constraint forces *all* flow through those switches); the rare
shared-node decomposition artifact that breaks state *ordering* is
repaired by re-stitching the path through the state switches in
dependency order, with the cheapest ``1/c`` segments (:class:`Segments`)
that TE's certified walks are made of.
"""

from __future__ import annotations

import heapq
import math

from repro.lang.errors import PlacementError
from repro.topology.graph import Topology, port_node


def decompose_flow(fractions: dict, source: str, sink: str):
    """Decompose edge fractions into simple paths with weights.

    Standard flow decomposition: repeatedly find a path over
    positive-residual edges (BFS — flow conservation guarantees one exists
    while residual flow remains) and subtract the bottleneck.  Returns a
    list of ``(path_nodes, weight)`` sorted by descending weight.
    """
    residual = {e: f for e, f in fractions.items() if f > 1e-9}
    paths = []
    for _ in range(1000):
        if not residual or source == sink:
            break
        adjacency: dict = {}
        for i, j in residual:
            adjacency.setdefault(i, []).append(j)
        parent = {source: None}
        frontier = [source]
        while frontier and sink not in parent:
            nxt = []
            for node in frontier:
                for neighbour in adjacency.get(node, ()):
                    if neighbour not in parent:
                        parent[neighbour] = node
                        nxt.append(neighbour)
            frontier = nxt
        if sink not in parent:
            break
        path = [sink]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        hops = list(zip(path, path[1:]))
        bottleneck = min(residual[hop] for hop in hops)
        for hop in hops:
            residual[hop] -= bottleneck
            if residual[hop] <= 1e-9:
                del residual[hop]
        paths.append((tuple(path), bottleneck))
    paths.sort(key=lambda p: -p[1])
    return paths


def _state_sequence(flow, mapping, dependencies, placement):
    """The switches a flow must visit, in dependency order."""
    needed = mapping.states_for(*flow)
    ordered_vars = [s for s in dependencies.order if s in needed]
    ordered_vars += sorted(needed - set(ordered_vars))
    switches = []
    for s in ordered_vars:
        n = placement[s]
        if n not in switches:
            switches.append(n)
    return switches


def _path_respects_order(path, required_switches) -> bool:
    positions = []
    for switch in required_switches:
        try:
            positions.append(path.index(switch))
        except ValueError:
            return False
    return positions == sorted(positions)


class Segments:
    """Cheapest switch paths under the objective's link weight ``1/c``.

    One Dijkstra tree per source, built on first use.  Between equally
    cheap paths a node keeps the predecessor that comes first in the
    graph's node order (``Topology.switches()``), so a path does not
    depend on the hash seed.
    """

    def __init__(self, graph):
        self.graph = graph
        self.rank = {node: i for i, node in enumerate(graph.nodes)}
        self._trees: dict = {}

    def tree(self, source) -> tuple:
        """``(cost, predecessor)`` maps of every node reachable from ``source``."""
        tree = self._trees.get(source)
        if tree is not None:
            return tree
        rank, adjacency = self.rank, self.graph.adj
        cost, parent, settled = {source: 0.0}, {source: None}, set()
        heap = [(0.0, rank[source], source)] if source in rank else []
        while heap:
            here, _, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for succ, data in adjacency[node].items():
                total = here + 1.0 / data["capacity"]
                known = cost.get(succ)
                if known is None or total < known:
                    cost[succ], parent[succ] = total, node
                    heapq.heappush(heap, (total, rank[succ], succ))
                elif (total == known and succ not in settled
                      and rank[node] < rank[parent[succ]]):
                    parent[succ] = node
        tree = self._trees[source] = (cost, parent)
        return tree

    def cost(self, a, b) -> float:
        return self.tree(a)[0].get(b, math.inf)

    def path(self, a, b) -> list:
        cost, parent = self.tree(a)
        if b not in cost:
            raise PlacementError(f"no path between waypoints {a!r} and {b!r}")
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def walk(self, waypoints) -> list:
        """The concatenated cheapest segments through ``waypoints``."""
        full = [waypoints[0]]
        for a, b in zip(waypoints, waypoints[1:]):
            full.extend(self.path(a, b)[1:])
        return full


def _stitch_path(graph, waypoints):
    """Cheapest-segment concatenation through the waypoint sequence.

    The concatenation may revisit nodes; loops that contain no waypoint
    are excised so the result stays a simple path (required by the
    per-(u, v) match-action next-hop tables).
    """
    full = Segments(graph).walk(waypoints)
    required = set(waypoints)
    simplified: list = []
    position: dict = {}
    for node in full:
        if node in position:
            start = position[node]
            loop = simplified[start + 1 :]
            if any(x in required for x in loop):
                raise PlacementError(
                    f"cannot realize a simple path through waypoints {waypoints}"
                )
            for dropped in loop:
                del position[dropped]
            del simplified[start + 1 :]
        else:
            position[node] = len(simplified)
            simplified.append(node)
    return tuple(simplified)


class RoutingPaths:
    """Installed (single) path per OBS flow, switch-level."""

    def __init__(self, paths: dict, placement: dict):
        #: (u, v) -> tuple of switch names, ingress switch first.
        self.paths = paths
        self.placement = placement

    def path(self, u, v):
        return self.paths.get((u, v))

    def __repr__(self):
        return f"RoutingPaths({len(self.paths)} flows)"


def extract_paths(solution, topology: Topology, mapping, dependencies) -> RoutingPaths:
    """Primary switch-level path per flow, with ordering repair."""
    paths: dict = {}
    for flow, fractions in solution.routing.items():
        u, v = flow
        decomposed = decompose_flow(fractions, port_node(u), port_node(v))
        required = _state_sequence(flow, mapping, dependencies, solution.placement)
        chosen = None
        for candidate, _weight in decomposed:
            switch_path = tuple(n for n in candidate if not n.startswith("port:"))
            if _path_respects_order(list(switch_path), required):
                chosen = switch_path
                break
        if chosen is None:
            # Decomposition artifact (or no decomposition): stitch through
            # the required switches with shortest segments.
            waypoints = [topology.port_switch(u)] + required + [topology.port_switch(v)]
            chosen = _stitch_path(topology.graph, waypoints)
        paths[flow] = chosen
    return RoutingPaths(paths, solution.placement)


def validate_solution(
    routing: RoutingPaths, topology: Topology, mapping, dependencies
) -> None:
    """Assert every installed path visits its state switches in order."""
    for (u, v), path in routing.paths.items():
        required = _state_sequence((u, v), mapping, dependencies, routing.placement)
        if not _path_respects_order(list(path), required):
            raise PlacementError(
                f"flow {(u, v)} path {path} misses/misorders state switches "
                f"{required}"
            )
        if path[0] != topology.port_switch(u) or path[-1] != topology.port_switch(v):
            raise PlacementError(f"flow {(u, v)} path endpoints wrong: {path}")
        for a, b in zip(path, path[1:]):
            topology.capacity(a, b)  # raises if the link does not exist
