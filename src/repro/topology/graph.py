"""The physical network model.

A :class:`Topology` is a directed graph of switches with link capacities,
plus a set of numbered OBS *external ports*, each attached to a switch
(§4.4 Table 1: "edge nodes (ports in OBS)").  Internally the MILP expands
each port into its own graph node joined to its switch by a
practically-unbounded link, matching the paper's node model.
"""

from __future__ import annotations

import networkx as nx

from repro.lang.errors import TopologyError

#: Capacity of the virtual port<->switch attachment links.
PORT_LINK_CAPACITY = float("inf")


class Topology:
    """Switches, capacitated links, and OBS external ports."""

    def __init__(self, name: str = "topology"):
        self.name = name
        self.graph = nx.DiGraph()
        self.ports: dict[int, str] = {}

    # -- construction -------------------------------------------------------

    def add_switch(self, name: str) -> None:
        self.graph.add_node(name)

    def add_link(self, a: str, b: str, capacity: float):
        """Add a link with the given capacity in both directions."""
        if capacity <= 0:
            raise TopologyError(f"link {a}-{b} needs positive capacity")
        self.graph.add_edge(a, b, capacity=float(capacity))
        self.graph.add_edge(b, a, capacity=float(capacity))

    def attach_port(self, port: int, switch: str) -> None:
        if switch not in self.graph:
            raise TopologyError(f"cannot attach port {port}: no switch {switch!r}")
        if port in self.ports:
            raise TopologyError(f"port {port} already attached")
        self.ports[port] = switch

    # -- queries -------------------------------------------------------------

    def switches(self) -> tuple:
        return tuple(self.graph.nodes)

    def links(self):
        """Directed (a, b, capacity) triples."""
        return [(a, b, data["capacity"]) for a, b, data in self.graph.edges(data=True)]

    def capacity(self, a: str, b: str) -> float:
        try:
            return self.graph.edges[a, b]["capacity"]
        except KeyError:
            raise TopologyError(f"no link {a}->{b}") from None

    def port_switch(self, port: int) -> str:
        try:
            return self.ports[port]
        except KeyError:
            raise TopologyError(f"unknown OBS port {port}") from None

    def edge_switches(self) -> tuple:
        """Switches with at least one external port attached."""
        return tuple(sorted(set(self.ports.values())))

    def num_switches(self) -> int:
        return self.graph.number_of_nodes()

    def num_directed_edges(self) -> int:
        return self.graph.number_of_edges()

    def validate(self) -> None:
        if not self.ports:
            raise TopologyError("topology has no external ports")
        if not nx.is_strongly_connected(self.graph):
            raise TopologyError(f"topology {self.name!r} is not strongly connected")

    def without_link(self, a: str, b: str) -> "Topology":
        """A copy with a link removed in both directions (failure scenarios)."""
        clone = Topology(self.name + f"-fail-{a}-{b}")
        clone.graph = self.graph.copy()
        clone.ports = dict(self.ports)
        for link in ((a, b), (b, a)):
            if clone.graph.has_edge(*link):
                clone.graph.remove_edge(*link)
        return clone

    def expanded_graph(self) -> nx.DiGraph:
        """Graph with one extra node per OBS port (the MILP's node set)."""
        expanded = self.graph.copy()
        for port, switch in self.ports.items():
            node = port_node(port)
            expanded.add_edge(node, switch, capacity=PORT_LINK_CAPACITY)
            expanded.add_edge(switch, node, capacity=PORT_LINK_CAPACITY)
        return expanded

    def __repr__(self):
        return (
            f"Topology({self.name!r}, switches={self.num_switches()}, "
            f"directed_edges={self.num_directed_edges()}, ports={len(self.ports)})"
        )


def port_node(port: int) -> str:
    """The graph-node name of an OBS port."""
    return f"port:{port}"
