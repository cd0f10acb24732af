"""The TE program on cases the four benchmark workloads lack.

None of the snapbench workloads has a binding capacity, a flow whose
variables share a switch with different ordering obligations, or a
waypoint order that costs something.  These are hand-built so that each
of those decides the answer; the oracle is Table 2 with ``P`` fixed
(``tests/reference_milp.py``) through :func:`assert_te_equivalent`.
"""

import networkx as nx
import pytest

from repro.analysis.dependency import DependencyInfo
from repro.analysis.packet_state import PacketStateMapping
from repro.milp.results import extract_paths
from repro.milp.te import build_te_model
from repro.topology.campus import campus_topology
from repro.topology.graph import Topology

from reference_milp import ReferenceInputs, ReferenceModel, assert_te_equivalent


def topology(links, ports) -> Topology:
    topo = Topology("hand-built")
    for name in sorted({end for a, b, _ in links for end in (a, b)}):
        topo.add_switch(name)
    for a, b, capacity in links:
        topo.add_link(a, b, capacity)
    for port, switch in ports.items():
        topo.attach_port(port, switch)
    return topo


def binding_campus():
    """The campus with its core-core links cut to 250: under the default
    traffic matrix the cheapest walks overload a core link whichever link
    is down, so every TE event that is not a certificate's solves the
    LP.  Failing ``C2``-``C6`` leaves no feasible routing."""
    topo = campus_topology()
    for a, b in topo.graph.edges:
        if a.startswith("C") and b.startswith("C"):
            topo.graph.edges[a, b]["capacity"] = 250.0
    return topo


def both(topo, demands, needed=None, dep=(), placement=None):
    """The TE model and the reference for one hand-built problem."""
    ports = sorted(topo.ports)
    mapping = PacketStateMapping(needed or {}, ports, ports)
    graph = nx.DiGraph(list(dep))
    graph.add_nodes_from(mapping.all_state_vars())
    dependencies = DependencyInfo(graph)
    placement = placement or {}
    return (
        build_te_model(topo, demands, mapping, dependencies, placement),
        ReferenceModel(ReferenceInputs(topo, demands, mapping, dependencies), placement),
    )


def funnel() -> Topology:
    """Two sources share ``m``; the direct link ``m-t`` is the cheaper way
    to ``t`` (1/6 a unit against 1/4 + 1/4 over ``y``) and holds 6."""
    return topology(
        [("a1", "m", 100.0), ("a2", "m", 100.0), ("m", "t", 6.0),
         ("m", "y", 4.0), ("y", "t", 4.0)],
        {1: "a1", 2: "a2", 3: "t"},
    )


class TestAggregates:
    """Stateless flows that share a destination port and a bottleneck."""

    DEMANDS = {(1, 3): 4.0, (2, 3): 4.0, (3, 1): 1.0}

    def test_an_aggregate_that_does_not_fit_the_cheapest_path_splits(self):
        model, reference = both(funnel(), self.DEMANDS)
        routing = assert_te_equivalent(model, reference).routing
        # 6 of the 8 units to port 3 fit the direct link, the other 2 go
        # over y.  Which source sends them is an equal-cost tie.
        def load(link):
            return sum(
                demand * routing[flow].get(link, 0.0)
                for flow, demand in self.DEMANDS.items()
            )
        assert load(("m", "t")) == pytest.approx(6.0)
        assert load(("m", "y")) == pytest.approx(2.0)
        assert load(("y", "t")) == pytest.approx(2.0)

    def test_a_link_fails_under_an_aggregate(self):
        model, reference = both(
            funnel(), {(1, 3): 2.0, (2, 3): 1.5, (3, 1): 1.0, (3, 2): 0.5}
        )
        before = assert_te_equivalent(model, reference).objective
        for patched in (model, reference):
            patched.fail_link("m", "t")
        degraded = assert_te_equivalent(model, reference, failed=[("m", "t")])
        assert degraded.objective > before
        assert degraded.routing[1, 3][("m", "y")] == pytest.approx(1.0)

    def test_a_heavier_traffic_matrix_moves_a_stateless_flow(self):
        # 4 units to port 3 fit the direct link; under DEMANDS 8 do not,
        # and the LP built for the new matrix sends 2 of them over y.
        light = {(1, 3): 2.0, (2, 3): 2.0, (3, 1): 1.0}
        routing = assert_te_equivalent(*both(funnel(), light)).routing
        for flow in ((1, 3), (2, 3)):
            assert routing[flow][("m", "t")] == pytest.approx(1.0)
            assert routing[flow].get(("m", "y"), 0.0) == pytest.approx(0.0)
        routing = assert_te_equivalent(*both(funnel(), self.DEMANDS)).routing
        moved = sum(
            self.DEMANDS[flow] * routing[flow].get(("m", "y"), 0.0)
            for flow in ((1, 3), (2, 3))
        )
        assert moved == pytest.approx(2.0)

    def test_a_stateless_flow_has_a_column_of_its_own(self):
        # Every flow, stateless or not, routes in its own R columns: one
        # per switch link and per link of its own two ports.
        model, _ = both(funnel(), self.DEMANDS)
        columns = set()
        for flow in self.DEMANDS:
            for link in (("m", "t"), ("t", "m"), ("m", "y"), ("y", "t")):
                col = model.route_var(flow, link)
                assert model.model.var_name(col) == f"R[{flow},{link}]"
                columns.add(col)
        assert len(columns) == 4 * len(self.DEMANDS)
        assert model.route_var((1, 3), ("port:1", "a1")) is not None
        # Another flow's port is no link of this one; nor is a missing link.
        assert model.route_var((1, 3), ("port:2", "a2")) is None
        assert model.route_var((1, 3), ("no", "link")) is None

    def test_ports_on_one_switch_exchange_traffic_without_a_link(self):
        topo = topology([("a", "b", 10.0)], {1: "a", 2: "a", 3: "b"})
        model, reference = both(topo, {(1, 2): 3.0, (1, 3): 1.0, (3, 2): 1.0})
        routing = assert_te_equivalent(model, reference).routing
        assert routing[1, 2] == {("port:1", "a"): 1.0, ("a", "port:2"): 1.0}

    def test_a_hairpin_demand_stays_infeasible(self):
        # Table 2's source rows contradict themselves for u == v.
        model, reference = both(funnel(), {**self.DEMANDS, (3, 3): 1.0})
        assert assert_te_equivalent(model, reference) is None


def chorded_ring() -> Topology:
    """``s0 .. s3`` in a ring with both chords: every order of the inner
    switches lies on some simple path from port 1 (``s0``) to port 2 (``s3``)."""
    return topology(
        [("s0", "s1", 10.0), ("s1", "s3", 10.0), ("s0", "s2", 10.0),
         ("s2", "s3", 10.0), ("s1", "s2", 10.0), ("s0", "s3", 5.0)],
        {1: "s0", 2: "s3"},
    )


class TestWaypoints:
    DEMANDS = {(1, 2): 1.0, (2, 1): 1.0}

    def solved_path(self, needed, dep, placement, flow=(1, 2)):
        model, reference = both(chorded_ring(), self.DEMANDS, needed, dep, placement)
        solution = assert_te_equivalent(model, reference)
        inputs = reference.inputs
        paths = extract_paths(solution, inputs.topology, inputs.mapping, inputs.dependencies)
        return model, paths.path(*flow)

    def test_waypoints_are_visited_in_dependency_order(self):
        needed = {(1, 2): {"early", "late"}}
        for placement, path in [
            ({"early": "s1", "late": "s2"}, ("s0", "s1", "s2", "s3")),
            ({"early": "s2", "late": "s1"}, ("s0", "s2", "s1", "s3")),
        ]:
            _, chosen = self.solved_path(needed, [("early", "late")], placement)
            assert chosen == path
        # Without the dependency the flow need only pass both.
        _, chosen = self.solved_path(needed, [], {"early": "s2", "late": "s1"})
        assert set(chosen) == {"s0", "s1", "s2", "s3"}

    def test_variables_sharing_a_switch_keep_their_own_orderings(self):
        # a and b sit on s1; a must precede c (on s2), b must precede d
        # (on s3).
        needed = {(1, 2): {"a", "b", "c", "d"}}
        placement = {"a": "s1", "b": "s1", "c": "s2", "d": "s3"}
        _, chosen = self.solved_path(needed, [("a", "c"), ("b", "d")], placement)
        assert chosen == ("s0", "s1", "s2", "s3")
        # b's obligation alone leaves s2 free to come first ...
        _, chosen = self.solved_path(needed, [("b", "d")], placement)
        assert chosen.index("s1") < chosen.index("s3")
        # ... and an order no simple path realizes is infeasible in both.
        model, reference = both(
            chorded_ring(), self.DEMANDS, needed, [("c", "a"), ("d", "b")], placement
        )
        assert assert_te_equivalent(model, reference) is None

    def test_an_ordering_inside_one_switch_costs_nothing(self):
        needed = {(1, 2): {"a", "b"}}
        _, chosen = self.solved_path(needed, [("a", "b")], {"a": "s1", "b": "s1"})
        assert "s1" in chosen and len(chosen) == 3
