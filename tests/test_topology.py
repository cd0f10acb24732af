"""Tests for topologies and traffic matrices."""

import pytest

from repro.lang.errors import TopologyError
from repro.topology.campus import CAMPUS_PORTS, campus_subnet, campus_topology
from repro.topology.graph import Topology, port_node
from repro.topology.igen import igen_topology
from repro.topology.synthetic import (
    TABLE5,
    all_table5_topologies,
    paper_num_ports,
    synthetic_topology,
    table5_topology,
)
from repro.topology.traffic import gravity_traffic_matrix, uniform_traffic_matrix


class TestTopologyModel:
    def test_links_go_both_ways(self):
        topo = Topology("t")
        topo.add_switch("a")
        topo.add_switch("b")
        topo.add_link("a", "b", 10.0)
        assert topo.capacity("a", "b") == 10.0
        assert topo.capacity("b", "a") == 10.0

    def test_unknown_link_raises(self):
        topo = Topology("t")
        topo.add_switch("a")
        with pytest.raises(TopologyError):
            topo.capacity("a", "zzz")

    def test_attach_port_requires_switch(self):
        topo = Topology("t")
        with pytest.raises(TopologyError):
            topo.attach_port(1, "nope")

    def test_duplicate_port_rejected(self):
        topo = Topology("t")
        topo.add_switch("a")
        topo.attach_port(1, "a")
        with pytest.raises(TopologyError):
            topo.attach_port(1, "a")

    def test_validate_requires_connectivity(self):
        topo = Topology("t")
        topo.add_switch("a")
        topo.add_switch("b")
        topo.attach_port(1, "a")
        with pytest.raises(TopologyError):
            topo.validate()

    def test_without_link(self):
        topo = campus_topology()
        degraded = topo.without_link("C1", "C5")
        assert not degraded.graph.has_edge("C1", "C5")
        assert not degraded.graph.has_edge("C5", "C1")
        assert topo.graph.has_edge("C1", "C5")  # original untouched

    def test_expanded_graph_has_port_nodes(self):
        topo = campus_topology()
        expanded = topo.expanded_graph()
        assert expanded.has_edge(port_node(1), "I1")
        assert expanded.has_edge("I1", port_node(1))


class TestCampus:
    def test_shape(self):
        topo = campus_topology()
        assert topo.num_switches() == 12
        assert len(topo.ports) == 6

    def test_port_attachment(self):
        topo = campus_topology()
        for port, (switch, _) in CAMPUS_PORTS.items():
            assert topo.port_switch(port) == switch

    def test_subnets(self):
        assert str(campus_subnet(6)) == "10.0.6.0/24"

    def test_paper_paths_exist(self):
        topo = campus_topology()
        for a, b in (("I1", "C1"), ("C1", "C5"), ("C5", "D4"),
                     ("I2", "C2"), ("C2", "C6"), ("C6", "D4"), ("D3", "C5")):
            assert topo.graph.has_edge(a, b)


class TestTable5:
    @pytest.mark.parametrize("name", list(TABLE5))
    def test_exact_size(self, name):
        switches, directed_edges, _demands = TABLE5[name]
        topo = table5_topology(name, num_ports=6)
        assert topo.num_switches() == switches
        assert topo.num_directed_edges() == directed_edges

    def test_paper_num_ports(self):
        assert paper_num_ports("Stanford") == 144
        assert paper_num_ports("AS1755") == 60

    def test_deterministic(self):
        a = table5_topology("AS1221", num_ports=4, seed=7)
        b = table5_topology("AS1221", num_ports=4, seed=7)
        assert sorted(a.graph.edges) == sorted(b.graph.edges)

    def test_all_seven(self):
        topos = all_table5_topologies(num_ports=4)
        assert len(topos) == 7

    def test_unknown_name(self):
        with pytest.raises(TopologyError):
            table5_topology("AS9999")

    def test_too_few_links_rejected(self):
        with pytest.raises(TopologyError):
            synthetic_topology("bad", 10, 4)


class TestIGen:
    @pytest.mark.parametrize("n", [10, 50, 120])
    def test_sizes_and_connectivity(self, n):
        topo = igen_topology(n, num_ports=6, seed=1)
        assert topo.num_switches() == n
        topo.validate()

    def test_edge_fraction(self):
        topo = igen_topology(40, seed=2)
        # default: one port per edge switch, 70% of switches are edges
        assert len(topo.ports) == 28

    def test_deterministic(self):
        a = igen_topology(30, seed=5)
        b = igen_topology(30, seed=5)
        assert sorted(a.graph.edges) == sorted(b.graph.edges)


class TestTraffic:
    def test_gravity_total(self):
        demands = gravity_traffic_matrix(range(1, 7), 600.0, seed=3)
        assert sum(demands.values()) == pytest.approx(600.0)

    def test_gravity_no_diagonal(self):
        demands = gravity_traffic_matrix(range(1, 5), seed=0)
        assert all(u != v for u, v in demands)

    def test_gravity_deterministic(self):
        a = gravity_traffic_matrix(range(1, 5), seed=9)
        b = gravity_traffic_matrix(range(1, 5), seed=9)
        assert a == b

    def test_gravity_all_positive(self):
        demands = gravity_traffic_matrix(range(1, 9), seed=4)
        assert all(v > 0 for v in demands.values())

    def test_uniform(self):
        demands = uniform_traffic_matrix((1, 2, 3), 2.0)
        assert len(demands) == 6
        assert set(demands.values()) == {2.0}
