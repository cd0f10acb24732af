"""Tests for the data plane: splitting, NetASM, rules, and the simulator."""

import hashlib

import pytest

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import PacketStateMapping, packet_state_mapping
from repro.dataplane.engine import SequentialEngine, ShardedEngine
from repro.dataplane.header import DONE_TAG, ROOT_TAG, SNAP_NODE
from repro.dataplane.netasm import compile_switch
from repro.dataplane.network import Network
from repro.dataplane.rules import build_rule_tables
from repro.dataplane.split import NodeIndex, split_summary
from repro.lang import ast
from repro.lang.ast import state_variables
from repro.lang.errors import DataPlaneError
from repro.lang.packet import make_packet
from repro.milp.placement import build_placement_model
from repro.milp.results import RoutingPaths, extract_paths
from repro.topology.graph import Topology
from repro.topology.traffic import uniform_traffic_matrix
from repro.xfdd.build import build_xfdd

from tests.snapbench_programs import WORKLOADS, workload


def line_topology(num=3, capacity=100.0):
    topo = Topology("line")
    for i in range(num):
        topo.add_switch(f"s{i}")
    for i in range(num - 1):
        topo.add_link(f"s{i}", f"s{i+1}", capacity)
    topo.attach_port(1, "s0")
    topo.attach_port(2, f"s{num-1}")
    topo.validate()
    return topo


def compile_case(policy, topo, ports=(1, 2)):
    deps = analyze_dependencies(policy)
    xfdd = build_xfdd(policy, state_rank=deps.state_rank)
    mapping = packet_state_mapping(xfdd, list(ports), list(ports))
    demands = uniform_traffic_matrix(ports, 10.0)
    solution = build_placement_model(topo, demands, mapping, deps).solve()
    routing = extract_paths(solution, topo, mapping, deps)
    return xfdd, deps, mapping, demands, solution, routing


SIMPLE = ast.Seq(
    ast.If(
        ast.StateTest("s", ast.Field("srcip"), ast.Value(True)),
        ast.Id(),
        ast.StateMod("s", ast.Field("srcip"), ast.Value(True)),
    ),
    ast.Mod("outport", 2),
)


class TestNodeIndex:
    def test_tags_unique_and_stable(self):
        xfdd = build_xfdd(SIMPLE)
        index = NodeIndex(xfdd)
        index2 = NodeIndex(xfdd)
        assert len(index) == len(index2)
        assert ROOT_TAG not in index._by_id  # reserved

    def test_lookup_roundtrip(self):
        xfdd = build_xfdd(SIMPLE)
        index = NodeIndex(xfdd)
        for tag in list(index._by_id):
            assert index.lookup(tag) is not None

    def test_unknown_tag_raises(self):
        index = NodeIndex(build_xfdd(SIMPLE))
        with pytest.raises(DataPlaneError):
            index.lookup(99999)


class TestSplitSummary:
    def test_state_nodes_assigned_to_owner(self):
        xfdd = build_xfdd(SIMPLE)
        index = NodeIndex(xfdd)
        owners = split_summary(xfdd, index, {"s": "s1"})
        assert "s1" in owners and owners["s1"]


class TestCompileSwitch:
    def test_port_switch_has_root_entry(self):
        xfdd = build_xfdd(SIMPLE)
        index = NodeIndex(xfdd)
        program = compile_switch("s0", xfdd, index, {"s": "s1"}, {"s": False}, True)
        assert program.can_process(ROOT_TAG)

    def test_non_port_switch_without_state_has_no_entries(self):
        xfdd = build_xfdd(SIMPLE)
        index = NodeIndex(xfdd)
        program = compile_switch("s2", xfdd, index, {"s": "s1"}, {"s": False}, False)
        assert not program.entries

    def test_pause_at_remote_state(self):
        xfdd = build_xfdd(SIMPLE)
        index = NodeIndex(xfdd)
        ingress = compile_switch("s0", xfdd, index, {"s": "s1"}, {"s": False}, True)
        pkt = make_packet(srcip=1).modify(SNAP_NODE, ROOT_TAG)
        outcomes = ingress.process(pkt)
        assert len(outcomes) == 1
        assert outcomes[0].kind == "pause"
        assert outcomes[0].var == "s"
        assert outcomes[0].packet.get(SNAP_NODE) != ROOT_TAG

    def test_owner_resumes_and_emits(self):
        xfdd = build_xfdd(SIMPLE)
        index = NodeIndex(xfdd)
        ingress = compile_switch("s0", xfdd, index, {"s": "s1"}, {"s": False}, True)
        owner = compile_switch("s1", xfdd, index, {"s": "s1"}, {"s": False}, False)
        pkt = make_packet(srcip=1).modify(SNAP_NODE, ROOT_TAG)
        paused = ingress.process(pkt)[0].packet
        outcomes = owner.process(paused)
        assert [o.kind for o in outcomes] == ["emit"]
        assert outcomes[0].packet.get("outport") == 2
        assert owner.store.read("s", (1,)) is True

    def test_local_state_processed_at_ingress(self):
        xfdd = build_xfdd(SIMPLE)
        index = NodeIndex(xfdd)
        ingress = compile_switch("s0", xfdd, index, {"s": "s0"}, {"s": False}, True)
        pkt = make_packet(srcip=1).modify(SNAP_NODE, ROOT_TAG)
        outcomes = ingress.process(pkt)
        assert [o.kind for o in outcomes] == ["emit"]

    def test_to_text_listing(self):
        xfdd = build_xfdd(SIMPLE)
        index = NodeIndex(xfdd)
        program = compile_switch("s0", xfdd, index, {"s": "s1"}, {"s": False}, True)
        text = program.to_text()
        assert "BRANCH" in text or "PAUSE" in text


#: blake2b-16 over every switch's ``to_lowered()`` (ops, entry tags,
#: defaults) and the instruction total, per snapbench program under the
#: solver-free placement below — taken at the commit before the shared
#: ownership walk (b719151), where every switch walked the xFDD itself.
LOWERED_AT_PARENT = {
    "campus-ops": ("31d4e96001d3935b931e68fd305937c8", 425),
    "isp-compile": ("8eab310d43895ccf40f00fd8759dfa79", 1336),
    "policy-churn": ("1820bd7b3b9c53a30385889d11690159", 1711),
    "monitor-replay": ("58d3240eee673082a85252796bf2be4a", 744),
}


def snapbench_network(name):
    """A snapbench program lowered onto its topology: variable ``i`` (in
    sorted order) on switch ``i`` (in sorted order, wrapping)."""
    wl = workload(name)
    program = wl.program()
    full = program.full_policy()
    xfdd = build_xfdd(full, program.registry)
    switches = sorted(wl.topology.switches())
    placement = {
        var: switches[i % len(switches)]
        for i, var in enumerate(sorted(state_variables(full)))
    }
    ports = sorted(wl.topology.ports)
    return Network(
        wl.topology, xfdd, placement, RoutingPaths({}, placement),
        PacketStateMapping({}, ports, ports), {}, program.state_defaults,
    )


class TestSharedLowering:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_programs_equal_the_per_switch_walk(self, name):
        """Same instructions, same entry tags, same ``netasm_instrs`` as
        when each switch found its own nodes; and the network's programs
        (one ownership walk for all) equal ``compile_switch`` on its own."""
        network = snapbench_network(name)
        hasher = hashlib.blake2b(digest_size=16)
        port_switches = set(network.topology.ports.values())
        for switch in sorted(network.switches):
            lowered = network.switches[switch].to_lowered()
            hasher.update(repr((
                switch, lowered.ops, sorted(lowered.entries.items()),
                sorted(lowered.state_defaults.items()),
            )).encode())
            alone = compile_switch(
                switch, network.index.root, network.index, network.placement,
                network.state_defaults, switch in port_switches,
            )
            assert alone.to_lowered() == lowered
        total = sum(network.instruction_counts().values())
        assert (hasher.hexdigest(), total) == LOWERED_AT_PARENT[name]

    def test_transit_switch_compiles_without_the_xfdd(self):
        """No port, nothing owned: an empty program, and no node visited."""

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"transit switch looked at index.{name}")

        network = snapbench_network("isp-compile")
        transit = [
            switch for switch, program in network.switches.items()
            if not program.instructions
        ]
        assert len(transit) > 100
        program = compile_switch(
            transit[0], None, Untouchable(), network.placement,
            network.state_defaults, has_ports=False, owned=(),
        )
        assert program.instructions == [] and program.entries == {}
        assert program.to_lowered() == network.switches[transit[0]].to_lowered()


class TestRuleTables:
    def test_next_hops(self):
        routing = RoutingPaths({(1, 2): ("s0", "s1", "s2")}, {})
        tables = build_rule_tables(routing)
        assert tables.next_hop("s0", 1, 2) == "s1"
        assert tables.next_hop("s1", 1, 2) == "s2"
        assert tables.next_hop("s2", 1, 2) is None

    def test_rule_counts(self):
        routing = RoutingPaths(
            {(1, 2): ("s0", "s1", "s2"), (2, 1): ("s2", "s1", "s0")}, {}
        )
        tables = build_rule_tables(routing)
        assert tables.total_rules() == 4
        assert tables.rule_counts()["s1"] == 2

    def test_rules_for_repr(self):
        routing = RoutingPaths({(1, 2): ("s0", "s1")}, {})
        rules = build_rule_tables(routing).rules_for("s0")
        assert "snap.inport=1" in repr(rules[0])


class TestNetworkSequential:
    def _network(self, policy=SIMPLE, num=3):
        topo = line_topology(num)
        xfdd, deps, mapping, demands, solution, routing = compile_case(policy, topo)
        return Network(
            topo, xfdd, solution.placement, routing, mapping, demands, {"s": False}
        )

    def test_first_packet_travels_and_writes(self):
        net = self._network()
        records = net.inject(make_packet(srcip=1), 1)
        assert len(records) == 1
        assert records[0].egress == 2
        store = net.global_store()
        assert store.read("s", (1,)) is True

    def test_second_packet_sees_state(self):
        net = self._network()
        net.inject(make_packet(srcip=1), 1)
        records = net.inject(make_packet(srcip=1), 1)
        assert records[0].egress == 2

    def test_snap_header_stripped_on_delivery(self):
        net = self._network()
        record = net.inject(make_packet(srcip=1), 1)[0]
        assert record.packet.get(SNAP_NODE) is None

    def test_link_counters(self):
        net = self._network()
        net.inject(make_packet(srcip=1), 1)
        assert net.link_packets.get(("s0", "s1")) == 1

    def test_dropping_policy(self):
        policy = ast.Seq(
            ast.StateIncr("s", ast.Field("srcip")),
            ast.Drop(),
        )
        topo = line_topology(3)
        xfdd, deps, mapping, demands, solution, routing = compile_case(policy, topo)
        net = Network(
            topo, xfdd, solution.placement, routing, mapping, demands, {"s": 0}
        )
        records = net.inject(make_packet(srcip=5), 1)
        assert all(r.egress is None for r in records)
        assert net.global_store().read("s", (5,)) == 1

    def test_instruction_counts_reported(self):
        net = self._network()
        counts = net.instruction_counts()
        assert set(counts) == {"s0", "s1", "s2"}


class TestNetworkConcurrent:
    def test_interleaved_injection_completes(self):
        topo = line_topology(3)
        xfdd, deps, mapping, demands, solution, routing = compile_case(SIMPLE, topo)
        net = Network(
            topo, xfdd, solution.placement, routing, mapping, demands, {"s": False}
        )
        batch = [(make_packet(srcip=i), 1) for i in range(5)]
        records = net.inject_concurrent(batch)
        assert len(records) == 5
        assert all(r.egress == 2 for r in records)

    def test_scheduler_sees_live_queue_without_copying(self):
        """The pending queue is handed to the scheduler directly; copying
        it to a fresh list per hop made adversarial soaks quadratic."""
        from collections import deque

        topo = line_topology(3)
        xfdd, deps, mapping, demands, solution, routing = compile_case(SIMPLE, topo)
        net = Network(
            topo, xfdd, solution.placement, routing, mapping, demands, {"s": False}
        )
        seen = []

        def scheduler(pending):
            seen.append(pending)
            return len(pending) - 1  # adversarial: always the newest hop

        batch = [(make_packet(srcip=i), 1) for i in range(4)]
        records = net.inject_concurrent(batch, scheduler=scheduler)
        assert len(records) == 4
        assert all(type(pending) is deque for pending in seen)
        assert all(pending is seen[0] for pending in seen)


class TestHopLimit:
    """A routing loop ends in ``DataPlaneError`` from every packet
    driver, not in a hang: the walker bounds each forwarding segment
    and each packet's total, the hop-granular driver each packet's
    count."""

    def _looping_network(self, policy=ast.Mod("outport", 2)):
        topo = line_topology(3)
        xfdd, _, mapping, demands, solution, routing = compile_case(
            policy, topo
        )
        net = Network(topo, xfdd, solution.placement, routing, mapping, demands, {})
        net.rules.tables["s1"][(1, 2)] = "s0"  # s0 -> s1 -> s0 -> ...
        return net

    @pytest.mark.parametrize("drive", [
        lambda net, arrivals: net.inject(*arrivals[0]),
        lambda net, arrivals: net.inject_concurrent(arrivals),
        lambda net, arrivals: SequentialEngine().run(net, arrivals),
        lambda net, arrivals: ShardedEngine().run(net, arrivals),
    ], ids=["inject", "inject_concurrent", "sequential", "sharded"])
    def test_rule_table_cycle_raises(self, drive):
        net = self._looping_network()
        with pytest.raises(DataPlaneError, match="hop limit"):
            drive(net, [(make_packet(srcip=1), 1)])

    def test_stream_keeps_the_link_counts_of_packets_before_the_loop(self):
        """A packet that raises ends the stream; the packets that ran
        before it stay counted on their links, the ones after it never
        ran."""
        net = self._looping_network(ast.If(
            ast.Test("inport", 1), ast.Mod("outport", 2), ast.Mod("outport", 1)
        ))
        packet = make_packet(srcip=1)
        stream = net.stream([(packet, 2), (packet, 2), (packet, 1), (packet, 2)])
        assert [[r.egress for r in next(stream)] for _ in range(2)] == [[1], [1]]
        assert net.link_packets == {}  # merged when the stream ends
        with pytest.raises(DataPlaneError, match="hop limit"):
            next(stream)
        assert net.link_packets == {("s2", "s1"): 2, ("s1", "s0"): 2}
        assert list(stream) == []


def star_topology():
    """Three ports on three edge switches around one core."""
    topo = Topology("star")
    for name in ("s1", "s2", "s3", "c"):
        topo.add_switch(name)
    for edge in ("s1", "s2", "s3"):
        topo.add_link(edge, "c", 100.0)
    topo.attach_port(1, "s1")
    topo.attach_port(2, "s2")
    topo.attach_port(3, "s3")
    topo.validate()
    return topo


class TestMulticastDeliveryOrder:
    """Sequential mode processes a switch's packet copies in the order the
    switch emitted them (depth-first), so multicast delivery records come
    out in the xFDD leaf's deterministic emission order — previously the
    right-popping queue ran them in *reverse* emission order."""

    MULTICAST = ast.Parallel(ast.Mod("outport", 2), ast.Mod("outport", 3))

    def _network(self):
        topo = star_topology()
        xfdd, deps, mapping, demands, solution, routing = compile_case(
            self.MULTICAST, topo, ports=(1, 2, 3)
        )
        return Network(
            topo, xfdd, solution.placement, routing, mapping, demands, {}
        )

    def test_records_in_emission_order_and_match_eval(self):
        from repro.lang.semantics import eval_policy
        from repro.lang.state import Store

        net = self._network()
        packet = make_packet(srcip=7)
        records = net.inject(packet, 1)
        # Pinned: copies delivered in the leaf's emission order (outport 2
        # first), not reversed.
        assert [r.egress for r in records] == [2, 3]
        _, expected, _ = eval_policy(
            self.MULTICAST, Store({}), packet.modify("inport", 1)
        )
        delivered = frozenset(
            r.packet.without("inport") for r in records if r.egress is not None
        )
        assert delivered == frozenset(p.without("inport") for p in expected)

    def test_emission_order_stable_across_injections(self):
        net = self._network()
        for i in range(4):
            records = net.inject(make_packet(srcip=i), 1)
            assert [r.egress for r in records] == [2, 3]
