"""Tests for the data plane: splitting, NetASM, rules, and the simulator."""

import hashlib
from types import SimpleNamespace

import pytest

from repro import obs
from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import PacketStateMapping, packet_state_mapping
from repro.apps import default_subnets
from repro.dataplane.engine import (
    SequentialEngine,
    ShardedEngine,
    engine_names,
    get_engine,
)
from repro.core.controller import SnapController
from repro.dataplane import network as network_module
from repro.dataplane.header import (
    DONE_TAG,
    ROOT_TAG,
    SNAP_INPORT,
    SNAP_NODE,
    SNAP_OUTPORT,
)
from repro.dataplane import netasm
from repro.dataplane.netasm import compile_switch
from repro.dataplane.network import Network, Walker
from repro.dataplane.rules import build_rule_tables
from repro.dataplane.split import NodeIndex, split_summary
from repro.lang import ast
from repro.lang.ast import state_variables
from repro.lang.errors import DataPlaneError, RetiredNetworkError, SnapError
from repro.lang.packet import make_packet
from repro.lang.state import StateVariable, Store
from repro.milp.placement import build_placement_model
from repro.milp.results import RoutingPaths, extract_paths
from repro.obs.tracing import TRACER
from repro.topology.graph import Topology
from repro.topology.traffic import uniform_traffic_matrix
from repro.workloads import ReplayStats, replay
from repro.xfdd.build import build_xfdd

from tests.snapbench_programs import WORKLOADS, traffic, workload
from tests.test_engine import assert_replay_folds_run


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
        assert ROOT_TAG in program.entries

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


def line_network(policy=SIMPLE, defaults=None, num=3):
    topo = line_topology(num)
    xfdd, deps, mapping, demands, solution, routing = compile_case(policy, topo)
    return Network(
        topo, xfdd, solution.placement, routing, mapping, demands,
        {"s": False} if defaults is None else defaults,
    )


class TestNetworkSequential:
    _network = staticmethod(line_network)

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


class TestStateHandOver:
    """``adopt_state`` moves tables, ``global_store`` copies them, and a
    network whose state has a successor is retired."""

    @staticmethod
    def _table(net, var="s"):
        return net.switches[net.placement[var]].store.variable(var)

    def test_no_entry_is_written_however_many_are_held(self, monkeypatch):
        old = line_network()
        held = self._table(old)
        for k in range(10_000):
            held.set((k,), True)
        calls = []
        plain_set = StateVariable.set

        def counting_set(variable, key, value):
            calls.append(key)
            plain_set(variable, key, value)

        monkeypatch.setattr(StateVariable, "set", counting_set)
        fresh = line_network()
        fresh.adopt_state(old)
        assert calls == []
        assert self._table(fresh) is held and len(held) == 10_000
        # The adopted table is the one the next packet reads and writes.
        assert fresh.inject(make_packet(srcip=9_999), 1)[0].egress == 2
        assert calls == []
        fresh.inject(make_packet(srcip=10_000), 1)
        assert calls == [(10_000,)] and len(held) == 10_001

    def test_moved_variable_reads_the_new_programs_default(self):
        count = ast.Seq(ast.StateIncr("s", ast.Field("srcip")), ast.Mod("outport", 2))
        old = line_network(count, {"s": 0})
        old.inject(make_packet(srcip=1), 1)
        fresh = line_network(count, {"s": 7})
        fresh.adopt_state(old)
        store = fresh.global_store()
        assert store.variable("s").default == 7
        assert store.read("s", (1,)) == 1 and store.read("s", (2,)) == 7
        fresh.inject(make_packet(srcip=2), 1)
        assert fresh.global_store().read("s", (2,)) == 8

    def test_dropped_variable_is_gone_and_a_new_one_starts_empty(self):
        renamed = ast.Seq(
            ast.StateMod("t", ast.Field("srcip"), ast.Value(True)),
            ast.Mod("outport", 2),
        )
        old = line_network()
        old.inject(make_packet(srcip=1), 1)
        fresh = line_network(renamed, {"t": False})
        fresh.adopt_state(old)
        store = fresh.global_store()
        assert store.names() == ("t",)
        assert len(store.variable("t")) == 0

    def test_adopting_after_the_first_packet_rebinds_the_accessors(self):
        old, fresh = line_network(), line_network()
        old.inject(make_packet(srcip=1), 1)
        fresh.inject(make_packet(srcip=2), 1)  # generated code is bound
        fresh.adopt_state(old)
        fresh.inject(make_packet(srcip=3), 1)
        assert self._table(fresh) is self._table(old)
        assert sorted(self._table(fresh).snapshot()) == [(1,), (3,)]

    def test_global_store_is_a_snapshot_equal_to_the_entrywise_union(self):
        net = line_network()
        net.inject_many([(make_packet(srcip=k), 1) for k in range(5)])
        store = net.global_store()
        entrywise = Store(net.state_defaults)
        for program in net.switches.values():
            for name in program.store.names():
                for key, value in program.store.variable(name).items():
                    entrywise.write(name, key, value)
        assert store == entrywise
        assert store.variable("s").default is False
        store.write("s", (99,), True)
        assert self._table(net).get((99,)) is False

    def test_every_driver_of_a_retired_network_raises(self):
        old = line_network()
        arrival = (make_packet(srcip=1), 1)
        old.inject(*arrival)
        rewired = old.rewire(old.topology, old.routing)
        assert old.retired_by is None  # a direct rewire retires nothing
        assert rewired.switches is old.switches
        fresh = line_network()
        fresh.adopt_state(old)
        drivers = {
            "inject": lambda: old.inject(*arrival),
            "inject_many": lambda: old.inject_many([arrival]),
            "stream": lambda: next(old.stream([arrival])),
            "inject_concurrent": lambda: old.inject_concurrent([arrival]),
            "walker": lambda: Walker(old),
            "global_store": old.global_store,
            "adopt_state": lambda: line_network().adopt_state(old),
            **{
                f"engine {name}": lambda name=name: get_engine(name).run(old, [arrival])
                for name in engine_names()
            },
        }
        for name, drive in drivers.items():
            with pytest.raises(RetiredNetworkError, match="adopted it"):
                drive()
        assert len(self._table(fresh)) == 1 and fresh.retired_by is None


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


class TestFailuresAreNeverMemoised:
    """A lookup that raises leaves no continuation cell behind: the Nth
    packet that fails raises what the first did, packets that complete
    through the same ``(switch, ingress)`` are delivered and counted, and
    the link counts are those of a walker that memoises nothing."""

    def _network(self, policy, placement=None, defaults=None):
        topo = line_topology(3)
        xfdd, _, mapping, demands, solution, routing = compile_case(policy, topo)
        return Network(
            topo, xfdd, placement or solution.placement, routing, mapping,
            demands, defaults or {"s": False},
        )

    @staticmethod
    def _links(walker):
        links: dict = {}
        walker.add_link_counts(links)
        return links

    def test_pause_with_no_candidate_egress(self):
        """A hairpin that needs state held on another switch has no flow
        to ride there (S_uu is not in the packet-state mapping)."""
        net = self._network(
            ast.If(
                ast.Test("srcip", 5),
                ast.Seq(
                    ast.StateMod("s", ast.Field("srcip"), ast.Value(True)),
                    ast.Mod("outport", 1),
                ),
                ast.Mod("outport", 2),
            ),
            placement={"s": "s2"},
        )
        walker = Walker(net)
        hairpin, good = make_packet(srcip=5), make_packet(srcip=6)
        errors = []
        for packet in (hairpin, hairpin, good, hairpin, good, hairpin):
            try:
                records = walker.run_packet(packet, 1)
            except DataPlaneError as exc:
                errors.append(str(exc))
            else:
                assert [(r.egress, r.hops) for r in records] == [(2, 2)]
        assert errors == [
            "no candidate egress for flow from port 1 pausing on 's' at s0"
        ] * 4
        assert self._links(walker) == {("s0", "s1"): 2, ("s1", "s2"): 2}
        assert net.global_store().read("s", (5,)) is False

    def test_replay_raising_mid_walk_leaves_what_stream_leaves(self):
        """The hairpin above, mid-trace, after its ingress program wrote
        state: ``replay()`` stops where ``Network.stream`` stops, and the
        span, ``snap_replay_packets_total``, the link counts and the
        state are those of the stream consumed up to the raise."""
        def network():
            return self._network(
                ast.Seq(
                    ast.StateIncr("c", ast.Field("srcip")),
                    ast.If(
                        ast.Test("srcip", 5),
                        ast.Seq(
                            ast.StateMod("s", ast.Field("srcip"), ast.Value(True)),
                            ast.Mod("outport", 1),
                        ),
                        ast.Mod("outport", 2),
                    ),
                ),
                placement={"c": "s0", "s": "s2"},
                defaults={"c": 0, "s": False},
            )

        good, hairpin = (make_packet(srcip=6), 1), (make_packet(srcip=5), 1)
        arrivals = [good] * 3 + [hairpin] + [good] * 2
        streamed, ran = network(), []
        with pytest.raises(DataPlaneError, match="no candidate egress"):
            for records in streamed.stream(arrivals):
                ran.append(records)
        replayed = network()
        total = obs.REGISTRY.counter("snap_replay_packets_total").labels()
        before = total.value
        with pytest.raises(DataPlaneError, match="no candidate egress"):
            replay(arrivals, replayed)
        attrs = TRACER.spans("replay")[-1]["attrs"]
        assert attrs["packets"] == total.value - before == len(ran) == 3
        assert (attrs["delivered"], attrs["folded"]) == (3, 3)
        assert replayed.link_packets == streamed.link_packets == {
            ("s0", "s1"): 3, ("s1", "s2"): 3,
        }
        store = replayed.global_store()
        assert store == streamed.global_store()
        assert (store.read("c", (5,)), store.read("c", (6,))) == (1, 3)

    def test_replay_raising_in_a_program_after_a_pause(self):
        """An increment on a non-numeric cell raises at the owner switch,
        two links after ingress: the raising packet's links are counted
        in ``replay()`` as in ``Network.stream``."""
        def network():
            net = self._network(
                ast.Seq(
                    ast.StateIncr("c", ast.Field("srcip")), ast.Mod("outport", 2)
                ),
                placement={"c": "s2"}, defaults={"c": 0},
            )
            net.switches["s2"].store.write("c", (5,), "text")
            return net

        good, bad = (make_packet(srcip=6), 1), (make_packet(srcip=5), 1)
        arrivals = [good, good, bad, good]
        streamed, replayed = network(), network()
        with pytest.raises(SnapError, match="non-numeric"):
            list(streamed.stream(arrivals))
        with pytest.raises(SnapError, match="non-numeric"):
            replay(arrivals, replayed)
        assert replayed.link_packets == streamed.link_packets == {
            ("s0", "s1"): 3, ("s1", "s2"): 3,
        }
        assert replayed.global_store() == streamed.global_store()

    def test_replay_never_writes_a_trace_packet(self, mixed_campus, monkeypatch):
        """The fused walk reads each arrival's own field dict and copies it
        only where it leaves the template: the golden's forks, pauses,
        drops and header-bearing drops, a cell that raises and the hop
        limit (on a PAUSE link and on an EMIT) leave every packet as it
        was."""
        snapshot, arrivals = mixed_campus
        raising = self._network(
            ast.Seq(ast.StateIncr("c", ast.Field("srcip")), ast.Mod("outport", 2)),
            placement={"c": "s2"}, defaults={"c": 0},
        )
        raising.switches["s2"].store.write("c", (5,), "text")
        bad = [(make_packet(srcip=6), 1), (make_packet(srcip=5), 1)]
        looping = [(make_packet(srcip=1), 1)]
        packets = [packet for packet, _ in arrivals + bad + looping]
        before = [dict(packet._fields) for packet in packets]
        assert replay(arrivals, snapshot.build_network()).folded > 0
        with pytest.raises(SnapError, match="non-numeric"):
            replay(bad, raising)
        for limit in (0, 1):  # SIMPLE's two legs are one link each
            monkeypatch.setattr(network_module, "MAX_HOPS", limit)
            with pytest.raises(DataPlaneError, match="hop limit"):
                replay(looping, self._network(SIMPLE, placement={"s": "s1"}))
        assert [packet._fields for packet in packets] == before

    def test_routing_loop(self):
        net = self._network(ast.If(
            ast.Test("srcip", 1), ast.Mod("outport", 2), ast.Mod("outport", 1)
        ))
        net.rules.tables["s1"][(1, 2)] = "s0"  # s0 -> s1 -> s0 -> ...
        walker = Walker(net)
        looping, good = make_packet(srcip=1), make_packet(srcip=2)
        for packet, port, egress_hops in [
            (looping, 1, None), (good, 1, (1, 0)), (looping, 1, None),
            (good, 2, (1, 2)), (looping, 1, None), (good, 1, (1, 0)),
        ]:
            if egress_hops is None:
                with pytest.raises(DataPlaneError) as raised:
                    walker.run_packet(packet, port)
                assert str(raised.value) == network_module.HOP_LIMIT_MESSAGE
            else:
                (record,) = walker.run_packet(packet, port)
                assert (record.egress, record.hops) == egress_hops
        assert self._links(walker) == {("s2", "s1"): 1, ("s1", "s0"): 1}

    def test_total_hop_overrun_counts_the_links_it_took(self, monkeypatch):
        """Two forwarding legs, each within the limit, their sum over
        it: the walk raises on the second leg, after counting it — also
        in ``replay()``'s fold, which takes both cells itself once the
        first packet has built them."""
        net = self._network(SIMPLE, placement={"s": "s1"})
        walker = Walker(net)
        assert [r.hops for r in walker.run_packet(make_packet(srcip=1), 1)] == [2]
        monkeypatch.setattr(network_module, "MAX_HOPS", 1)
        stats = ReplayStats()
        for drive in (
            lambda packet: walker.run_packet(packet, 1),
            lambda packet: walker.fold([(packet, 1)], stats),
        ):
            with pytest.raises(DataPlaneError) as raised:
                drive(make_packet(srcip=1))
            assert str(raised.value) == network_module.HOP_LIMIT_MESSAGE
        assert (stats.sent, stats.total_hops) == (0, 0)
        monkeypatch.undo()
        assert [r.egress for r in walker.run_packet(make_packet(srcip=2), 1)] == [2]
        assert self._links(walker) == {("s0", "s1"): 4, ("s1", "s2"): 4}


@pytest.fixture(scope="module")
def mixed_campus():
    """The campus six-app composite (snapbench's ``campus-ops`` program)
    and 2 000 arrivals: 1 900 of snapbench's mixed trace — half of it
    DNS sessions, whose responses fork after a pause — with, every 19th
    arrival, a packet sourced outside its port's subnet (dropped at
    ingress), one addressed behind no port (emitted with no outport) or
    a DNS response on an odd port pair.  Yields ``(snapshot, arrivals)``."""
    wl = workload("campus-ops")
    subnets = default_subnets(6)
    arrivals = list(traffic.mixed(subnets, 1900, 7).trace)
    for k in range(100):
        u, v = 1 + k % 6, 1 + (k + 2) % 6
        if k % 3 == 0:
            packet = make_packet(
                srcip=subnets[v].host(k + 1), dstip=subnets[v].host(7)
            )
        elif k % 3 == 1:
            packet = make_packet(
                srcip=subnets[u].host(k + 1), dstip=0xC0A80000 + k
            )
        else:
            packet = make_packet(
                srcip=subnets[u].host(k + 1), dstip=subnets[v].host(7),
                srcport=53, dstport=9,
                **{"dns.rdata": k, "dns.qname": k % 3, "dns.ttl": k % 2},
            )
        arrivals.insert(19 * k + 5, (packet, u))
    controller = SnapController(wl.topology, wl.program())
    try:
        yield controller.submit(), arrivals
    finally:
        controller.close()


class TestContinuationCells:
    #: blake2b-16 over every record's ``(sorted fields, egress, hops)``
    #: in stream order, then the sorted ``link_packets`` — taken at
    #: 9616888, the last commit whose walker wrote the SNAP header into
    #: every packet and looked the route up per packet, on the placement
    #: and paths the walk search certifies: p1.* and p4.blacklist and
    #: p5.* on I1, p2.* on I2, p3.* on D1, p4.orphan and p4.susp-client
    #: on D2, p6.* on D4 (HiGHS's placement, with p4.blacklist and p5.*
    #: on C6 and p4.orphan on C2, read 3fc7250781af811df2148bcfddc085d9).
    GOLDEN = "6e12514bcc8c9e47bd5107f86fb3d06c"
    #: Packets ``replay()`` folds without a record: all but the forks
    #: (386 of the 2 000) and the sampled ones.
    FOLDED = {0: 1614, 7: 1393}

    def test_records_and_link_counts_equal_the_per_packet_walk(self, mixed_campus):
        snapshot, arrivals = mixed_campus
        net = snapshot.build_network()
        hasher = hashlib.blake2b(digest_size=16)
        forked = headers = 0
        for records in net.stream(arrivals):
            forked += len(records) > 1
            for record in records:
                fields = record.fields
                hasher.update(repr(
                    (sorted(fields.items()), record.egress, record.hops)
                ).encode())
                if record.egress is None:
                    headers += 1
                    assert fields[SNAP_INPORT] == fields["inport"]
                    assert fields[SNAP_NODE] == ROOT_TAG and record.hops == 0
                    assert SNAP_OUTPORT not in fields
                else:
                    assert not any(name.startswith("snap.") for name in fields)
        hasher.update(repr(sorted(net.link_packets.items())).encode())
        assert (forked, headers) == (386, 67)
        assert hasher.hexdigest() == self.GOLDEN

    @staticmethod
    def _dropping_after_a_pause():
        """Every copy of a line network's ``s``-counting policy is
        dropped: after the pause to ``s``'s switch, or given port 9."""
        policy = ast.Seq(
            ast.StateIncr("s", ast.Field("srcip")),
            ast.If(ast.Test("srcip", 5), ast.Drop(), ast.Mod("outport", 9)),
        )
        topo = line_topology(3)
        xfdd, _, mapping, demands, solution, routing = compile_case(policy, topo)
        assert solution.placement == {"s": "s2"}
        return SimpleNamespace(build_network=lambda: Network(
            topo, xfdd, solution.placement, routing, mapping, demands, {"s": 0}
        ))

    def test_header_of_a_copy_dropped_after_a_pause(self):
        """Dropped and port-less copies keep the header they carried:
        ingress port, the egress they were tagged with, the last tag."""
        net = self._dropping_after_a_pause().build_network()
        got = [
            (record.fields, record.egress, record.hops)
            for srcip, port in [(5, 1), (6, 1), (5, 2), (6, 2)]
            for record in net.inject(make_packet(srcip=srcip), port)
        ]
        assert got == [
            ({"srcip": 5, "inport": 1, SNAP_INPORT: 1, SNAP_NODE: 2,
              SNAP_OUTPORT: 2}, None, 2),
            ({"srcip": 6, "inport": 1, "outport": 9, SNAP_INPORT: 1,
              SNAP_NODE: 5, SNAP_OUTPORT: 2}, None, 2),
            ({"srcip": 5, "inport": 2, SNAP_INPORT: 2, SNAP_NODE: ROOT_TAG},
             None, 0),
            ({"srcip": 6, "inport": 2, "outport": 9, SNAP_INPORT: 2,
              SNAP_NODE: ROOT_TAG}, None, 0),
        ]
        assert net.link_packets == {("s0", "s1"): 2, ("s1", "s2"): 2}

    def test_replay_folds_drops_after_a_pause_and_copies_with_no_port(self):
        """The drops above, replayed: each walk is one dropped copy, so
        every packet is counted by its path."""
        arrivals = [
            (make_packet(srcip=srcip), port)
            for srcip, port in [(5, 1), (6, 1), (5, 2), (6, 2)] * 3
        ]
        stats = assert_replay_folds_run(self._dropping_after_a_pause(), arrivals)
        assert (stats.dropped, stats.folded) == (12, 12)

    def test_a_rebuilt_network_replays_on_cached_code(
        self, mixed_campus, monkeypatch
    ):
        """The fused walk's templates share the switch modules' code
        cache: a replay on a second, identically rebuilt network
        compiles nothing."""
        monkeypatch.setattr(obs.REGISTRY, "enabled", True)
        snapshot, arrivals = mixed_campus
        family = obs.REGISTRY.counter("snap_netasm_codegen_total")
        compiled, hits = (
            family.labels(result=result) for result in ("compiled", "cache_hit")
        )
        replay(arrivals, snapshot.build_network())
        before = (compiled.value, hits.value)
        replay(arrivals, snapshot.build_network())
        assert compiled.value == before[0] and hits.value > before[1]

    def test_templates_are_generated_once_per_program(
        self, mixed_campus, monkeypatch
    ):
        """``SwitchProgram.template`` keeps its text on the program: a
        second replay on the same network, or on a rewired one (which
        shares its programs), generates nothing.  Adopting state unbinds
        the templates: a replay after it writes the adopted tables, as
        ``Network.stream`` does."""
        snapshot, arrivals = mixed_campus
        entries = []
        generate = netasm._generate_source
        monkeypatch.setattr(
            netasm, "_generate_source",
            lambda program, traced, entry=None: entries.append(entry)
            or generate(program, traced, entry),
        )
        network = snapshot.build_network()
        replay(arrivals, network)
        assert any(entry is not None for entry in entries)
        entries.clear()
        replay(arrivals, network)
        replay(arrivals, network.rewire(network.topology, network.routing))
        assert entries == []

        drops = self._dropping_after_a_pause()  # counts per srcip
        trace = [(make_packet(srcip=srcip), 1) for srcip in (5, 6, 6)]

        def successor(run):
            previous, network = drops.build_network(), drops.build_network()
            run(trace, previous)
            run(trace, network)
            network.adopt_state(previous)
            run(trace, network)
            return network.global_store()

        counted = successor(replay)
        assert counted == successor(lambda trace, net: list(net.stream(trace)))
        assert (counted.read("s", (5,)), counted.read("s", (6,))) == (2, 4)

    @pytest.mark.parametrize("every", [0, 7], ids=["unsampled", "postcards"])
    def test_replay_folds_the_records(self, mixed_campus, every):
        """``replay()``'s fold on the golden's forks, header-bearing
        drops and pauses, unsampled and with every 7th packet's
        postcard."""
        snapshot, arrivals = mixed_campus
        stats = assert_replay_folds_run(snapshot, arrivals, every)
        assert stats.folded == self.FOLDED[every]

    def test_replay_folds_a_kept_egress_and_a_drop_with_an_outport(self):
        """Two pauses in a row, where Appendix D keeps the egress the first
        one chose although the highest-demand flow needing ``y`` branches
        off to ``b``; and copies dropped after they were given an outport
        whose DONE cell is built.  The fold carries the kept egress from
        cell to cell and takes no DONE cell for a drop."""
        topo = Topology("fork")
        for name in ("s0", "s1", "a", "b", "s2", "s3", "s4"):
            topo.add_switch(name)
        for link in [("s0", "s1"), ("s1", "a"), ("s1", "b"), ("a", "s2"),
                     ("b", "s2"), ("s2", "s3"), ("s2", "s4")]:
            topo.add_link(*link, 100.0)
        for port, switch in [(1, "s0"), (2, "s3"), (3, "s4")]:
            topo.attach_port(port, switch)
        topo.validate()

        def incr(var):
            return ast.StateIncr(var, ast.Field("srcip"))

        xfdd = build_xfdd(ast.If(
            ast.Test("dstip", 2),
            ast.Seq(incr("x"), ast.Seq(incr("y"), ast.Mod("outport", 2))),
            ast.If(
                ast.Test("dstip", 3),
                ast.Seq(incr("y"), ast.Mod("outport", 3)),
                ast.Seq(ast.Mod("outport", 3), ast.Seq(incr("y"), ast.Drop())),
            ),
        ))
        placement = {"x": "s1", "y": "s2"}
        routing = RoutingPaths({
            (1, 2): ("s0", "s1", "a", "s2", "s3"),
            (1, 3): ("s0", "s1", "b", "s2", "s4"),
        }, placement)
        mapping = packet_state_mapping(xfdd, [1, 2, 3], [1, 2, 3])
        snapshot = SimpleNamespace(build_network=lambda: Network(
            topo, xfdd, placement, routing, mapping,
            {(1, 2): 1.0, (1, 3): 5.0}, {"x": 0, "y": 0},
        ))
        arrivals = [(make_packet(srcip=k, dstip=2 + k % 3), 1) for k in range(9)]
        stats = assert_replay_folds_run(snapshot, arrivals)
        assert (stats.per_egress, stats.dropped, stats.folded) == ({2: 3, 3: 3}, 3, 9)
        network = snapshot.build_network()
        replay(arrivals, network)
        assert network.link_packets[("s1", "a")] == 3

    def test_lane_link_counts_equal_the_streams(self, mixed_campus):
        snapshot, arrivals = mixed_campus
        streamed = snapshot.build_network()
        records = list(streamed.stream(arrivals))
        batch = [(i, packet, port) for i, (packet, port) in enumerate(arrivals)]
        results, links = Walker(snapshot.build_network(), batch).run()
        assert links == streamed.link_packets
        assert [
            [(r.fields, r.egress, r.hops) for r in results[i]]
            for i in range(len(arrivals))
        ] == [[(r.fields, r.egress, r.hops) for r in rs] for rs in records]

    def test_one_pause_decision_per_cell(self, mixed_campus):
        """``pause_egress`` (Appendix D) runs when a PAUSE cell is built
        and never again: once per distinct ``(switch, u, v, tag)``."""
        snapshot, arrivals = mixed_campus
        net = snapshot.build_network()
        calls = []
        decide = net.pause_egress
        net.pause_egress = lambda *args: calls.append(args) or decide(*args)
        walker = Walker(net, [(i, p, port) for i, (p, port) in enumerate(arrivals)])
        walker.run()
        cells = [
            cell for _, pause in walker._cells.values() for cell in pause.values()
        ]
        assert 0 < len(calls) == len(cells)
        assert sum(cell[0] for cell in cells) > 20 * len(calls)


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
