"""Tests for the sharded data-plane execution engine (§7.3 / Appendix C).

The load-bearing property: the sharded engine is *delivery-equivalent* to
the sequential engine — same records (packet, egress, hop count) in the
same order, same final state stores, same per-link packet counters — and
both agree with the OBS ``eval`` semantics, on the Table 3 application
traces.  Shards are proven disjoint before any parallelism happens, so
this holds whether lanes run inline or on a thread pool.
"""

import pytest

from repro.analysis.sharding import shard_by_inport, shard_defaults
from repro.apps import (
    assign_egress,
    default_subnets,
    dns_tunnel_detect,
    global_heavy_hitter,
    port_assumption,
    stateful_firewall,
    syn_flood_detect,
)
from repro.core.controller import SnapController
from repro.core.options import CompilerOptions
from repro.core.program import Program
from repro.dataplane.engine import (
    ProcessPoolEngine,
    SequentialEngine,
    ShardedEngine,
    get_engine,
    ingress_state_footprint,
    plan_for,
    plan_shards,
)
from repro.lang import ast, make_packet
from repro.lang.errors import DataPlaneError, SnapError
from repro.lang.state import Store
from repro.obs import postcards
from repro.obs.tracing import TRACER
from repro.topology.campus import campus_topology
from repro.util.ipaddr import IPPrefix
from repro import workloads
from repro.workloads import ReplayStats, replay, replay_obs

NUM_PORTS = 6
SUBNETS = default_subnets(NUM_PORTS)
PORTS = list(range(1, NUM_PORTS + 1))


def ip(text):
    return IPPrefix(text).network


def compiled(app=None, policy=None, defaults=None, name="case",
             engine="sequential", guard=None):
    if app is not None:
        body = app.policy if guard is None else ast.If(guard, app.policy, ast.Id())
        policy = ast.Seq(body, assign_egress(SUBNETS))
        defaults = app.state_defaults
        name = app.name
    program = Program(
        policy,
        assumption=port_assumption(SUBNETS),
        state_defaults=defaults or {},
        name=name,
    )
    controller = SnapController(
        campus_topology(), program, options=CompilerOptions(engine=engine)
    )
    return controller.submit(), program


def sharded_monitor(index=ast.Field("inport")):
    """§7.3's example: ``count[inport]++`` split into per-port shards
    (``index``: what the counters are indexed by, inport among it)."""
    body = ast.Seq(ast.StateIncr("count", index), assign_egress(SUBNETS))
    return compiled(
        policy=shard_by_inport(body, "count", PORTS),
        defaults=shard_defaults({"count": 0}, "count", PORTS),
        name="monitor-sharded",
    )


def record_view(records):
    return [(r.egress, r.hops, r.packet) for r in records]


def flat(results):
    """Every record of a run, in arrival order: the one sequence an
    engine that drops, duplicates or reorders a record changes."""
    return [record for records in results for record in records]


def assert_engines_equivalent(snapshot, program, trace, sharded=None):
    """Sequential ≡ sharded ≡ OBS eval, field by field."""
    net_seq = snapshot.build_network()
    net_shard = snapshot.build_network()
    arrivals = list(trace)
    seq = SequentialEngine().run(net_seq, arrivals)
    shard = (sharded or ShardedEngine()).run(net_shard, arrivals)

    assert len(seq) == len(shard) == len(arrivals)
    for per_seq, per_shard in zip(seq, shard):
        assert record_view(per_seq) == record_view(per_shard)
    assert net_seq.global_store() == net_shard.global_store()
    assert net_seq.link_packets == net_shard.link_packets
    assert record_view(flat(seq)) == record_view(flat(shard))

    obs_store, obs_outputs = replay_obs(
        trace, program.full_policy(), Store(program.state_defaults)
    )
    assert net_shard.global_store() == obs_store
    for records, expected in zip(shard, obs_outputs):
        delivered = frozenset(
            r.packet.without("inport") for r in records if r.egress is not None
        )
        assert delivered == frozenset(p.without("inport") for p in expected)


class TestShardPlanning:
    def test_sharded_monitor_gets_one_shard_per_port(self):
        snapshot, _ = sharded_monitor()
        plan = plan_shards(snapshot.build_network())
        assert plan.parallelism == NUM_PORTS
        for shard in plan.shards:
            (port,) = shard.ports
            assert shard.variables == frozenset((f"count@{port}",))

    def test_global_state_collapses_to_single_lane(self):
        """A variable every port can touch serializes everything."""
        snapshot, _ = compiled(app=dns_tunnel_detect())
        plan = plan_shards(snapshot.build_network())
        assert plan.parallelism == 1
        assert plan.shards[0].ports == tuple(PORTS)

    def test_footprint_only_covers_guarded_ports(self):
        """State guarded to one ingress port stays out of the others'
        footprints."""
        body = ast.Seq(
            ast.If(
                ast.Test("inport", 1),
                ast.StateIncr("only1", ast.Field("srcip")),
                ast.Id(),
            ),
            assign_egress(SUBNETS),
        )
        snapshot, _ = compiled(
            policy=body, defaults={"only1": 0}, name="guarded"
        )
        footprint = ingress_state_footprint(snapshot.xfdd, PORTS)
        assert "only1" in footprint[1]
        for port in PORTS[1:]:
            assert "only1" not in footprint[port]

    def test_stateless_ports_become_singleton_shards(self):
        body = ast.Seq(
            ast.If(
                ast.Test("inport", 1),
                ast.StateIncr("only1", ast.Field("srcip")),
                ast.Id(),
            ),
            assign_egress(SUBNETS),
        )
        snapshot, _ = compiled(
            policy=body, defaults={"only1": 0}, name="guarded"
        )
        plan = plan_shards(snapshot.build_network())
        assert plan.parallelism == NUM_PORTS  # 1 stateful + 5 stateless
        sizes = sorted(len(s.ports) for s in plan.shards)
        assert sizes == [1] * NUM_PORTS

    def test_plan_cached_per_network(self):
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        engine = ShardedEngine()
        assert engine.plan_for(network) is engine.plan_for(network)

    def test_plan_cache_invalidated_by_xfdd_swap(self):
        """In-place mutation of the network's program never leaves a
        stale plan behind — the cache is keyed on the xFDD root."""
        snap_sharded, _ = sharded_monitor()
        snap_global, _ = compiled(app=dns_tunnel_detect())
        network = snap_sharded.build_network()
        engine = ShardedEngine()
        plan_before = engine.plan_for(network)
        assert plan_before.parallelism == NUM_PORTS
        donor = snap_global.build_network()
        # Graft the global-state program onto the same network object —
        # the shape of a hand-rolled hot swap that reuses the instance.
        network.index = donor.index
        network.switches = donor.switches
        network.placement = donor.placement
        network.mapping = donor.mapping
        plan_after = engine.plan_for(network)
        assert plan_after is not plan_before
        assert plan_after.parallelism == 1  # global state: one lane

    def test_rewired_network_never_replays_against_stale_plan(self):
        _, program = sharded_monitor()
        controller = SnapController(
            campus_topology(), program, options=CompilerOptions(engine="sharded")
        )
        controller.submit()
        engine = ShardedEngine()
        plan_cold = engine.plan_for(controller.network())
        controller.fail_link("C1", "C5")
        rewired = controller.network()
        plan_hot = engine.plan_for(rewired)
        # Same xFDD, same ports: the partition is identical, but it was
        # computed for (and cached on) the rewired object.
        assert [s.ports for s in plan_hot.shards] == [
            s.ports for s in plan_cold.shards
        ]
        assert engine.plan_for(rewired) is plan_hot
        trace = workloads.background_traffic(SUBNETS, count=40, seed=2)
        stats = replay(trace, rewired, engine=engine)
        assert stats.sent == 40

    def test_rewire_reuses_cached_plan(self):
        """A TE rewire keeps the program token and the xFDD, so the
        rewired network's first run reuses the plan instead of walking
        the footprints again."""
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        plan = plan_for(network)
        rewired = network.rewire(network.topology, network.routing)
        assert plan_for(rewired) is plan

    def test_adopted_network_plan_tracks_new_program(self):
        _, monitor_program = sharded_monitor()
        controller = SnapController(
            campus_topology(), monitor_program,
            options=CompilerOptions(engine="sharded"),
        )
        controller.submit()
        engine = ShardedEngine()
        assert engine.plan_for(controller.network()).parallelism == NUM_PORTS
        app = dns_tunnel_detect()
        global_program = Program(
            ast.Seq(app.policy, assign_egress(SUBNETS)),
            assumption=port_assumption(SUBNETS),
            state_defaults=app.state_defaults,
            name=app.name,
        )
        controller.update_policy(global_program)  # rebuild + adopt_state
        assert engine.plan_for(controller.network()).parallelism == 1


def corrupt_shard(network, port):
    """Poison ``count@port`` so its lane's increment raises mid-run."""
    var = f"count@{port}"
    owner = network.placement[var]
    network.switches[owner].store.write(var, (port,), "corrupt")


def one_packet_per_port():
    return [
        (make_packet(srcip=SUBNETS[p].host(1), dstip=SUBNETS[6].host(1)), p)
        for p in PORTS
    ]


def links_after(snapshot, arrivals) -> dict:
    """``link_packets`` of a fresh network that carried exactly these."""
    reference = snapshot.build_network()
    reference.inject_many(arrivals)
    return reference.link_packets


class TestLaneFailureContract:
    """A failing lane merges what completed, then raises a wrapped
    DataPlaneError naming the shard — the network is never silently
    half-updated.  No network keeps a packet log, so what completed
    lanes leave behind is their state (the per-port counters) and their
    link counts."""

    def test_inline_failure_merges_completed_lanes_only(self):
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        corrupt_shard(network, 3)
        with pytest.raises(DataPlaneError, match=r"shard 2 \(ports \[3\]\)"):
            ShardedEngine(max_workers=1).run(network, one_packet_per_port())
        store = network.global_store()
        # Lanes run in shard order inline: ports 1 and 2 completed and
        # were merged; the failing lane stopped everything after it.
        assert store.read("count@1", (1,)) == 1
        assert store.read("count@2", (2,)) == 1
        assert store.read("count@3", (3,)) == "corrupt"
        assert store.read("count@4", (4,)) == 0
        arrivals = one_packet_per_port()
        assert network.link_packets == links_after(snapshot, arrivals[:2])

    def test_thread_pool_failure_merges_completed_lanes(self):
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        corrupt_shard(network, 3)
        with pytest.raises(DataPlaneError, match=r"shard 2 \(ports \[3\]\)"):
            ShardedEngine(max_workers=4).run(network, one_packet_per_port())
        store = network.global_store()
        # Submitted lanes all ran to completion except the failing one.
        for port in (1, 2, 4, 5, 6):
            assert store.read(f"count@{port}", (port,)) == 1
        assert store.read("count@3", (3,)) == "corrupt"
        arrivals = one_packet_per_port()
        assert network.link_packets == links_after(
            snapshot, arrivals[:2] + arrivals[3:]
        )

    def test_process_pool_failure_merges_completed_lanes(self):
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        corrupt_shard(network, 3)
        engine = ProcessPoolEngine(max_workers=2)
        try:
            with pytest.raises(DataPlaneError, match=r"shard 2 \(ports \[3\]\)"):
                engine.run(network, one_packet_per_port())
            store = network.global_store()
            # Completed workers' state deltas were merged back; the
            # failing shard's state is untouched (still corrupt).
            for port in (1, 2, 4, 5, 6):
                assert store.read(f"count@{port}", (port,)) == 1
            assert store.read("count@3", (3,)) == "corrupt"
            arrivals = one_packet_per_port()
            assert network.link_packets == links_after(
                snapshot, arrivals[:2] + arrivals[3:]
            )
        finally:
            engine.close()


class TestOwnerLane:
    """A variable every ingress port updates collapses their shards
    into one owner lane, which runs on the parent store."""

    def test_global_counter_serializes_on_owner_lane(self):
        snapshot, _ = compiled(app=global_heavy_hitter())
        arrivals = one_packet_per_port() * 2
        net_seq = snapshot.build_network()
        seq = SequentialEngine().run(net_seq, arrivals)
        network = snapshot.build_network()
        engine = ShardedEngine(max_workers=2)
        results = engine.run(network, arrivals)
        stats = engine.last_run_stats
        assert stats["lanes"] == 1
        reason = stats["collapse_reasons"]["global-hh"]
        assert reason.startswith("SNAP-W104")
        assert "(INCREMENT)" in reason
        assert [record_view(r) for r in results] == [
            record_view(r) for r in seq
        ]
        assert network.global_store() == net_seq.global_store()
        owner = network.placement["global-hh"]
        assert network.switches[owner].store.variable(
            "global-hh"
        ).snapshot() == {(SUBNETS[p].host(1),): 2 for p in PORTS}


class TestShardStateSlices:
    """``extract_shard_state`` / ``install_shard_state`` /
    ``merge_shard_state``: the state a process or cluster lane ships."""

    def test_extract_install_merge(self):
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        network.inject_many(one_packet_per_port())
        before = network.global_store()

        state = network.extract_shard_state(["count@2", "count@1", "nowhere"])
        assert state == {"count@1": (0, {(1,): 1}), "count@2": (0, {(2,): 1})}

        # Round trip: a worker installs the slice, the parent merges it
        # back, and the store is what it was.
        names = sorted(network.placement)
        worker = snapshot.build_network()
        worker.install_shard_state({"count@1": (0, {(9,): 5})})
        worker.install_shard_state(network.extract_shard_state(names))
        assert worker.global_store() == before  # installs replace tables
        network.merge_shard_state(worker.extract_shard_state(names))
        assert network.global_store() == before

        # Merges are entry-wise; unplaced variables are skipped.
        network.merge_shard_state({
            "count@1": (0, {(9,): 5}), "nowhere": (0, {(1,): 1}),
        })
        assert network.extract_shard_state(["count@1"]) == {
            "count@1": (0, {(1,): 1, (9,): 5})
        }


#: The outcome counters of :class:`ReplayStats` (``folded`` says how a
#: replay ran, not what it delivered).
REPLAY_COUNTERS = (
    "sent", "delivered", "dropped", "packets_delivered", "per_egress",
    "total_hops",
)


def assert_replay_folds_run(snapshot, arrivals, every=0):
    """``replay()`` on the sequential engine is :class:`ReplayStats`
    folded from ``SequentialEngine().run``'s records: the six counters
    (``per_egress`` in the same key order), the final state and the link
    counts; with postcards sampled every ``every``-th packet, the same
    postcards.  Returns the replay's stats."""
    net_run, net_replay = snapshot.build_network(), snapshot.build_network()
    expected = ReplayStats()
    postcards.reset()
    with postcards.sampling(every):
        for records in SequentialEngine().run(net_run, arrivals):
            expected.record(records)
    run_cards = postcards.postcards()
    postcards.reset()
    with postcards.sampling(every):
        got = replay(arrivals, net_replay, engine="sequential")
    assert [getattr(got, name) for name in REPLAY_COUNTERS] == [
        getattr(expected, name) for name in REPLAY_COUNTERS
    ]
    assert list(got.per_egress) == list(expected.per_egress)
    assert net_replay.global_store() == net_run.global_store()
    assert net_replay.link_packets == net_run.link_packets
    assert postcards.postcards() == run_cards
    assert len(run_cards) == (-(-len(arrivals) // every) if every else 0)
    attrs = TRACER.spans("replay")[-1]["attrs"]
    assert (attrs["packets"], attrs["folded"]) == (got.sent, got.folded)
    return got


class TestStreamContract:
    """``Network.stream`` is ``SequentialEngine().run`` one packet at a
    time: the same records, state and link counts, with nothing kept;
    and ``replay()``'s fold is those records' :class:`ReplayStats`."""

    @pytest.mark.parametrize("case", [
        sharded_monitor,
        lambda: compiled(app=stateful_firewall()),
        lambda: compiled(app=dns_tunnel_detect(threshold=3)),
    ], ids=["monitor", "firewall", "dns-tunnel"])
    def test_stream_equals_run_record_for_record(self, case):
        snapshot, _ = case()
        arrivals = list(workloads.background_traffic(SUBNETS, count=200, seed=3))
        net_run, net_stream = snapshot.build_network(), snapshot.build_network()
        ran = SequentialEngine().run(net_run, arrivals)
        stream = net_stream.stream(iter(arrivals))
        # Lazy: no packet has run yet.
        assert net_stream.global_store() == snapshot.build_network().global_store()
        streamed = list(stream)
        assert len(streamed) == len(ran) == len(arrivals)
        assert [record_view(r) for r in streamed] == [record_view(r) for r in ran]
        assert net_stream.global_store() == net_run.global_store()
        assert net_stream.link_packets == net_run.link_packets
        assert assert_replay_folds_run(snapshot, arrivals).folded > 0

    def test_early_stop_leaves_the_link_counts_of_the_packets_that_ran(self):
        snapshot, _ = sharded_monitor()
        arrivals = list(workloads.background_traffic(SUBNETS, count=50, seed=3))
        network = snapshot.build_network()
        stream = network.stream(arrivals)
        for _ in range(20):
            next(stream)
        stream.close()  # what dropping the last reference does
        assert network.link_packets == links_after(snapshot, arrivals[:20])
        store = network.global_store()
        assert sum(
            store.read(f"count@{port}", (port,)) for port in PORTS
        ) == 20


class TestEngineEquivalence:
    """Sharded ≡ sequential ≡ eval_policy on Table 3 traces."""

    def test_sharded_monitor_background(self):
        snapshot, program = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=300, seed=7)
        assert_engines_equivalent(snapshot, program, trace)

    def test_dns_tunnel_attack_and_benign(self):
        snapshot, program = compiled(app=dns_tunnel_detect(threshold=3))
        attack = workloads.dns_tunnel_attack(
            ip("10.0.6.66"), 6, ip("10.0.1.53"), 1, num_responses=4
        )
        benign = workloads.benign_dns_usage(
            ip("10.0.6.77"), 6, ip("10.0.1.53"), 1,
            servers=[ip("10.0.2.10"), ip("10.0.2.11")], server_port=2,
        )
        trace = attack.interleaved_with(benign, seed=3)
        assert_engines_equivalent(snapshot, program, trace)

    def test_syn_flood_with_sessions(self):
        guard = ast.Or(
            ast.Test("dstip", SUBNETS[6]), ast.Test("srcip", SUBNETS[6])
        )
        snapshot, program = compiled(app=syn_flood_detect(threshold=10), guard=guard)
        flood = workloads.syn_flood(ip("10.0.1.66"), 1, ip("10.0.6.1"), count=15)
        sessions = workloads.tcp_session(ip("10.0.2.5"), ip("10.0.6.1"), 2, 6)
        trace = flood.interleaved_with(sessions, seed=9)
        assert_engines_equivalent(snapshot, program, trace)

    def test_stateful_firewall_background(self):
        snapshot, program = compiled(app=stateful_firewall())
        trace = workloads.background_traffic(SUBNETS, count=200, seed=11)
        assert_engines_equivalent(snapshot, program, trace)

    def test_thread_pool_lanes_match(self):
        """Explicit multi-worker pool: lanes on real threads, same answer."""
        snapshot, program = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=300, seed=5)
        assert_engines_equivalent(
            snapshot, program, trace, sharded=ShardedEngine(max_workers=4)
        )

    def test_sharded_replay_stats_match_sequential(self):
        snapshot, _ = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=200, seed=3)
        stats_seq = replay(trace, snapshot.build_network(), engine="sequential")
        stats_shard = replay(trace, snapshot.build_network(), engine="sharded")
        assert stats_seq.sent == stats_shard.sent
        assert stats_seq.delivered == stats_shard.delivered
        assert stats_seq.dropped == stats_shard.dropped
        assert stats_seq.per_egress == stats_shard.per_egress
        assert stats_seq.total_hops == stats_shard.total_hops


    @pytest.mark.parametrize(
        "engine", ["sharded", "process", "vector", "vector-jit", "cluster"]
    )
    def test_runs_after_a_state_hand_over_match_sequential(self, engine):
        """``update_policy`` moves the tables to a rebuilt network: what
        an engine then reads and leaves behind is what the walker does."""
        _, program = sharded_monitor()
        count = ast.StateIncr("count", ast.Field("inport"))
        twice = ast.Seq(ast.Seq(count, count), assign_egress(SUBNETS))
        _, edited = compiled(
            policy=shard_by_inport(twice, "count", PORTS),
            defaults=program.state_defaults, name="monitor-twice",
        )
        trace = workloads.background_traffic(SUBNETS, count=120, seed=13)
        outcomes = []
        for name in ("sequential", engine):
            controller = SnapController(
                campus_topology(), program, options=CompilerOptions(engine=name)
            )
            try:
                controller.submit()
                before = replay(trace, controller.network())
                controller.update_policy(edited)
                after = replay(trace, controller.network())
                outcomes.append((
                    before.per_egress, before.total_hops,
                    after.per_egress, after.total_hops,
                    controller.network().global_store(),
                ))
            finally:
                controller.close()
        assert outcomes[0] == outcomes[1]
        sent = sum(1 for _, port in trace if port == 1)
        assert outcomes[1][-1].read("count@1", (1,)) == 3 * sent > 0


class TestEngineSelection:
    def test_get_engine_resolution(self):
        assert isinstance(get_engine(None), SequentialEngine)
        assert isinstance(get_engine("sequential"), SequentialEngine)
        assert isinstance(get_engine("sharded"), ShardedEngine)
        custom = ShardedEngine(max_workers=2)
        assert get_engine(custom) is custom
        with pytest.raises(SnapError):
            get_engine("warp-drive")

    def test_options_reject_unknown_engine(self):
        with pytest.raises(ValueError):
            CompilerOptions(engine="warp-drive")

    def test_controller_threads_engine_to_live_network(self):
        snapshot_ignored, program = sharded_monitor()
        controller = SnapController(
            campus_topology(), program, options=CompilerOptions(engine="sharded")
        )
        controller.submit()
        network = controller.network()
        assert network.default_engine == "sharded"
        trace = workloads.background_traffic(SUBNETS, count=50, seed=1)
        stats = replay(trace, network)  # runs on the sharded engine
        assert stats.sent == 50

    def test_engine_survives_hot_swap(self):
        _, program = sharded_monitor()
        controller = SnapController(
            campus_topology(), program, options=CompilerOptions(engine="sharded")
        )
        controller.submit()
        assert controller.network().default_engine == "sharded"
        controller.fail_link("C1", "C5")
        assert controller.network().default_engine == "sharded"  # rewire path
        controller.update_policy(program)
        assert controller.network().default_engine == "sharded"  # rebuild path

    def test_default_engine_is_sequential(self):
        snapshot, _ = sharded_monitor()
        assert snapshot.build_network().default_engine == "sequential"
        assert CompilerOptions().engine == "sequential"
