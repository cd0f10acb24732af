"""Tests for the columnar vector execution tier (``engine="vector"``).

Three load-bearing properties:

* both vector tiers (interpreted and generated-kernel) are byte-identical
  to the sequential engine — records, link counters, state stores — on
  vectorizable, fork-heavy, droppy, and invalid-egress programs;
* programs the tier cannot vectorize (PAUSE, STWRITE, state-test
  branches) fall back to the scalar lane — per group when the state
  footprints are disjoint, whole-batch when a fallback row shares state
  with vectorized rows (deferred deltas must not reorder around scalar
  state reads);
* generated kernels are cached by the execution-program token: a TE
  rewire re-``exec``s **zero** kernel sources, a policy rebuild mints
  fresh ones.
"""

import pytest

from repro.apps import assign_egress, default_subnets, port_assumption
from repro.apps.chimera import dns_tunnel_detect
from repro.core.controller import SnapController
from repro.core.options import CompilerOptions
from repro.core.program import Program
from repro.dataplane import vector
from repro.dataplane.engine import (
    SequentialEngine,
    Shard,
    get_engine,
    plan_for,
)
from repro.dataplane.network import Walker
from repro.dataplane.vector import (
    VectorEngine,
    VectorJitEngine,
    VectorLane,
    kernel_cache_stats,
)
from repro.lang import ast, make_packet
from repro.topology.graph import Topology
from repro import workloads
from repro.workloads import replay

from tests.test_engine import (
    PORTS,
    SUBNETS,
    assert_engines_equivalent,
    compiled,
    ip,
    record_view,
    sharded_monitor,
)

ENGINES = [VectorEngine(max_workers=2), VectorJitEngine(max_workers=2)]


def stats_delta(before, key):
    return kernel_cache_stats()[key] - before[key]


# -- equivalence on the Table-3 shapes ----------------------------------------


class TestVectorEquivalence:
    @pytest.mark.parametrize("engine", ENGINES, ids=["vector", "vector-jit"])
    def test_sharded_monitor_background(self, engine):
        snapshot, program = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=300, seed=7)
        assert_engines_equivalent(snapshot, program, trace, sharded=engine)

    @pytest.mark.parametrize("engine", ENGINES, ids=["vector", "vector-jit"])
    def test_multicast_fork_ordering(self, engine):
        """FORK row duplication surfaces records in DFS emission order."""
        policy = ast.If(
            ast.Test("dstport", 99),
            ast.Parallel(ast.Mod("outport", 2), ast.Mod("outport", 5)),
            assign_egress(SUBNETS),
        )
        snapshot, program = compiled(policy=policy, name="multicast")
        trace = [
            (
                make_packet(
                    srcip=SUBNETS[p].host(4), dstip=SUBNETS[6].host(4),
                    srcport=40000, dstport=99 if p % 2 else 53,
                ),
                p,
            )
            for p in PORTS
        ] + list(workloads.background_traffic(SUBNETS, count=120, seed=3))
        assert_engines_equivalent(snapshot, program, trace, sharded=engine)

    @pytest.mark.parametrize("engine", ENGINES, ids=["vector", "vector-jit"])
    def test_drops_and_invalid_egress(self, engine):
        """DROP retirement and emits to unknown ports keep the scalar
        lane's unstripped packets and ``egress=None`` records."""
        policy = ast.If(
            ast.Test("srcport", 7),
            ast.Drop(),
            ast.If(
                ast.Test("dstport", 99),
                ast.Mod("outport", 999),  # no such port -> invalid egress
                assign_egress(SUBNETS),
            ),
        )
        snapshot, program = compiled(policy=policy, name="droppy")
        trace = [
            (
                make_packet(
                    srcip=SUBNETS[p].host(9), dstip=SUBNETS[6].host(9),
                    srcport=7 if p % 2 else 40000, dstport=99,
                ),
                p,
            )
            for p in PORTS
        ] + list(workloads.background_traffic(SUBNETS, count=120, seed=5))
        # Engine-vs-engine only: OBS eval has no port map, so it calls
        # the outport-999 packets delivered (every engine disagrees with
        # it identically — that mismatch predates the vector tier).
        net_seq = snapshot.build_network()
        net_vec = snapshot.build_network()
        seq = SequentialEngine().run(net_seq, list(trace))
        vec = engine.run(net_vec, list(trace))
        assert len(seq) == len(vec)
        for a, b in zip(seq, vec):
            assert record_view(a) == record_view(b)
        assert net_seq.global_store() == net_vec.global_store()
        assert net_seq.link_packets == net_vec.link_packets

    def test_replay_stats_match_sequential(self):
        snapshot, _ = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=200, seed=3)
        stats_seq = replay(trace, snapshot.build_network(), engine="sequential")
        stats_vec = replay(trace, snapshot.build_network(), engine="vector")
        assert stats_seq.sent == stats_vec.sent
        assert stats_seq.delivered == stats_vec.delivered
        assert stats_seq.dropped == stats_vec.dropped
        assert stats_seq.per_egress == stats_vec.per_egress
        assert stats_seq.total_hops == stats_vec.total_hops


# -- the scalar fallback ------------------------------------------------------


def tiny_topology() -> Topology:
    """Two switches, three ports — small enough that a variable shared
    by two ingress ports stays placeable (the campus MILP refuses the
    shape, so the mixed-shard path needs its own topology)."""
    topo = Topology("tiny")
    topo.add_switch("A")
    topo.add_switch("B")
    topo.add_link("A", "B", 1000.0)
    topo.attach_port(1, "A")
    topo.attach_port(2, "A")
    topo.attach_port(3, "B")
    topo.validate()
    return topo


def tiny_trace(count=120, seed=2):
    subnets = default_subnets(3)
    return list(workloads.background_traffic(subnets, count=count, seed=seed))


class TestScalarFallback:
    @pytest.mark.parametrize("engine", ENGINES, ids=["vector", "vector-jit"])
    def test_state_heavy_program_falls_back_whole_batch(self, engine):
        """dns-tunnel branches on state from every entry: nothing
        vectorizes, every lane runs the scalar path — byte-identically."""
        snapshot, program = compiled(app=dns_tunnel_detect(threshold=3))
        attack = workloads.dns_tunnel_attack(
            ip("10.0.6.66"), 6, ip("10.0.1.53"), 1, num_responses=4
        )
        before = kernel_cache_stats()
        assert_engines_equivalent(snapshot, program, attack, sharded=engine)
        assert stats_delta(before, "kernel_calls") == 0  # nothing vectorized
        assert stats_delta(before, "plans") > 0  # ... after actually planning

    def test_mixed_shard_overlapping_state_runs_scalar(self):
        """Port 1 increments ``v`` (vectorizable), port 2 branches on
        ``v`` (scalar fallback); the planner puts both in one shard, and
        the overlap forces the whole batch onto the scalar lane."""
        subnets = default_subnets(3)
        policy = ast.Seq(
            ast.If(
                ast.Test("inport", 1),
                ast.StateIncr("v", ast.Value(0)),
                ast.Id(),
            ),
            ast.Seq(
                ast.If(
                    ast.And(
                        ast.Test("inport", 2),
                        ast.StateTest("v", (ast.Value(0),), ast.Value(3)),
                    ),
                    ast.Drop(),
                    ast.Id(),
                ),
                assign_egress(subnets),
            ),
        )
        program = Program(
            policy, assumption=port_assumption(subnets),
            state_defaults={"v": 0}, name="mixed-tiny",
        )
        snapshot = SnapController(tiny_topology(), program).submit()
        plan = plan_for(snapshot.build_network())
        assert any(
            set(shard.ports) == {1, 2} and shard.variables == {"v"}
            for shard in plan.shards
        )
        # Only ports 1 and 2: the whole run goes through the mixed lane.
        trace = [
            (packet, 1 + (i % 2))
            for i, (packet, _) in enumerate(tiny_trace(count=80))
        ]
        net_seq = snapshot.build_network()
        seq = SequentialEngine().run(net_seq, trace)
        for engine in ENGINES:
            before = kernel_cache_stats()
            net = snapshot.build_network()
            out = engine.run(net, trace)
            assert stats_delta(before, "kernel_calls") == 0  # demoted
            for a, b in zip(seq, out):
                assert record_view(a) == record_view(b)
            assert net.global_store() == net_seq.global_store()
            assert net.link_packets == net_seq.link_packets

    def test_mixed_lane_disjoint_state_vectorizes_the_vector_rows(self):
        """With disjoint footprints a single lane runs its vectorizable
        group columnar and its state-test group scalar — and still
        matches the pure scalar lane row for row."""
        subnets = default_subnets(3)
        policy = ast.Seq(
            ast.If(
                ast.Test("inport", 1),
                ast.StateIncr("v", ast.Value(0)),
                ast.Id(),
            ),
            ast.Seq(
                ast.If(
                    ast.And(
                        ast.Test("inport", 2),
                        ast.StateTest("w", (ast.Value(0),), ast.Value(3)),
                    ),
                    ast.Drop(),
                    ast.Id(),
                ),
                assign_egress(subnets),
            ),
        )
        program = Program(
            policy, assumption=port_assumption(subnets),
            state_defaults={"v": 0, "w": 0}, name="disjoint-tiny",
        )
        snapshot = SnapController(tiny_topology(), program).submit()
        trace = tiny_trace(count=90)
        batch = [
            (i, packet, 1 + (i % 2)) for i, (packet, _) in enumerate(trace)
        ]
        # Merging two proven-disjoint shards into one lane is always
        # sound; it is the only way to get a genuinely mixed batch here.
        shard = Shard((1, 2), frozenset({"v", "w"}))
        net_scalar = snapshot.build_network()
        scalar_results, scalar_links = Walker(
            net_scalar, list(batch)
        ).run()
        for jit in (False, True):
            before = kernel_cache_stats()
            net = snapshot.build_network()
            results, links = VectorLane(
                net, shard, list(batch), jit=jit
            ).run()
            assert stats_delta(before, "kernel_calls") > 0  # port 1 rows
            assert links == scalar_links
            assert sorted(results) == sorted(scalar_results)
            for index in results:
                assert record_view(results[index]) == record_view(
                    scalar_results[index]
                )
            assert net.global_store() == net_scalar.global_store()

    def test_shared_counter_demotes_whole_batch(self):
        """Port 1 increments ``count`` (vectorizable); port 2 also
        increments it but assigns ``log`` from a packet field (STWRITE,
        scalar fallback).  ``count`` is increment-only and never tested,
        yet a lane whose fallback rows share state with its vector rows
        always runs the whole batch scalar — byte-identically."""
        subnets = default_subnets(3)
        policy = ast.Seq(
            ast.If(
                ast.Test("inport", 1),
                ast.StateIncr("count", ast.Value(0)),
                ast.Seq(
                    ast.StateIncr("count", ast.Value(0)),
                    ast.StateMod("log", ast.Value(0), ast.Field("srcport")),
                ),
            ),
            assign_egress(subnets),
        )
        program = Program(
            policy, assumption=port_assumption(subnets),
            state_defaults={"count": 0, "log": 0}, name="shared-tiny",
        )
        snapshot = SnapController(tiny_topology(), program).submit()
        trace = [
            (packet, 1 + (i % 2))
            for i, (packet, _) in enumerate(tiny_trace(count=80))
        ]
        net_seq = snapshot.build_network()
        seq = SequentialEngine().run(net_seq, list(trace))
        for engine in ENGINES:
            before = kernel_cache_stats()
            net = snapshot.build_network()
            out = engine.run(net, list(trace))
            assert stats_delta(before, "kernel_calls") == 0  # demoted
            for a, b in zip(seq, out):
                assert record_view(a) == record_view(b)
            assert net.global_store() == net_seq.global_store()


# -- kernel cache across the session lifecycle --------------------------------


class TestKernelCache:
    def test_rewire_reexecs_nothing_rebuild_recompiles(self):
        """A TE rewire keeps the execution-program token — and with it
        every generated kernel; a policy rebuild mints new ones."""
        from repro.topology.campus import campus_topology

        _, program = sharded_monitor()
        controller = SnapController(
            campus_topology(), program,
            options=CompilerOptions(engine="vector-jit"),
        )
        controller.submit()
        try:
            net_cold = controller.network()
            trace = workloads.background_traffic(SUBNETS, count=80, seed=4)
            assert replay(trace, net_cold).sent == 80
            warm = kernel_cache_stats()
            assert warm["compiles"] > 0 or warm["cache_hits"] > 0

            controller.fail_link("C1", "C5")  # TE rewire
            net_te = controller.network()
            assert net_te._exec_program_key == net_cold._exec_program_key
            before = kernel_cache_stats()
            assert replay(trace, net_te).sent == 80
            assert stats_delta(before, "compiles") == 0  # zero re-exec
            assert stats_delta(before, "cache_hits") > 0  # warm kernels
            assert stats_delta(before, "plans") == 0  # not even re-planned

            # The same placement keeps the compiled programs: a program edit
            # (counters per inport and srcip) rebuilds them.
            controller.update_policy(sharded_monitor(
                ast.Vector([ast.Field("inport"), ast.Field("srcip")])
            )[1])
            net_new = controller.network()
            assert net_new._exec_program_key != net_cold._exec_program_key
            before = kernel_cache_stats()
            assert replay(trace, net_new).sent == 80
            assert stats_delta(before, "compiles") > 0  # fresh kernels
        finally:
            controller.close()

    def test_repeat_replays_reuse_kernels(self):
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        trace = list(workloads.background_traffic(SUBNETS, count=60, seed=9))
        engine = get_engine("vector-jit")
        before = kernel_cache_stats()
        engine.run(network, trace)
        assert stats_delta(before, "compiles") > 0  # a new program token
        before = kernel_cache_stats()
        engine.run(network, trace)
        assert stats_delta(before, "compiles") == 0
        assert stats_delta(before, "plans") == 0
        assert stats_delta(before, "cache_hits") > 0

