"""Tests for state sharding by inport (§7.3, Appendix C)."""

import pytest

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import packet_state_mapping
from repro.analysis.sharding import shard_by_inport, shard_defaults, shard_name
from repro.lang import ast
from repro.lang.errors import CompileError
from repro.lang.packet import make_packet
from repro.lang.semantics import eval_policy
from repro.lang.state import Store
from repro.milp.placement import build_placement_model
from repro.topology.graph import Topology
from repro.topology.traffic import uniform_traffic_matrix
from repro.xfdd.build import build_xfdd


def count_policy():
    """count[inport]++ then forward by a field test."""
    return ast.Seq(
        ast.StateIncr("count", ast.Field("inport")),
        ast.If(ast.Test("fa", 0), ast.Mod("outport", 1), ast.Mod("outport", 2)),
    )


class TestTransformation:
    def test_shards_created_per_port(self):
        sharded = shard_by_inport(count_policy(), "count", [1, 2])
        vars_used = ast.state_variables(sharded)
        assert shard_name("count", 1) in vars_used
        assert shard_name("count", 2) in vars_used
        assert "count" not in vars_used

    def test_semantics_preserved(self):
        original = count_policy()
        sharded = shard_by_inport(original, "count", [1, 2])
        store_orig = Store({"count": 0})
        store_shard = Store(shard_defaults({"count": 0}, "count", [1, 2]))
        for inport in (1, 2, 1, 1):
            pkt = make_packet(inport=inport, fa=0)
            store_orig, out1, _ = eval_policy(original, store_orig, pkt)
            store_shard, out2, _ = eval_policy(sharded, store_shard, pkt)
            assert out1 == out2
        assert store_orig.read("count", (1,)) == store_shard.read(
            shard_name("count", 1), (1,)
        ) == 3
        assert store_orig.read("count", (2,)) == store_shard.read(
            shard_name("count", 2), (2,)
        ) == 1

    def test_unknown_inport_drops(self):
        sharded = shard_by_inport(count_policy(), "count", [1, 2])
        store = Store(shard_defaults({"count": 0}, "count", [1, 2]))
        _, out, _ = eval_policy(sharded, store, make_packet(inport=9, fa=0))
        assert not out

    def test_sharded_policy_survives_pretty_parse(self):
        """The ``s@p`` shard names are part of the surface syntax."""
        from repro.lang.parser import parse
        from repro.lang.pretty import pretty
        from tests.strategies import registry

        sharded = shard_by_inport(count_policy(), "count", [1, 2])
        assert parse(pretty(sharded), fields=registry()) == sharded
        hyphenated = shard_by_inport(
            ast.StateIncr("susp-client", ast.Field("inport")), "susp-client", [3]
        )
        assert parse(pretty(hyphenated)) == hyphenated

    def test_rejects_non_inport_indexed_var(self):
        policy = ast.StateIncr("c", ast.Field("srcip"))
        with pytest.raises(CompileError):
            shard_by_inport(policy, "c", [1, 2])

    def test_rejects_unused_var(self):
        with pytest.raises(CompileError):
            shard_by_inport(ast.Id(), "ghost", [1])

    def test_vector_index_substituted(self):
        policy = ast.StateMod(
            "s", ast.Vector([ast.Field("inport"), ast.Field("srcip")]), ast.Value(1)
        )
        sharded = shard_by_inport(policy, "s", [1])
        store = Store()
        _, _, _ = eval_policy(sharded, store, make_packet(inport=1, srcip=7))


class TestShardPlacement:
    def test_shards_distribute_across_switches(self):
        """The MILP may place each shard near its own port — the whole
        point of sharding (Appendix C)."""
        topo = Topology("line4")
        for i in range(4):
            topo.add_switch(f"s{i}")
        for i in range(3):
            topo.add_link(f"s{i}", f"s{i+1}", 100.0)
        topo.attach_port(1, "s0")
        topo.attach_port(2, "s3")
        topo.validate()

        policy = ast.Seq(
            ast.StateIncr("count", ast.Field("inport")),
            ast.If(
                ast.Test("inport", 1), ast.Mod("outport", 2), ast.Mod("outport", 1)
            ),
        )
        sharded = shard_by_inport(policy, "count", [1, 2])
        deps = analyze_dependencies(sharded)
        xfdd = build_xfdd(sharded, state_rank=deps.state_rank)
        mapping = packet_state_mapping(xfdd, (1, 2), (1, 2))
        demands = uniform_traffic_matrix((1, 2), 10.0)
        solution = build_placement_model(topo, demands, mapping, deps).solve()
        # Each shard is only needed by one direction of traffic; any
        # placement on that flow's path is feasible — what matters is that
        # the two shards are independent variables the MILP placed.
        assert shard_name("count", 1) in solution.placement
        assert shard_name("count", 2) in solution.placement
