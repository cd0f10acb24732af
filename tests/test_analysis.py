"""Tests for dependency analysis (§4.1) and packet-state mapping (§4.3)."""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import packet_state_mapping
from repro.apps.routing import assign_egress, default_subnets, port_assumption
from repro.lang import ast, parse
from repro.xfdd.build import build_xfdd


def S(var, idx=0):
    return ast.StateTest(var, ast.Value(idx), ast.Value(True))


def W(var, idx=0):
    return ast.StateMod(var, ast.Value(idx), ast.Value(True))


def dep_edges(policy):
    """The edges ``analyze_dependencies`` derives: Figure 14, from ``src/``."""
    return set(analyze_dependencies(policy).graph.edges)


class TestStDep:
    def test_parallel_no_dependencies(self):
        assert dep_edges(ast.Parallel(S("a"), W("b"))) == set()

    def test_seq_read_then_write(self):
        assert ("a", "b") in dep_edges(ast.Seq(S("a"), W("b")))

    def test_seq_write_then_write_no_dep(self):
        # Only read-then-write creates ordering (§4.1).
        assert dep_edges(ast.Seq(W("a"), W("b"))) == set()

    def test_if_condition_to_both_branches(self):
        deps = dep_edges(ast.If(S("a"), W("b"), W("c")))
        assert ("a", "b") in deps and ("a", "c") in deps

    def test_atomic_all_interdependent(self):
        deps = dep_edges(ast.Atomic(ast.Seq(W("a"), W("b"))))
        assert ("a", "b") in deps and ("b", "a") in deps

    def test_nested(self):
        inner = ast.Seq(S("a"), W("b"))
        deps = dep_edges(ast.Seq(inner, W("c")))
        assert ("a", "b") in deps and ("a", "c") in deps


class TestAnalyzeDependencies:
    def test_chain_ranks(self):
        policy = ast.Seq(ast.Seq(S("a"), W("b")), ast.Seq(S("b"), W("c")))
        info = analyze_dependencies(policy)
        assert info.state_rank["a"] < info.state_rank["b"] < info.state_rank["c"]
        assert ("a", "b") in info.dep and ("b", "c") in info.dep
        assert not info.tied

    def test_atomic_gives_tied_group(self):
        policy = ast.Atomic(ast.Seq(W("a"), W("b")))
        info = analyze_dependencies(policy)
        assert frozenset(("a", "b")) in info.tied
        # Tied variables share an SCC rank.
        assert info.state_rank["a"] == info.state_rank["b"]

    def test_mutual_dependency_tied(self):
        # read a then write b, and read b then write a.
        policy = ast.Parallel(ast.Seq(S("a"), W("b")), ast.Seq(S("b"), W("a")))
        info = analyze_dependencies(policy)
        assert frozenset(("a", "b")) in info.tied

    def test_self_loop_not_tied(self):
        policy = ast.Seq(S("a"), W("a"))
        info = analyze_dependencies(policy)
        assert not info.tied
        assert ("a", "a") not in info.dep

    def test_untouched_vars_absent(self):
        info = analyze_dependencies(ast.Id())
        assert info.order == []

    def test_the_order_does_not_depend_on_the_hash_seed(self):
        """Variables with no dependency between them are ranked by the
        graph's insertion order, which must not be set order: the order is
        the xFDD's state-test order and the installed waypoint order."""
        probe = HASH_SEED_PROBE.format(tests=str(Path(__file__).parent))
        answers = [
            subprocess.run(
                [sys.executable, "-c", probe], check=True, capture_output=True,
                text=True, env={**os.environ, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "2", "5")
        ]
        assert answers[0] == answers[1] == answers[2]
        assert answers[0].count("\n") == 4


HASH_SEED_PROBE = """
import sys
sys.path.insert(0, {tests!r})
from snapbench_programs import WORKLOADS, workload
from repro.analysis.dependency import analyze_dependencies
for name in WORKLOADS:
    info = analyze_dependencies(workload(name).program().full_policy())
    print(name, info.order, sorted(info.state_rank.items()), sorted(info.dep))
"""


class TestPacketStateMapping:
    def _mapping(self, policy, ports=range(1, 4)):
        xfdd = build_xfdd(policy)
        return packet_state_mapping(xfdd, list(ports), list(ports))

    def test_states_follow_assigned_outport(self):
        # Packets tested against s exit at port 2 only.
        policy = ast.If(
            S("s"),
            ast.Mod("outport", 2),
            ast.Mod("outport", 3),
        )
        mapping = self._mapping(policy)
        # All ingresses can reach the state; both egress 2 and 3 paths read s.
        assert "s" in mapping.states_for(1, 2)
        assert "s" in mapping.states_for(1, 3)

    def test_inport_test_restricts_sources(self):
        policy = ast.If(
            ast.Test("inport", 1),
            ast.Seq(W("s"), ast.Mod("outport", 2)),
            ast.Mod("outport", 3),
        )
        mapping = self._mapping(policy)
        assert "s" in mapping.states_for(1, 2)
        assert not mapping.states_for(2, 3)
        assert not mapping.states_for(2, 2)

    def test_stateless_program_has_empty_mapping(self):
        policy = ast.Mod("outport", 2)
        mapping = self._mapping(policy)
        assert not mapping.all_state_vars()

    def test_drop_path_covered_by_emitting_sibling(self):
        # s-true drops, s-false emits to port 2; both paths read s, so the
        # emitting flow (u, 2) already covers the dropped packets (they
        # ride that path to s's switch and die there) — no need to drag
        # every other flow through s.
        policy = ast.If(S("s"), ast.Drop(), ast.Mod("outport", 2))
        mapping = self._mapping(policy)
        assert "s" in mapping.states_for(1, 2)
        assert "s" not in mapping.states_for(1, 3)

    def test_uncovered_drop_path_falls_back_to_all_egresses(self):
        # Every path drops: no emitting flow reaches s, so the fallback
        # attributes s to all flows (any path can carry the packet to s).
        policy = ast.Seq(W("s"), ast.Drop())
        mapping = self._mapping(policy)
        for v in (2, 3):
            assert "s" in mapping.states_for(1, v)

    def test_paper_example_mapping(self):
        """§4.3: with the assumption policy, packets to port 6 need all
        three variables; packets from subnet 6 need orphan and susp-client."""
        from repro.apps.chimera import dns_tunnel_detect

        subnets = default_subnets(6)
        dns = dns_tunnel_detect()
        program = ast.Seq(
            port_assumption(subnets),
            ast.Seq(dns.policy, assign_egress(subnets)),
        )
        xfdd = build_xfdd(program)
        mapping = packet_state_mapping(xfdd, range(1, 7), range(1, 7))
        for u in range(1, 6):
            assert mapping.states_for(u, 6) == frozenset(
                ("orphan", "susp-client", "blacklist")
            )
        for v in range(1, 6):
            assert mapping.states_for(6, v) == frozenset(("orphan", "susp-client"))
        assert not mapping.states_for(2, 3)

    def test_pairs_needing(self):
        policy = ast.If(
            ast.Test("inport", 1),
            ast.Seq(W("s"), ast.Mod("outport", 2)),
            ast.Mod("outport", 3),
        )
        mapping = self._mapping(policy)
        assert (1, 2) in mapping.pairs_needing("s")
