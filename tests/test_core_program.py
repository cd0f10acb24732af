"""Unit tests for Program, transforms, and small utilities."""

import time

import pytest

from repro.analysis.transform import namespace_state_vars, rename_state_vars
from repro.core.program import Program
from repro.lang import ast, parse
from repro.lang.errors import SnapError
from repro.lang.packet import make_packet
from repro.lang.semantics import eval_policy
from repro.lang.state import Store
from repro.util.rng import make_rng
from repro.util.timer import PhaseTimer


class TestProgram:
    def test_from_source(self):
        program = Program.from_source("if srcport = 53 then id else drop")
        assert isinstance(program.policy, ast.If)

    def test_full_policy_prepends_assumption(self):
        program = Program.from_source(
            "outport <- 2", assumption="inport = 1"
        )
        full = program.full_policy()
        assert isinstance(full, ast.Seq)
        assert full.left == ast.Test("inport", 1)

    def test_no_assumption(self):
        program = Program.from_source("id")
        assert program.full_policy() == ast.Id()

    def test_state_defaults_inferred_and_overridable(self):
        program = Program.from_source(
            "c[srcip]++; s[srcip] <- True", state_defaults={"s": None}
        )
        assert program.state_defaults["c"] == 0
        assert program.state_defaults["s"] is None

    def test_rejects_non_policy(self):
        with pytest.raises(SnapError):
            Program("not a policy")

    def test_rejects_non_predicate_assumption(self):
        with pytest.raises(SnapError):
            Program(ast.Id(), assumption=ast.Mod("f", 1))

    def test_compose_parallel(self):
        a = Program.from_source("sa[srcip] <- 1", name="a")
        b = Program.from_source("sb[srcip] <- 2", name="b")
        combined = a.compose_parallel(b)
        assert isinstance(combined.policy, ast.Parallel)
        assert "sa" in combined.state_defaults
        assert "sb" in combined.state_defaults
        assert combined.name == "a+b"

    def test_compose_parallel_conjoins_assumptions(self):
        """Regression: the right operand's assumption used to be dropped."""
        a = Program.from_source("sa[srcip] <- 1", assumption="inport = 1")
        b = Program.from_source("sb[srcip] <- 2", assumption="srcport = 53")
        combined = a.compose_parallel(b)
        assert combined.assumption == ast.And(
            ast.Test("inport", 1), ast.Test("srcport", 53)
        )
        # Intersection semantics: only packets satisfying both pass the
        # combined assumption gate in the compiled policy.
        full = combined.full_policy()
        _, passed, _ = eval_policy(full, Store(), make_packet(inport=1, srcport=53))
        assert len(passed) == 1
        for pkt in (
            make_packet(inport=2, srcport=53),
            make_packet(inport=1, srcport=80),
        ):
            _, blocked, _ = eval_policy(full, Store(), pkt)
            assert blocked == frozenset()

    def test_compose_parallel_one_sided_assumption_kept(self):
        a = Program.from_source("sa[srcip] <- 1", assumption="inport = 1")
        b = Program.from_source("sb[srcip] <- 2")
        assert a.compose_parallel(b).assumption == ast.Test("inport", 1)
        assert b.compose_parallel(a).assumption == ast.Test("inport", 1)

    def test_compose_parallel_identical_assumptions_collapse(self):
        a = Program.from_source("sa[srcip] <- 1", assumption="inport = 1")
        b = Program.from_source("sb[srcip] <- 2", assumption="inport = 1")
        assert a.compose_parallel(b).assumption == ast.Test("inport", 1)


class TestRenameStateVars:
    def test_dict_mapping(self):
        policy = parse("s[srcip] <- True; t[srcip] = True")
        renamed = rename_state_vars(policy, {"s": "x"})
        assert ast.state_variables(renamed) == frozenset(("x", "t"))

    def test_namespace(self):
        policy = parse("s[srcip]++; if t[srcip] = 1 then id else drop")
        spaced = namespace_state_vars(policy, "app1.")
        assert ast.state_variables(spaced) == frozenset(("app1.s", "app1.t"))

    def test_semantics_preserved_modulo_renaming(self):
        policy = parse("c[srcip]++")
        renamed = namespace_state_vars(policy, "n.")
        pkt = make_packet(srcip=5)
        store1, _, _ = eval_policy(policy, Store({"c": 0}), pkt)
        store2, _, _ = eval_policy(renamed, Store({"n.c": 0}), pkt)
        assert store1.read("c", (5,)) == store2.read("n.c", (5,)) == 1

    def test_atomic_and_nested_structures(self):
        policy = parse("atomic(a[srcip] <- 1; b[srcip] <- 2) + !c[srcip]")
        renamed = namespace_state_vars(policy, "x.")
        assert ast.state_variables(renamed) == frozenset(("x.a", "x.b", "x.c"))


class TestPhaseTimer:
    def test_records_duration(self):
        timer = PhaseTimer()
        with timer.phase("P1"):
            time.sleep(0.01)
        assert timer.durations["P1"] >= 0.01

    def test_accumulates(self):
        timer = PhaseTimer()
        for _ in range(2):
            with timer.phase("P1"):
                pass
        assert "P1" in timer.durations

    def test_total_subset(self):
        timer = PhaseTimer()
        timer.durations.update({"P1": 1.0, "P2": 2.0, "P3": 4.0})
        assert timer.total(("P1", "P3")) == pytest.approx(5.0)
        assert timer.total() == pytest.approx(7.0)

    def test_exception_still_recorded(self):
        timer = PhaseTimer()
        with pytest.raises(ValueError):
            with timer.phase("P1"):
                raise ValueError("boom")
        assert "P1" in timer.durations


class TestRng:
    def test_seeded_deterministic(self):
        assert make_rng(7).integers(0, 100) == make_rng(7).integers(0, 100)

    def test_passthrough_generator(self):
        rng = make_rng(3)
        assert make_rng(rng) is rng
