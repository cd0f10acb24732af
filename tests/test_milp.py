"""Tests for the MILP layer: modeling, placement, TE, decomposition."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import packet_state_mapping
from repro.apps.routing import assign_egress, default_subnets, port_assumption
from repro.lang import ast
from repro.lang.errors import PlacementError
from repro.milp.modeling import Model
from repro.milp.placement import PlacementInputs, PlacementModel, build_placement_model
from repro.milp.results import decompose_flow, extract_paths, validate_solution
from repro.milp.te import build_te_model
from repro.topology.campus import campus_topology
from repro.topology.graph import Topology
from repro.topology.traffic import uniform_traffic_matrix
from repro.xfdd.build import build_xfdd


class TestModel:
    def test_simple_lp(self):
        model = Model("lp")
        x = model.add_var("x", 0, 10)
        y = model.add_var("y", 0, 10)
        model.add_ge([(x, 1.0), (y, 1.0)], 5.0)
        model.minimize([(x, 2.0), (y, 3.0)])
        solution = model.solve()
        assert solution[x] == pytest.approx(5.0)
        assert solution[y] == pytest.approx(0.0)
        assert solution.objective == pytest.approx(10.0)

    def test_binary_variable(self):
        model = Model("ip")
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_eq([(x, 1.0), (y, 1.0)], 1.0)
        model.minimize([(x, 3.0), (y, 1.0)])
        solution = model.solve()
        assert solution[x] == pytest.approx(0.0)
        assert solution[y] == pytest.approx(1.0)

    def test_infeasible_raises(self):
        model = Model("bad")
        x = model.add_var("x", 0, 1)
        model.add_ge([(x, 1.0)], 5.0)
        model.minimize([(x, 1.0)])
        with pytest.raises(PlacementError):
            model.solve()

    def test_equality_constraint(self):
        model = Model("eq")
        x = model.add_var("x", 0, 10)
        model.add_eq([(x, 2.0)], 6.0)
        model.minimize([(x, 1.0)])
        assert model.solve()[x] == pytest.approx(3.0)


class TestModelStore:
    """The block API and the standing-model patches of the columnar store."""

    def test_blocks_and_scalars_share_one_store(self):
        model = Model("blocks")
        first = model.add_vars(3, 0.0, [1.0, 2.0, 3.0], name=lambda k: f"v[{k}]")
        extra = model.add_var("extra", 0.0, 10.0)
        assert (first, extra, model.num_vars) == (0, 3, 4)
        # x0 + x1 >= 1; x1 + x2 >= 2 as one block, then one scalar row.
        assert model.add_rows(2, [0, 0, 1, 1], [0, 1, 1, 2], 1.0, [1.0, 2.0], np.inf) == 0
        assert model.add_ge([(extra, 1.0), (first, 1.0)], 4.0) == 2
        model.cost[:] = [1.0, 1.0, 2.0, 5.0]
        solution = model.solve()
        assert solution.value_array() == pytest.approx([1.0, 2.0, 0.0, 3.0])
        assert solution.objective == pytest.approx(1.0 + 2.0 + 5.0 * 3.0)
        assert [model.var_name(i) for i in range(4)] == ["v[0]", "v[1]", "v[2]", "extra"]
        assert model.add_var() == 4 and model.var_name(4) == "x4"

    def test_patches_are_in_place_and_nothing_is_reassembled(self):
        model = Model("standing")
        x = model.add_var("x", 0.0, 10.0)
        row = model.add_ge([(x, 2.0)], 6.0)
        model.minimize([(x, 1.0)])
        assert model.solve()[x] == pytest.approx(3.0)
        matrix = model.matrix
        model.lo[row] = 8.0
        matrix.data[0] = 4.0
        model.set_var_bounds(x, 2.5, 10.0)
        assert model.var_bounds(x) == (2.5, 10.0)
        assert model.solve()[x] == pytest.approx(2.5)
        assert model.matrix is matrix
        # Growing an assembled model keeps the patched coefficients.
        y = model.add_var("y", 0.0, 10.0)
        model.add_eq([(x, 1.0), (y, -1.0)], 0.0)
        model.cost[y] = 1.0
        solution = model.solve()
        assert (solution[x], solution[y]) == pytest.approx((2.5, 2.5))
        grown = model.matrix
        assert csr_matrix(
            (grown.data, grown.indices, grown.indptr), shape=grown.shape
        ).toarray().tolist() == [[4.0, 0.0], [1.0, -1.0]]

    def test_an_entry_outside_its_block_is_an_error(self):
        model = Model("bad")
        x = model.add_var("x", 0.0, 10.0)
        for rows, cols in (([0], [x + 1]), ([1], [x]), ([0], [-1])):
            with pytest.raises(ValueError, match="outside the 1 x 1 block"):
                model.add_rows(1, rows, cols, 1.0, 0.0, 1.0)
        assert model.num_constraints == model.matrix.nnz == 0

    def test_duplicate_entries_are_summed(self):
        model = Model("dups")
        x = model.add_var("x", 0.0, 10.0)
        model.add_ge([(x, 1.0), (x, 1.0)], 6.0)
        model.minimize([(x, 1.0)])
        assert model.matrix.nnz == 1
        assert model.solve()[x] == pytest.approx(3.0)


def line_topology(num=3, capacity=100.0):
    """port1 - s0 - s1 - ... - s(n-1) - port2."""
    topo = Topology("line")
    for i in range(num):
        topo.add_switch(f"s{i}")
    for i in range(num - 1):
        topo.add_link(f"s{i}", f"s{i+1}", capacity)
    topo.attach_port(1, "s0")
    topo.attach_port(2, f"s{num-1}")
    topo.validate()
    return topo


def build_case(policy, topo, ports=(1, 2), demands=None):
    deps = analyze_dependencies(policy)
    xfdd = build_xfdd(policy, state_rank=deps.state_rank)
    mapping = packet_state_mapping(xfdd, list(ports), list(ports))
    demands = demands or uniform_traffic_matrix(ports, 10.0)
    return deps, mapping, demands


class TestPlacement:
    def test_single_state_on_line(self):
        policy = ast.If(
            ast.StateTest("s", ast.Field("srcip"), ast.Value(True)),
            ast.Mod("outport", 2),
            ast.Seq(
                ast.StateMod("s", ast.Field("srcip"), ast.Value(True)),
                ast.Mod("outport", 2),
            ),
        )
        topo = line_topology(3)
        deps, mapping, demands = build_case(policy, topo)
        model = build_placement_model(topo, demands, mapping, deps)
        solution = model.solve()
        assert solution.placement["s"] in ("s0", "s1", "s2")
        routing = extract_paths(solution, topo, mapping, deps)
        validate_solution(routing, topo, mapping, deps)

    def test_ordering_respected(self):
        # read a then write b: a's switch must precede b's on the path.
        policy = ast.Seq(
            ast.If(
                ast.StateTest("a", ast.Value(0), ast.Value(True)),
                ast.StateMod("b", ast.Value(0), ast.Value(True)),
                ast.StateMod("b", ast.Value(0), ast.Value(False)),
            ),
            ast.Mod("outport", 2),
        )
        topo = line_topology(4)
        deps, mapping, demands = build_case(policy, topo)
        assert ("a", "b") in deps.dep
        model = build_placement_model(topo, demands, mapping, deps)
        solution = model.solve()
        routing = extract_paths(solution, topo, mapping, deps)
        validate_solution(routing, topo, mapping, deps)
        # Explicit: position of a's switch <= b's switch on the 1->2 path.
        path = list(routing.path(1, 2))
        assert path.index(solution.placement["a"]) <= path.index(
            solution.placement["b"]
        )

    def test_tied_variables_colocated(self):
        policy = ast.Seq(
            ast.Atomic(
                ast.Seq(
                    ast.StateMod("x", ast.Value(0), ast.Value(1)),
                    ast.StateMod("y", ast.Value(0), ast.Value(2)),
                )
            ),
            ast.Mod("outport", 2),
        )
        topo = line_topology(4)
        deps, mapping, demands = build_case(policy, topo)
        assert frozenset(("x", "y")) in deps.tied
        solution = build_placement_model(topo, demands, mapping, deps).solve()
        assert solution.placement["x"] == solution.placement["y"]

    def test_campus_places_on_d4(self):
        """§2.2: the MILP places all DNS-tunnel state on D4."""
        from repro.apps.chimera import dns_tunnel_detect

        subnets = default_subnets(6)
        program = ast.Seq(
            port_assumption(subnets),
            ast.Seq(dns_tunnel_detect().policy, assign_egress(subnets)),
        )
        topo = campus_topology()
        deps, mapping, demands = build_case(program, topo, ports=range(1, 7))
        solution = build_placement_model(topo, demands, mapping, deps).solve()
        assert solution.placement == {
            "orphan": "D4",
            "susp-client": "D4",
            "blacklist": "D4",
        }

    def test_capacity_constraint_respected(self):
        policy = ast.Mod("outport", 2)
        topo = line_topology(3, capacity=5.0)
        deps, mapping, _ = build_case(policy, topo)
        demands = uniform_traffic_matrix((1, 2), 10.0)  # exceeds capacity
        model = build_placement_model(topo, demands, mapping, deps)
        with pytest.raises(PlacementError):
            model.solve()

    def test_stateful_switch_restriction(self):
        policy = ast.Seq(
            ast.StateMod("s", ast.Value(0), ast.Value(1)),
            ast.Mod("outport", 2),
        )
        topo = line_topology(3)
        deps, mapping, demands = build_case(policy, topo)
        inputs = PlacementInputs(
            topo, demands, mapping, deps, stateful_switches=("s1",)
        )
        solution = PlacementModel(inputs).solve()
        assert solution.placement["s"] == "s1"


class TestTE:
    def _compiled_case(self):
        policy = ast.Seq(
            ast.StateMod("s", ast.Value(0), ast.Value(1)),
            ast.Mod("outport", 2),
        )
        topo = line_topology(3)
        deps, mapping, demands = build_case(policy, topo)
        st = build_placement_model(topo, demands, mapping, deps).solve()
        return policy, topo, deps, mapping, demands, st

    def test_te_respects_fixed_placement(self):
        _, topo, deps, mapping, demands, st = self._compiled_case()
        te = build_te_model(topo, demands, mapping, deps, st.placement).solve()
        assert te.placement == st.placement
        routing = extract_paths(te, topo, mapping, deps)
        validate_solution(routing, topo, mapping, deps)

    def test_te_is_pure_lp(self):
        _, topo, deps, mapping, demands, st = self._compiled_case()
        model = build_te_model(topo, demands, mapping, deps, st.placement)
        assert model.model.num_integer_vars == 0

    def test_te_missing_placement_rejected(self):
        _, topo, deps, mapping, demands, st = self._compiled_case()
        with pytest.raises(PlacementError):
            build_te_model(topo, demands, mapping, deps, {})

    def test_a_stateless_programs_te_model_is_named_snap_te(self):
        # A stateless program's placement is {}: still a TE model, so its
        # solver errors name the TE program.
        topo = line_topology(3)
        deps, mapping, _ = build_case(ast.Mod("outport", 2), topo)
        model = build_te_model(topo, {(1, 2): 0.0}, mapping, deps, {})
        assert model.model.name == "snap-te"
        with pytest.raises(PlacementError, match="^snap-te:"):
            model.solve()

    def test_te_reroutes_around_failure(self):
        # Square: two paths between ports; failing one must shift traffic.
        topo = Topology("square")
        for name in ("a", "b", "c", "d"):
            topo.add_switch(name)
        for x, y in (("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")):
            topo.add_link(x, y, 100.0)
        topo.attach_port(1, "a")
        topo.attach_port(2, "d")
        policy = ast.Mod("outport", 2)
        deps, mapping, demands = build_case(policy, topo)
        st = build_placement_model(topo, demands, mapping, deps).solve()
        degraded = topo.without_link("a", "b")
        te = build_te_model(degraded, demands, mapping, deps, st.placement).solve()
        routing = extract_paths(te, degraded, mapping, deps)
        assert routing.path(1, 2) == ("a", "c", "d")


class TestDecomposition:
    def test_single_path(self):
        fractions = {("u", "a"): 1.0, ("a", "v"): 1.0}
        paths = decompose_flow(fractions, "u", "v")
        assert paths == [(("u", "a", "v"), 1.0)]

    def test_split_paths(self):
        fractions = {
            ("u", "a"): 0.7,
            ("a", "v"): 0.7,
            ("u", "b"): 0.3,
            ("b", "v"): 0.3,
        }
        paths = decompose_flow(fractions, "u", "v")
        assert paths[0] == (("u", "a", "v"), pytest.approx(0.7))
        assert paths[1] == (("u", "b", "v"), pytest.approx(0.3))

    def test_empty(self):
        assert decompose_flow({}, "u", "v") == []


class TestKnownLimits:
    def test_globally_needed_state_unplaceable_with_stub_pairs(self):
        """A real property of the Table 2 formulation: when two flows
        connect stub switches hanging off different cores, their only
        simple paths share no switch, so a state variable needed by *both*
        has no feasible single-copy placement (the paper's answer is
        sharding, §7.3 / Appendix C)."""
        from repro.analysis.dependency import DependencyInfo
        from repro.analysis.packet_state import PacketStateMapping
        import networkx as nx

        topo = Topology("stub-pairs")
        for name in ("h1", "h2", "a", "b", "c", "d"):
            topo.add_switch(name)
        # Two hubs h1, h2 joined; stubs a, b on h1; stubs c, d on h2.
        topo.add_link("h1", "h2", 100.0)
        topo.add_link("a", "h1", 100.0)
        topo.add_link("b", "h1", 100.0)
        topo.add_link("c", "h2", 100.0)
        topo.add_link("d", "h2", 100.0)
        topo.attach_port(1, "a")
        topo.attach_port(2, "b")
        topo.attach_port(3, "c")
        topo.attach_port(4, "d")
        topo.validate()
        graph = nx.DiGraph()
        graph.add_node("s")
        deps = DependencyInfo(graph)
        # Flow (1,2) only passes a-h1-b; flow (3,4) only c-h2-d: no common
        # switch, so a shared variable s is unplaceable.
        mapping = PacketStateMapping(
            {(1, 2): frozenset(["s"]), (3, 4): frozenset(["s"])}, range(1, 5),
            range(1, 5),
        )
        demands = {(1, 2): 1.0, (3, 4): 1.0}
        model = build_placement_model(topo, demands, mapping, deps)
        with pytest.raises(PlacementError):
            model.solve()
        # Each flow alone is fine.
        single = PacketStateMapping({(1, 2): frozenset(["s"])}, range(1, 5),
                                    range(1, 5))
        solution = build_placement_model(
            topo, {(1, 2): 1.0}, single, deps
        ).solve()
        assert solution.placement["s"] in ("a", "h1", "b")
