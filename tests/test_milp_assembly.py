"""The columnar builder hands HiGHS the row-by-row builder's exact problem.

``tests/reference_milp.py`` is the previous ``repro.milp`` builder, kept
as the oracle.  For ST and TE, cold and after every kind of patch, the
objective, canonical CSR, row bounds, variable bounds and integrality
must be array-equal — same column order, same row order — because among
equally cheap optima HiGHS's answer depends on the order it is handed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import packet_state_mapping
from repro.apps.routing import assign_egress, default_subnets, port_assumption
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.lang import ast
from repro.milp.placement import PlacementInputs, PlacementModel
from repro.topology.campus import campus_topology
from repro.topology.igen import igen_topology
from repro.topology.traffic import gravity_traffic_matrix
from repro.xfdd.build import build_xfdd

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from reference_milp import ReferenceInputs, ReferenceModel  # noqa: E402
from workloads import composed_program, dns_tunnel_program  # noqa: E402



def tied_program() -> Program:
    """Two variables written in one atomic block: tied, so co-located."""
    subnets = default_subnets(6)
    body = ast.Atomic(ast.Seq(
        ast.StateMod("x", ast.Field("srcip"), ast.Value(1)),
        ast.StateMod("y", ast.Field("dstip"), ast.Value(2)),
    ))
    return Program(
        ast.Seq(body, assign_egress(subnets)),
        assumption=port_assumption(subnets),
    )


CASES = {
    "campus-tied": lambda: (campus_topology(), tied_program()),
    "campus-dns": lambda: (campus_topology(), dns_tunnel_program(6)),
    "igen14-dns": lambda: (igen_topology(14, num_ports=12, seed=0), dns_tunnel_program(12)),
    "igen12-3apps": lambda: (igen_topology(12, num_ports=12, seed=0), composed_program(3, 12)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    topology, program = CASES[request.param]()
    policy = program.full_policy()
    dependencies = analyze_dependencies(policy)
    xfdd = build_xfdd(policy, state_rank=dependencies.state_rank)
    ports = sorted(topology.ports)
    mapping = packet_state_mapping(xfdd, ports, ports)
    demands = gravity_traffic_matrix(ports, total_demand=1000.0, seed=0)
    return topology, demands, mapping, dependencies


def assert_same_problem(model: PlacementModel, reference: ReferenceModel):
    new, ref = model.model, reference.model.assemble()
    assert new.matrix.shape == ref["A"].shape
    assert new.matrix.has_canonical_format
    assert (new.matrix != ref["A"]).nnz == 0
    # Same sparsity structure too, explicit zeros included.
    assert np.array_equal(new.matrix.indptr, ref["A"].indptr)
    assert np.array_equal(new.matrix.indices, ref["A"].indices)
    for mine, name in [
        (new.cost, "c"), (new.lo, "lo"), (new.hi, "hi"),
        (new.lb, "lb"), (new.ub, "ub"), (new.integrality, "integrality"),
    ]:
        assert np.array_equal(mine, ref[name]), name


def both(case, placement=None, **input_options):
    topology, demands, mapping, dependencies = case
    args = (topology, demands, mapping, dependencies)
    return (
        PlacementModel(PlacementInputs(*args, **input_options), placement),
        ReferenceModel(ReferenceInputs(*args, **input_options), placement),
    )


def some_placement(case, offset=0):
    """A fixed placement that spreads variables over distinct switches."""
    topology, _, mapping, dependencies = case
    switches = topology.switches()
    names = sorted(set(mapping.all_state_vars()) | set(dependencies.order))
    return {
        s: switches[(offset + 3 * i) % len(switches)] for i, s in enumerate(names)
    }


class TestAssemblyOracle:
    def test_st(self, case):
        assert_same_problem(*both(case))

    def test_te(self, case):
        assert_same_problem(*both(case, some_placement(case)))
        assert_same_problem(*both(case, some_placement(case, offset=5)))

    def test_st_with_state_capacity_and_stateful_switches(self, case):
        switches = case[0].switches()
        assert_same_problem(*both(case, state_capacity=2))
        assert_same_problem(*both(
            case, stateful_switches=switches[1::2],
            state_capacity={switches[1]: 1, switches[0]: 4},
        ))

    def test_te_with_stateful_switches(self, case):
        # Some variables sit outside the stateful set: no visit row, no
        # injection, as in the reference.
        switches = case[0].switches()
        assert_same_problem(*both(
            case, some_placement(case), stateful_switches=switches[::2]
        ))

    @pytest.mark.parametrize("fixed", [False, True], ids=["st", "te"])
    def test_patch_sequence(self, case, fixed):
        topology, demands = case[0], case[1]
        model, reference = both(case, some_placement(case) if fixed else None)
        links = sorted((a, b) for a, b, _ in topology.links())
        first, second = links[0], links[len(links) // 2]
        shifted = {
            flow: demand * (1.5 if i % 2 else 0.25)
            for i, (flow, demand) in enumerate(sorted(demands.items()))
        }
        for name, args in [
            ("fail_link", first), ("restore_link", first),
            ("fail_link", second), ("set_demands", (shifted,)),
        ]:
            getattr(model, name)(*args)
            getattr(reference, name)(*args)
            assert_same_problem(model, reference)

    def test_variable_names_are_derived_on_demand(self, case):
        model, reference = both(case)
        probes = np.linspace(0, model.model.num_vars - 1, 40).astype(int)
        for index in probes.tolist():
            assert model.model.var_name(index) == reference.model._vars[index].name


class TestStandingModelReuse:
    def test_one_build_no_reassembly_and_fresh_equal(self):
        controller = SnapController(campus_topology(), dns_tunnel_program(6))
        cold = controller.submit()
        shifted = {flow: demand * 1.25 for flow, demand in controller.demands.items()}
        events = [
            ("fail_link", ("C1", "C5"), {("C1", "C5")}),
            ("restore_link", ("C1", "C5"), set()),
            ("fail_link", ("C2", "C6"), {("C2", "C6")}),
            ("set_demands", (shifted,), {("C2", "C6")}),
        ]
        layout = None
        for event, args, failed in events:
            snapshot = getattr(controller, event)(*args)
            matrix = controller._te_model.model.matrix
            if layout is None:
                layout = (matrix, matrix.indptr, matrix.indices, matrix.data)
            assert controller.backend.calls["te_model_builds"] == 1
            assert all(
                kept is now for kept, now in
                zip(layout, (matrix, matrix.indptr, matrix.indices, matrix.data))
            )
            fresh = PlacementModel(
                PlacementInputs(
                    campus_topology(), dict(controller.demands),
                    cold.mapping, cold.dependencies,
                ),
                dict(cold.placement),
            )
            for link in failed:
                fresh.fail_link(*link)
            expected = fresh.solve()
            assert snapshot.objective == expected.objective
            routing = controller._te_model.solve().routing
            assert routing == expected.routing
