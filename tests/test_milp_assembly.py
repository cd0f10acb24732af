"""The columnar builder against the row-by-row builder, the oracle.

``tests/reference_milp.py`` is the previous ``repro.milp`` builder: Table 2
verbatim, for ST and for TE.  **ST**, cold and after link failures:
the objective, canonical CSR, row bounds, variable bounds and integrality
must be array-equal — same column order, same row order — because among
equally cheap optima HiGHS's answer depends on the order it is handed.
**TE** is the ST program with its ``P`` columns pinned, so its arrays
must equal the reference ST model's with ``place_vars`` pinned the same
way (:func:`pinned_st`); and its optimum must equal the reference's own
constant-``P`` TE program's to 1e-9, cold and after link failures, with a
routing that is a unit flow per OBS flow, inside every capacity, off
every failed link.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import packet_state_mapping
from repro.apps.routing import assign_egress, default_subnets, port_assumption
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.lang import ast
from repro.lang.errors import PlacementError
from repro.milp.placement import PlacementInputs, PlacementModel
from repro.milp.te import build_te_model
from repro.topology.campus import campus_topology
from repro.topology.igen import igen_topology
from repro.topology.traffic import gravity_traffic_matrix
from repro.xfdd.build import build_xfdd

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from reference_milp import (  # noqa: E402
    ReferenceInputs, ReferenceModel, assert_te_equivalent,
)
from workloads import composed_program, dns_tunnel_program  # noqa: E402
from test_te_program import binding_campus  # noqa: E402

#: HiGHS's default ``mip_rel_gap``: how close to optimal an ST solve is proven.
MIP_REL_GAP = 1e-4

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

#: Fixed placements TE is feasible on, beside the ST optimum: variables
#: that share a waypoint switch and owe an ordering to one on another
#: (orphan -> susp-client -> blacklist).  ``some_placement`` spreads the
#: variables over switches no simple path visits in order; there the two
#: programs must agree that nothing is feasible.
FEASIBLE_SPREADS = [
    {"orphan": "C5", "susp-client": "C5", "blacklist": "D4"},  # campus
    {"orphan": "C6", "susp-client": "C5", "blacklist": "C5"},
    {"orphan": "r12", "susp-client": "r12", "blacklist": "r2"},  # igen14
]


def problem_inputs(topology, program):
    policy = program.full_policy()
    dependencies = analyze_dependencies(policy)
    xfdd = build_xfdd(policy, state_rank=dependencies.state_rank)
    ports = sorted(topology.ports)
    mapping = packet_state_mapping(xfdd, ports, ports)
    demands = gravity_traffic_matrix(ports, total_demand=1000.0, seed=0)
    return topology, demands, mapping, dependencies


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return problem_inputs(*CASES[request.param]())


@pytest.fixture(scope="module")
def te_placements(case):
    """``some_placement``, the case's feasible spreads, the ST optimum."""
    placements = [some_placement(case)]
    placements += [
        spread for spread in FEASIBLE_SPREADS
        if set(spread) == set(placements[0])
        and set(spread.values()) <= set(case[0].switches())
    ]
    try:
        placements.append(PlacementModel(PlacementInputs(*case)).solve().placement)
    except PlacementError:
        pass  # campus-tied: no switch is on a simple path of every flow
    return placements


def scipy_csr(matrix) -> csr_matrix:
    """A model's ``CSR`` record as SciPy's ``csr_matrix``."""
    return csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


def assert_same_problem(model: PlacementModel, reference: ReferenceModel):
    new, ref = model.model, reference.model.assemble()
    matrix = scipy_csr(new.matrix)
    assert matrix.shape == ref["A"].shape
    assert matrix.has_canonical_format
    assert (matrix != ref["A"]).nnz == 0
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


def pinned_st(case, placement, **input_options) -> ReferenceModel:
    """The reference ST program with every ``P[s, n]`` pinned to
    ``placement`` and no column integer: what a TE model hands HiGHS."""
    reference = ReferenceModel(ReferenceInputs(*case, **input_options))
    for (s, n), var in reference.place_vars.items():
        var.lower = var.upper = float(placement[s] == n)
        var.integer = False
    return reference


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

    def test_te(self, case, te_placements):
        feasible = []
        for placement in te_placements:
            model, reference = both(case, placement)
            assert_same_problem(model, pinned_st(case, placement))
            feasible.append(assert_te_equivalent(model, reference) is not None)
        assert any(feasible) or len(te_placements) == 1

    def test_st_with_state_capacity_and_stateful_switches(self, case):
        switches = case[0].switches()
        assert_same_problem(*both(case, state_capacity=2))
        assert_same_problem(*both(
            case, stateful_switches=switches[1::2],
            state_capacity={switches[1]: 1, switches[0]: 4},
        ))

    def test_te_with_stateful_switches(self, case, te_placements):
        # A variable placed outside the stateful set has no visit row and
        # no injection, as in the reference (so a flow that needs it is
        # infeasible in both); inside a set given in another order, the
        # waypoint ranks are not the node order.
        switches = case[0].switches()
        for placement in te_placements:
            assert_te_equivalent(*both(case, placement, stateful_switches=switches[::2]))
            assert_te_equivalent(*both(case, placement, stateful_switches=switches[::-1][:-1]))

    @pytest.mark.parametrize("fixed", [False, True], ids=["st", "te"])
    def test_patch_sequence(self, case, te_placements, fixed):
        topology = case[0]
        placement = te_placements[-1] if fixed else None
        model, reference = both(case, placement)
        # TE: the arrays against the pinned ST reference, the optimum
        # against the reference's constant-P program.
        arrays = pinned_st(case, placement) if fixed else reference
        links = sorted((a, b) for a, b, _ in topology.links())
        first, second = links[0], links[len(links) // 2]
        patched = [model, reference] + ([arrays] if fixed else [])
        for failed in [[first], [first, second]]:
            for program in patched:
                program.fail_link(*failed[-1])
            if fixed:
                assert_te_equivalent(model, reference, failed)
            assert_same_problem(model, arrays)

    def test_variable_names_are_derived_on_demand(self, case):
        model, reference = both(case)
        probes = np.linspace(0, model.model.num_vars - 1, 40).astype(int)
        for index in probes.tolist():
            assert model.model.var_name(index) == reference.model._vars[index].name


class TestFallbackLP:
    """On ``binding_campus`` the shortest walks overload a core link, so
    every TE event that reuses no certificate builds and solves the LP on
    its effective topology."""

    def test_each_fallback_equals_the_base_lp_with_its_links_failed(self):
        controller = SnapController(binding_campus(), dns_tunnel_program(6))
        cold = controller.submit()
        shifted = {flow: demand * 1.05 for flow, demand in controller.demands.items()}
        events = [
            ("fail_link", ("C1", "C5"), {("C1", "C5")}),
            ("restore_link", ("C1", "C5"), set()),
            ("fail_link", ("C3", "C4"), {("C3", "C4")}),
            ("set_demands", (shifted,), {("C3", "C4")}),
        ]
        for event, args, failed in events:
            snapshot = getattr(controller, event)(*args)
            inputs = (
                binding_campus(), dict(controller.demands),
                cold.mapping, cold.dependencies,
            )
            base = build_te_model(*inputs, dict(cold.placement))
            reference = ReferenceModel(ReferenceInputs(*inputs), dict(cold.placement))
            for link in failed:
                base.fail_link(*link)
                reference.fail_link(*link)
            expected = base.solve()
            if snapshot.model_stats["solve_reused"]:
                # A certificate (here the cold ST solve's) is optimal to
                # the MIP gap.
                assert snapshot.objective == pytest.approx(
                    expected.objective, rel=MIP_REL_GAP
                )
                continue
            # The controller's LP, built on the effective topology.
            fallback = build_te_model(
                snapshot.topology, *inputs[1:], dict(cold.placement)
            )
            solved = assert_te_equivalent(fallback, reference, failed)
            assert snapshot.objective == solved.objective
            assert snapshot.objective == pytest.approx(expected.objective, rel=1e-9)

    def test_te_snapshot_records_the_size_of_its_program(self):
        controller = SnapController(binding_campus(), dns_tunnel_program(6))
        cold = controller.submit()
        snapshot = controller.fail_link("C1", "C5")
        stats = snapshot.model_stats
        assert stats["te_route"] == "binding capacity"
        model = build_te_model(
            snapshot.topology, dict(controller.demands), cold.mapping,
            cold.dependencies, dict(cold.placement),
        ).model
        assert (stats["variables"], stats["constraints"]) == (
            model.num_vars, model.num_constraints,
        )


HASH_SEED_PROBE = """
import hashlib, json, sys
sys.path.insert(0, {tests!r})
from test_milp_assembly import CASES, PlacementInputs, PlacementModel, problem_inputs
model = PlacementModel(PlacementInputs(*problem_inputs(*CASES["igen14-dns"]())))
store, digest = model.model, hashlib.sha256()
for array in (store.cost, store.matrix.indptr, store.matrix.indices,
              store.matrix.data, store.lo, store.hi):
    digest.update(array.tobytes())
print(json.dumps([digest.hexdigest(), model.solve().placement], sort_keys=True))
"""


def test_st_program_and_placement_do_not_depend_on_the_hash_seed():
    """Set order must not reach the solver: the ST arrays and the solved
    placement are the same under every ``PYTHONHASHSEED``."""
    probe = HASH_SEED_PROBE.format(tests=str(Path(__file__).parent))
    answers = [
        subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "2")
    ]
    assert answers[0] == answers[1]
    assert json.loads(answers[0])[1]
