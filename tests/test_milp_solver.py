"""The solve path against ``scipy.optimize.milp``, its oracle.

``repro.milp.modeling`` hands a model's arrays to HiGHS's own binding
(``scipy.optimize._highspy``); ``milp`` wraps the same binding and, like
``tests/reference_milp.py``, only tests import it.  **ST** (a MILP,
HiGHS's defaults but feasibility jump off; ``milp`` keeps the defaults):
the same ``x``, array-equal, and the same objective, because among
equally cheap placements HiGHS's answer is what the generated switch
programs are made from.  Each snapbench workload's ST program is solved
at the root node, whose LP vertex replaces the heuristic's incumbent.
**TE** (the LP, solved without presolve): the optimum to 1e-9, cold and
after every patch, with a routing P6 accepts.

``PYTHONPATH=src python tests/test_milp_solver.py`` prints the solve
times of the four snapbench workloads' programs (see :func:`main`).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.controller import SnapController
from repro.lang.errors import PlacementError
from repro.milp import modeling
from repro.milp.modeling import Model
from repro.milp.placement import PlacementInputs, PlacementModel, build_placement_model
from repro.milp.results import extract_paths, validate_solution

from snapbench_programs import WORKLOADS, workload
from test_milp_assembly import CASES, problem_inputs, scipy_csr, some_placement


def reference(model: Model, **options):
    """``milp`` on the arrays the model would hand HiGHS."""
    return milp(
        c=model.cost,
        constraints=LinearConstraint(scipy_csr(model.matrix), model.lo, model.hi),
        bounds=Bounds(model.lb, model.ub),
        integrality=model.integrality,
        options=options,
    )


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return problem_inputs(*CASES[request.param]())


def te_placement(case):
    """The ST optimum, or a spread where ST is infeasible (campus-tied:
    there TE is infeasible under every placement too)."""
    try:
        return PlacementModel(PlacementInputs(*case)).solve().placement
    except PlacementError:
        return some_placement(case)


def test_st_is_milps_answer(case):
    model = PlacementModel(PlacementInputs(*case)).model
    expected = reference(model)
    if expected.x is None:
        with pytest.raises(PlacementError, match=f"status={expected.status}"):
            model.solve()
        return
    solution = model.solve()
    assert np.array_equal(solution.value_array(), expected.x)
    assert solution.objective == expected.fun
    assert (solution.status, solution.message) == (expected.status, expected.message)
    assert solution.mip_gap == expected.mip_gap
    assert solution.nodes == expected.mip_node_count


@pytest.mark.parametrize("name", WORKLOADS)
def test_snapbench_st_is_milps_answer_at_the_root(name):
    """A snapbench program's ST MILP, solved as the controller's fallback
    solves it, on the inputs of its cold start (which certified walks
    place without it): the ``x`` HiGHS's defaults (feasibility jump on)
    return, array-equal, and found at the root node — so turning the
    heuristic off moves no placement and no switch program."""
    w = workload(name)
    controller = SnapController(w.topology, w.program())
    try:
        cold = controller.submit()
    finally:
        controller.close()
    model = build_placement_model(
        w.topology, dict(controller.demands), cold.mapping, cold.dependencies
    ).model
    solution = model.solve()
    expected = reference(model)
    assert np.array_equal(solution.value_array(), expected.x)
    assert solution.objective == expected.fun
    assert solution.mip_gap == expected.mip_gap
    assert solution.nodes == expected.mip_node_count == 1


def test_an_option_highs_does_not_know_is_an_error():
    """HiGHS answers an unknown option (a typo, or a HiGHS too old for
    it) with an error and keeps its default; the solve must not."""
    model = PlacementModel(PlacementInputs(*problem_inputs(*CASES["campus-dns"]()))).model
    with pytest.raises(PlacementError, match=r"rejects mip_heuristic_run_feasibility_jmp=False"):
        modeling.run_highs(model, {"output_flag": False,
                                   "mip_heuristic_run_feasibility_jmp": False})
    with pytest.raises(PlacementError, match=r"rejects presolve='maybe'"):
        modeling.run_highs(model, {"output_flag": False, "presolve": "maybe"})


def test_te_matches_milp_cold_and_after_every_patch(case):
    topology, demands = case[0], case[1]
    te = PlacementModel(PlacementInputs(*case), te_placement(case))
    link = sorted((a, b) for a, b, _ in topology.links())[0]
    shifted = {
        flow: demand * (1.5 if i % 2 else 0.25)
        for i, (flow, demand) in enumerate(sorted(demands.items()))
    }
    for event, failed in [(None, []), ("fail_link", [link]), ("shift", [])]:
        if event == "fail_link":
            te.fail_link(*link)
        elif event == "shift":  # a new traffic matrix is a new program
            te = PlacementModel(
                PlacementInputs(topology, shifted, *case[2:]), te_placement(case)
            )
        expected = reference(te.model)
        if expected.status == 2:
            with pytest.raises(PlacementError, match=r"status=2\): The problem is infeasible"):
                te.model.solve()
            continue
        assert expected.status == 0, expected.message
        solution = te.model.solve()
        assert solution.objective == pytest.approx(expected.fun, rel=1e-9, abs=1e-12)
        assert (solution.status, solution.message) == (expected.status, expected.message)
        assert solution.mip_gap is None
        routed = te.solve()
        assert routed.solver["mip_gap"] is None
        live = topology
        for a, b in failed:
            live = live.without_link(a, b)
        validate_solution(
            extract_paths(routed, live, te.inputs.mapping, te.inputs.dependencies),
            live, te.inputs.mapping, te.inputs.dependencies,
        )


def test_te_disconnected_flow_is_infeasible(case):
    topology = case[0]
    te = PlacementModel(PlacementInputs(*case), te_placement(case))
    # Every link of one port's switch: the flows from that port are cut off.
    cut = topology.port_switch(min(topology.ports))
    for a, b, _ in topology.links():
        if cut in (a, b) and a < b:
            te.fail_link(a, b)
    assert reference(te.model).status == 2
    with pytest.raises(PlacementError, match=r"status=2\): The problem is infeasible"):
        te.solve()


def test_time_limit_reaches_highs():
    """A zero time limit stops both programs before any point is found:
    ``milp`` returns no ``x`` with status 1, the solve path raises."""
    inputs = problem_inputs(*CASES["igen12-3apps"]())
    st = PlacementModel(PlacementInputs(*inputs))
    te = PlacementModel(PlacementInputs(*inputs), te_placement(inputs))
    for model in (st.model, te.model):
        expected = reference(model, time_limit=0.0)
        assert (expected.status, expected.x) == (1, None)
        with pytest.raises(PlacementError, match=r"status=1\): Time limit reached"):
            model.solve(time_limit=0.0)


def test_time_limited_incumbent_is_returned_for_a_milp_only(monkeypatch):
    """HiGHS reporting its time limit after finding a point: the MILP
    returns that point with status 1, the LP raises (``milp``'s rule)."""
    class AtTheLimit(modeling._Highs):
        def getModelStatus(self):
            return modeling.HighsModelStatus.kTimeLimit

    inputs = problem_inputs(*CASES["campus-dns"]())
    st = PlacementModel(PlacementInputs(*inputs)).model
    optimum = st.solve()
    te = PlacementModel(PlacementInputs(*inputs), te_placement(inputs)).model
    monkeypatch.setattr(modeling, "_Highs", AtTheLimit)
    solution = st.solve()
    assert (solution.status, solution.message) == (
        1, "Time limit reached. (HiGHS Status 13: Time limit reached)")
    assert np.array_equal(solution.value_array(), optimum.value_array())
    assert solution.mip_gap == optimum.mip_gap
    with pytest.raises(PlacementError, match=r"status=1\): Time limit reached"):
        te.solve()


def test_lp_is_solved_without_presolve_and_milp_with_defaults(monkeypatch):
    """The TE LP runs without presolve; the ST MILP keeps HiGHS's
    defaults (presolve included) except feasibility jump, off."""
    seen = []
    real_run = modeling.run_highs

    def spy(model, options):
        seen.append((model.num_integer_vars > 0, options))
        return real_run(model, options)

    monkeypatch.setattr(modeling, "run_highs", spy)
    inputs = problem_inputs(*CASES["campus-dns"]())
    st = PlacementModel(PlacementInputs(*inputs)).solve(mip_rel_gap=1e-4)
    PlacementModel(PlacementInputs(*inputs), st.placement).solve(time_limit=60.0)
    assert seen == [
        (True, {"output_flag": False, "mip_rel_gap": 1e-4,
                "mip_heuristic_run_feasibility_jump": False}),
        (False, {"output_flag": False, "time_limit": 60.0, "presolve": "off"}),
    ]


def test_status_table_is_milps():
    """The solve's ``(code, message)`` for each HiGHS model status is what
    SciPy's own table gives ``milp``."""
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

    for status in modeling.HighsModelStatus.__members__.values():
        assert modeling.milp_status(status, "text") == (
            _highs_to_scipy_status_message(status, "text")), status


FOOTPRINT_PROBES = {
    # The controller alone: a compile loads HiGHS's binding and neither
    # scipy.optimize nor scipy.sparse.  A later scipy.optimize reuses it.
    "controller first": """
import sys
import repro, repro.core.controller
from repro import Program, SnapController, campus_topology
from repro.apps import assign_egress, default_subnets, dns_tunnel_detect, port_assumption
from repro.lang import ast
from repro.milp import modeling
subnets = default_subnets(6)
detect = dns_tunnel_detect(subnet="10.0.6.0/24", threshold=3)
program = Program(ast.Seq(detect.policy, assign_egress(subnets)),
                  assumption=port_assumption(subnets),
                  state_defaults=detect.state_defaults)
snapshot = SnapController(campus_topology(), program).submit()
assert snapshot.model_stats["solver"]["status"] == 0, snapshot.model_stats
loaded = [name for name in ("scipy.optimize", "scipy.sparse") if name in sys.modules]
assert not loaded, loaded
import scipy.optimize
assert sys.modules["scipy.optimize._highspy._core"]._Highs is modeling._Highs
""",
    # SciPy's own import first: the loader takes the module it made.
    "scipy.optimize first": """
import scipy.optimize
from repro.milp import modeling
assert modeling._Highs is scipy.optimize._highspy._core._Highs
""",
}
PROBE_SOLVES = """
model = modeling.Model()
x = model.add_var("x", 0.0, 10.0, integer=True)
model.add_ge([(x, 2.0)], 5.0)
model.minimize([(x, 1.0)])
assert model.solve()[x] == 3.0
solved = scipy.optimize.milp(
    c=[1.0], constraints=scipy.optimize.LinearConstraint([[2.0]], 5.0, 10.0),
    bounds=scipy.optimize.Bounds(0.0, 10.0), integrality=[1])
assert solved.status == 0 and solved.x.tolist() == [3.0], solved
"""


@pytest.mark.parametrize("order", FOOTPRINT_PROBES)
def test_the_controller_loads_highs_without_scipy_optimize(order):
    """In a fresh interpreter: compiling with the controller leaves
    ``scipy.optimize`` and ``scipy.sparse`` unloaded (the binding comes
    in on its own), and both import orders share one binding on which
    both ``Model.solve`` and ``milp`` solve."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBES[order] + PROBE_SOLVES],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr


def main() -> None:
    """Print solve times on the four snapbench workloads' TE LP (built
    cold on the ST placement, the workload's link failed, as a TE event
    that reaches the LP solves it) and ST MILP: ``milp``, the binding with
    HiGHS's defaults, and ``Model.solve``; best of three, wall seconds.
    The last column is the work of the two binding solves: nodes (``-``
    for an LP) / simplex iterations."""
    import time

    from repro.milp.te import build_te_model

    def best(solve):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            result = solve()
            times.append(time.perf_counter() - start)
        return min(times), result

    def work(solution):
        return f"{'-' if solution.nodes is None else solution.nodes} / {solution.lp_iterations}"

    print("| program | size | `milp` | binding, defaults | `Model.solve` "
          "| nodes / iterations, defaults → `Model.solve` |")
    print("|---|---|---|---|---|---|")
    for name in WORKLOADS:
        w = workload(name)
        controller = SnapController(w.topology, w.program())
        snapshot = controller.submit()
        controller.close()
        inputs = (w.topology, dict(controller.demands), snapshot.mapping,
                  snapshot.dependencies)
        te = build_te_model(*inputs, dict(snapshot.placement))
        te.fail_link(*w.link)
        st = PlacementModel(PlacementInputs(*inputs))
        for kind, model in (("TE", te.model), ("ST", st.model)):
            (milp_s, expected), (defaults_s, defaults), (solve_s, solution) = (
                best(lambda: reference(model)),
                best(lambda: modeling.run_highs(model, {"output_flag": False})),
                best(model.solve),
            )
            objectives = {expected.fun, defaults.objective, solution.objective}
            assert max(objectives) - min(objectives) <= 1e-9 * max(objectives), objectives
            print(f"| `{name}` {kind} | {model.num_vars} × {model.num_constraints} | "
                  + " | ".join(f"{seconds:.4f} s" for seconds in (milp_s, defaults_s, solve_s))
                  + f" | {work(defaults)} → {work(solution)} |")

if __name__ == "__main__":
    main()
