"""The solve path against ``scipy.optimize.milp``, its oracle.

``repro.milp.modeling`` hands a model's arrays to HiGHS's own binding
(``scipy.optimize._highspy``); ``milp`` wraps the same binding and, like
``tests/reference_milp.py``, only tests import it.  **ST** (a MILP,
HiGHS defaults): the same ``x``, array-equal, and the same objective,
because among equally cheap placements HiGHS's answer is what the
generated switch programs are made from.  **TE** (the LP, solved
without presolve): the optimum to 1e-9, cold and after every patch, with
a routing P6 accepts.

``PYTHONPATH=src python tests/test_milp_solver.py`` prints the solve
times of the four snapbench workloads' programs (see :func:`main`).
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.lang.errors import PlacementError
from repro.milp import modeling
from repro.milp.modeling import Model
from repro.milp.placement import PlacementInputs, PlacementModel
from repro.milp.results import extract_paths, validate_solution

from test_milp_assembly import CASES, problem_inputs, some_placement


def reference(model: Model, **options):
    """``milp`` on the arrays the model would hand HiGHS."""
    return milp(
        c=model.cost,
        constraints=LinearConstraint(model.matrix, model.lo, model.hi),
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


def test_te_matches_milp_cold_and_after_every_patch(case):
    topology, demands = case[0], case[1]
    te = PlacementModel(PlacementInputs(*case), te_placement(case))
    link = sorted((a, b) for a, b, _ in topology.links())[0]
    shifted = {
        flow: demand * (1.5 if i % 2 else 0.25)
        for i, (flow, demand) in enumerate(sorted(demands.items()))
    }
    for event, args, failed in [
        (None, (), []), ("fail_link", link, [link]),
        ("restore_link", link, []), ("set_demands", (shifted,), []),
    ]:
        if event is not None:
            getattr(te, event)(*args)
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
        (True, {"output_flag": False, "mip_rel_gap": 1e-4}),
        (False, {"output_flag": False, "time_limit": 60.0, "presolve": "off"}),
    ]


def main() -> None:
    """Print solve times on the four snapbench workloads' TE LP (built
    cold on the ST placement) and ST MILP: ``milp``, the binding with
    HiGHS's defaults, and ``Model.solve``; best of three, wall seconds."""
    import time

    from snapbench_programs import WORKLOADS, workload

    from repro.core.controller import SnapController
    from repro.milp.te import build_te_model

    def best(solve):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            objective = solve()
            times.append(time.perf_counter() - start)
        return min(times), objective

    print("| program | size | `milp` | binding, defaults | `Model.solve` |")
    print("|---|---|---|---|---|")
    for name in WORKLOADS:
        w = workload(name)
        controller = SnapController(w.topology, w.program())
        snapshot = controller.submit()
        controller.close()
        inputs = (w.topology, dict(controller.demands), snapshot.mapping,
                  snapshot.dependencies)
        te = build_te_model(*inputs, dict(snapshot.placement))
        st = PlacementModel(PlacementInputs(*inputs))
        for kind, model in (("TE", te.model), ("ST", st.model)):
            timings = [
                best(lambda: reference(model).fun),
                best(lambda: modeling.run_highs(model, {"output_flag": False}).objective),
                best(lambda: model.solve().objective),
            ]
            objectives = {objective for _, objective in timings}
            assert max(objectives) - min(objectives) <= 1e-9 * max(objectives), objectives
            print(f"| `{name}` {kind} | {model.num_vars} × {model.num_constraints} | "
                  + " | ".join(f"{seconds:.4f} s" for seconds, _ in timings) + " |")


if __name__ == "__main__":
    main()
