"""Tests for TE re-routing under link and demand events (§6.2)."""

import pytest

from repro.core.controller import SnapController
from repro.lang.errors import PlacementError
from repro.milp.placement import build_placement_model
from repro.milp.te import build_te_model
from repro.milp.results import extract_paths, validate_solution
from repro.topology.campus import campus_topology

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from workloads import dns_tunnel_program  # noqa: E402
from test_te_program import binding_campus  # noqa: E402


@pytest.fixture(scope="module")
def compiled():
    controller = SnapController(campus_topology(), dns_tunnel_program(6))
    cold = controller.submit()
    return controller, cold


@pytest.fixture(scope="module")
def binding():
    """Where the shortest walks do not fit, so link events solve the LP."""
    controller = SnapController(binding_campus(), dns_tunnel_program(6))
    cold = controller.submit()
    return controller, cold


class TestIncrementalFailure:
    def test_failed_link_avoided(self, compiled):
        controller, cold = compiled
        assert cold.routing.path(1, 6) == ("I1", "C1", "C5", "D4")
        result = controller.reroute(failed_links=[("C1", "C5")])
        path = result.routing.path(1, 6)
        assert ("C1", "C5") not in set(zip(path, path[1:]))
        assert result.placement == cold.placement

    def test_restore_after_failure(self, compiled):
        controller, _ = compiled
        controller.reroute(failed_links=[("C1", "C5")])
        result = controller.reroute(failed_links=[])
        # The optimal path through C1-C5 is available again.
        assert result.routing.path(1, 6) == ("I1", "C1", "C5", "D4")

    def test_sequential_failures(self, compiled):
        controller, _ = compiled
        result = controller.reroute(
            failed_links=[("C1", "C5"), ("C3", "C5")]
        )
        path = result.routing.path(1, 6)
        used = set(zip(path, path[1:]))
        assert ("C1", "C5") not in used and ("C3", "C5") not in used
        # I1 hangs off C1, so the path must still start I1 -> C1.
        assert path[0] == "I1" and path[1] == "C1"
        controller.reroute(failed_links=[])  # restore for other tests

    def test_disconnecting_failures_are_infeasible(self, compiled):
        # C1's only non-edge neighbours are C3 and C5; failing both cuts
        # ports 1 and 3 off from the rest of the network.
        controller, _ = compiled
        with pytest.raises(PlacementError):
            controller.reroute(failed_links=[("C1", "C5"), ("C1", "C3")])
        controller.reroute(failed_links=[])  # restore

    def test_incremental_matches_full_rebuild(self, compiled):
        controller, cold = compiled
        incremental = controller.reroute(failed_links=[("C1", "C5")])
        rebuilt = controller.update_topology(
            campus_topology().without_link("C1", "C5")
        )
        assert incremental.objective == pytest.approx(rebuilt.objective, rel=1e-6)
        controller.update_topology(campus_topology())

    def test_repeated_fail_restore_cycles_are_idempotent(self, binding):
        """Each fail/restore cycle lands on the same answer, and after the
        first failure's LP every cycle reuses a certificate."""
        controller, _ = binding
        controller.fail_link("C1", "C5")
        controller.restore_link("C1", "C5")
        solves_before = controller.backend.calls["te_solves"]
        assert solves_before == 1
        baseline = controller.reroute(failed_links=[])
        failed_objectives, restored_objectives = [], []
        for _ in range(3):
            failed = controller.fail_link("C1", "C5")
            failed_objectives.append(failed.objective)
            assert ("C1", "C5") not in set(
                zip(failed.routing.path(1, 6), failed.routing.path(1, 6)[1:])
            )
            restored = controller.restore_link("C1", "C5")
            restored_objectives.append(restored.objective)
            assert restored.routing.path(1, 6) == baseline.routing.path(1, 6)
        assert all(
            obj == pytest.approx(failed_objectives[0], rel=1e-9)
            for obj in failed_objectives
        )
        assert all(
            obj == pytest.approx(baseline.objective, rel=1e-9)
            for obj in restored_objectives
        )
        # The whole sequence reused the first failure's solve.
        assert controller.backend.calls["te_solves"] == solves_before

    def test_restore_of_a_never_failed_link_is_a_noop(self):
        """Restoring a healthy link leaves the failure set empty and
        answers with the cold solve's certificate: no LP, same routing."""
        controller = SnapController(binding_campus(), dns_tunnel_program(6))
        cold = controller.submit()
        restored = controller.restore_link("C1", "C5")
        assert controller.failed_links == frozenset()
        assert restored.model_stats["solve_reused"]
        assert controller.backend.calls["te_solves"] == 0
        assert restored.objective == cold.objective
        assert restored.routing.paths == cold.routing.paths


class TestIncrementalDemands:
    def test_demand_shift_changes_objective(self, compiled):
        controller, cold = compiled
        base = controller.reroute(failed_links=[])
        shifted = dict(controller.demands)
        for u in range(1, 6):
            shifted[(u, 6)] = shifted[(u, 6)] * 4
        result = controller.reroute(demands=shifted)
        assert result.objective > base.objective
        controller.reroute(demands=dict(cold.demands))  # restore

    def test_a_demand_below_the_floor_is_no_flow(self, compiled):
        """The TE model counts flows as ``PlacementInputs`` does: a demand
        at or below ``DEMAND_FLOOR`` is no flow, whatever its sign."""
        controller, cold = compiled

        def flows(demands):
            return build_te_model(
                campus_topology(), demands, cold.mapping, cold.dependencies,
                dict(cold.placement),
            ).inputs.flows

        first = sorted(controller.demands)[0]
        every = flows(dict(controller.demands))
        assert flows({**controller.demands, first: 1e-12}) == every[1:]
        assert flows({**controller.demands, first: -1.0}) == every[1:]
        assert flows({**controller.demands, (1, 1): 1e-12}) == every


class TestModelPatchingDirect:
    def _model(self, compiled):
        controller, cold = compiled
        return build_te_model(
            campus_topology(), dict(controller.demands), cold.mapping,
            cold.dependencies, dict(cold.placement),
        )

    def test_fail_link_pins_the_links_columns(self, compiled):
        """``fail_link`` zeroes the link's routing columns, both ways, and
        the patched optimum is the one built on the degraded graph."""
        controller, cold = compiled
        model = self._model(compiled)
        before = model.solve().objective
        model.fail_link("C1", "C5")
        for link in (("C1", "C5"), ("C5", "C1")):
            column = model.route_var(model.inputs.flows[0], link)
            assert model.model.var_bounds(column) == (0.0, 0.0)
        degraded = model.solve().objective
        assert degraded >= before - 1e-9
        rebuilt = build_te_model(
            campus_topology().without_link("C1", "C5"), dict(controller.demands),
            cold.mapping, cold.dependencies, dict(cold.placement),
        ).solve()
        assert degraded == pytest.approx(rebuilt.objective, rel=1e-9)

    def test_patched_solution_validates(self, compiled):
        _, cold = compiled
        model = self._model(compiled)
        model.fail_link("C1", "C5")
        solution = model.solve()
        degraded = campus_topology().without_link("C1", "C5")
        routing = extract_paths(solution, degraded, cold.mapping, cold.dependencies)
        validate_solution(routing, degraded, cold.mapping, cold.dependencies)

    def test_failing_an_unknown_link_is_a_noop(self, compiled):
        """``fail_link`` touches only the columns of a link it knows: a
        bound a caller set elsewhere survives."""
        model = self._model(compiled)
        target = model.route_var(model.inputs.flows[0], ("C1", "C5"))
        model.model.set_var_bounds(target, 0.0, 0.5)
        lb, ub = model.model.lb.copy(), model.model.ub.copy()
        model.fail_link("C1", "nowhere")
        assert model.model.var_bounds(target) == (0.0, 0.5)
        assert (model.model.lb == lb).all() and (model.model.ub == ub).all()

    def test_a_repeated_failure_is_idempotent(self, compiled):
        """Failing a link twice pins the same columns as failing it once,
        and the optimum does not move."""
        model = self._model(compiled)
        model.fail_link("C1", "C5")
        once = (model.model.lb.copy(), model.model.ub.copy())
        objective = model.solve().objective
        model.fail_link("C5", "C1")
        assert (model.model.lb == once[0]).all() and (model.model.ub == once[1]).all()
        assert model.solve().objective == objective
