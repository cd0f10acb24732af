"""Tests for incremental MILP updates (§6.2.2)."""

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
        """Each fail/restore cycle patches the *same* standing model and
        lands on the same answer: restore reinstates the original variable
        bounds it recorded, instead of resetting them wholesale."""
        controller, _ = binding
        controller.fail_link("C1", "C5")  # ensure a standing model
        controller.restore_link("C1", "C5")
        builds_before = controller.backend.calls["te_model_builds"]
        assert builds_before == 1
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
        # The whole sequence patched one standing model — never a rebuild.
        assert controller.backend.calls["te_model_builds"] == builds_before


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

    def test_new_flow_set_rejected(self, binding):
        controller, cold = binding
        controller.reroute(failed_links=[("C1", "C5")])  # ensure standing model
        controller.reroute(failed_links=[])
        bad = dict(controller.demands)
        bad.pop(sorted(bad)[0])
        with pytest.raises(PlacementError):
            controller._te_model.set_demands(bad)

    def test_a_demand_below_the_floor_is_no_flow(self, compiled):
        """``set_demands`` counts flows as ``PlacementInputs`` does: a
        demand at or below ``DEMAND_FLOOR`` is no flow, whatever its sign."""
        controller, cold = compiled
        model = build_te_model(
            campus_topology(), dict(controller.demands), cold.mapping,
            cold.dependencies, dict(cold.placement),
        )
        flows = list(model.inputs.flows)
        tiny = {**controller.demands, sorted(controller.demands)[0]: 1e-12}
        assert model.inputs.flows_of(tiny) != flows
        with pytest.raises(PlacementError):
            model.set_demands(tiny)
        model.set_demands({**controller.demands, (1, 1): 1e-12})
        assert model.inputs.flows == flows


class TestModelPatchingDirect:
    def _model(self, compiled):
        controller, cold = compiled
        return build_te_model(
            campus_topology(), dict(controller.demands), cold.mapping,
            cold.dependencies, dict(cold.placement),
        )

    @staticmethod
    def _own_column(model, link):
        """The routing column of the first flow on ``link``."""
        return model.route_var(model.inputs.flows[0], link)

    def test_fail_and_restore_roundtrip(self, compiled):
        model = self._model(compiled)
        before = model.solve().objective
        model.fail_link("C1", "C5")
        degraded = model.solve().objective
        assert degraded >= before - 1e-9
        model.restore_link("C1", "C5")
        assert model.solve().objective == pytest.approx(before, rel=1e-6)

    def test_patched_solution_validates(self, compiled):
        _, cold = compiled
        model = self._model(compiled)
        model.fail_link("C1", "C5")
        solution = model.solve()
        degraded = campus_topology().without_link("C1", "C5")
        routing = extract_paths(solution, degraded, cold.mapping, cold.dependencies)
        validate_solution(routing, degraded, cold.mapping, cold.dependencies)

    def test_restore_of_never_failed_link_is_a_noop(self, compiled):
        """Restoring a healthy link must not touch bounds the model never
        changed — previously it reset every route variable to [0, 1]."""
        model = self._model(compiled)
        target = self._own_column(model, ("C1", "C5"))
        # A caller-customized bound (e.g. a pinned route) survives a
        # restore of a link that was never failed.
        model.model.set_var_bounds(target, 0.0, 0.5)
        model.restore_link("C1", "C5")
        assert model.model.var_bounds(target) == (0.0, 0.5)

    def test_restore_reinstates_recorded_bounds(self, compiled):
        """fail/restore reinstates exactly the pre-failure bounds, and a
        double failure doesn't overwrite the recording with zeros."""
        model = self._model(compiled)
        target = self._own_column(model, ("C1", "C5"))
        bounds = model.model.var_bounds
        model.model.set_var_bounds(target, 0.0, 0.5)
        model.fail_link("C1", "C5")
        model.fail_link("C1", "C5")  # repeated failure: still recorded once
        assert bounds(target) == (0.0, 0.0)
        model.restore_link("C1", "C5")
        assert bounds(target) == (0.0, 0.5)
        # A second restore is a no-op, not another reset.
        model.model.set_var_bounds(target, 0.0, 0.25)
        model.restore_link("C1", "C5")
        assert bounds(target) == (0.0, 0.25)
