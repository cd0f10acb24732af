"""The solver the compiler's P4/P5 phases run on.

The pipeline needs two solving capabilities:

* **ST** (§4.4): the joint state-placement + routing MILP (Table 2)
  solved at cold start and on policy changes;
* **TE** (§6.2): routing re-optimized on topology and traffic-matrix
  events — by certified shortest walks, or, when they cannot prove
  themselves optimal, by the routing-only LP against a *standing* model
  that supports incremental patching (``fail_link`` / ``restore_link`` /
  ``set_demands``, §6.2.2).

:class:`MilpBackend` counts its own work in :attr:`MilpBackend.calls`
(``st_solves`` / ``te_walks`` / ``te_model_builds`` / ``te_solves``) so
sessions and tests can verify which path a TE event took, and that a
standing TE model really is being reused across link events rather than
rebuilt.
"""

from __future__ import annotations

from repro.milp.placement import PlacementInputs, PlacementModel
from repro.milp.te import build_te_model, shortest_walk_routing
from repro.util.timer import PhaseTimer


class MilpBackend:
    """The exact ST MILP (Table 2) plus TE by certified walks or the LP."""

    def __init__(self):
        self.calls = {
            "st_solves": 0, "te_walks": 0, "te_model_builds": 0, "te_solves": 0,
        }

    def solve_st(
        self, topology, demands, mapping, dependencies, stateful_switches,
        timer: PhaseTimer, *, time_limit=None, mip_rel_gap=None,
    ):
        """Run P4 (model creation) and P5 (ST solve) under ``timer``.

        Returns ``(solution, model_stats)``; P6 extracts the routing.
        """
        with timer.phase("P4"):
            inputs = PlacementInputs(
                topology, demands, mapping, dependencies, stateful_switches
            )
            model = PlacementModel(inputs)
        stats = model.stats()
        with timer.phase("P5"):
            solution = model.solve(time_limit=time_limit, mip_rel_gap=mip_rel_gap)
        self.calls["st_solves"] += 1
        return solution, stats

    def route_te(
        self, topology, demands, mapping, dependencies, placement,
        stateful_switches=None,
    ):
        """Try the TE event by shortest walks (placement fixed): returns
        ``(solution, paths)`` when they certify themselves, else the reason
        (see :func:`~repro.milp.te.shortest_walk_routing`)."""
        self.calls["te_walks"] += 1
        return shortest_walk_routing(
            topology, demands, mapping, dependencies, placement,
            stateful_switches,
        )

    def build_te_model(
        self, topology, demands, mapping, dependencies, placement,
        stateful_switches=None,
    ):
        """Construct the standing TE model (placement fixed): an object
        with ``fail_link`` / ``restore_link`` / ``set_demands`` patches and
        a ``stats()`` dict that TE snapshots record as ``model_stats``."""
        self.calls["te_model_builds"] += 1
        return build_te_model(
            topology, demands, mapping, dependencies, placement,
            stateful_switches,
        )

    def solve_te(self, model, *, time_limit: float | None = None):
        """Re-solve a (possibly patched) standing TE model."""
        self.calls["te_solves"] += 1
        return model.solve(time_limit=time_limit)
