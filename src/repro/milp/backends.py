"""The solver the compiler's P4/P5 phases run on.

The pipeline needs two solving capabilities:

* **ST** (§4.4): the joint state-placement + routing problem (Table 2)
  solved at cold start and on policy changes — by the certified walks of
  :class:`~repro.milp.st_walk.WalkSearch`, or, when they cannot prove
  themselves optimal, by the MILP;
* **TE** (§6.2): routing re-optimized on topology and traffic-matrix
  events — by certified shortest walks, or, when they cannot prove
  themselves optimal, by the routing-only LP built on the event's
  effective topology.

:class:`MilpBackend` counts its own work in :attr:`MilpBackend.calls`
(``st_walks`` / ``st_solves`` / ``te_walks`` / ``te_solves``) so
sessions and tests can verify which path an ST or TE event took (a walk
is counted when it is tried, a solve when the MILP or LP is built and
solved).
"""

from __future__ import annotations

from repro.milp.placement import PlacementInputs, PlacementModel
from repro.milp.st_walk import WalkSearch
from repro.milp.te import build_te_model, shortest_walk_routing
from repro.util.timer import PhaseTimer


class MilpBackend:
    """ST and TE by certified walks, or the Table 2 MILP / LP."""

    def __init__(self):
        self.calls = {
            "st_walks": 0, "st_solves": 0,
            "te_walks": 0, "te_solves": 0,
        }

    def solve_st(
        self, topology, demands, mapping, dependencies, stateful_switches,
        timer: PhaseTimer, *, time_limit=None, mip_rel_gap=None,
    ):
        """Run P4 and P5 under ``timer``: the walk search's distance table
        and its certified minimum, and only when that fails the MILP's
        model creation and solve.

        Returns ``(solution, paths, model_stats)``: ``paths`` is the
        certified walks' routing (None after the MILP: P6 extracts it),
        and ``model_stats["st_route"]`` is ``"walk"`` or why not.
        """
        self.calls["st_walks"] += 1
        with timer.phase("P4"):
            search = WalkSearch(
                topology, demands, mapping, dependencies, stateful_switches
            )
        with timer.phase("P5"):
            walk = search.run()
        if not isinstance(walk, str):
            return (*walk, {"st_route": "walk"})
        with timer.phase("P4"):
            inputs = PlacementInputs(
                topology, demands, mapping, dependencies, stateful_switches
            )
            model = PlacementModel(inputs)
        stats = {**model.stats(), "st_route": walk}
        with timer.phase("P5"):
            solution = model.solve(time_limit=time_limit, mip_rel_gap=mip_rel_gap)
        self.calls["st_solves"] += 1
        return solution, None, stats

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

    def solve_te(
        self, topology, demands, mapping, dependencies, placement,
        stateful_switches=None, *, time_limit: float | None = None,
    ):
        """Build the routing-only LP (placement fixed) on ``topology`` and
        solve it: returns ``(solution, model_stats)``."""
        self.calls["te_solves"] += 1
        model = build_te_model(
            topology, demands, mapping, dependencies, placement,
            stateful_switches,
        )
        return model.solve(time_limit=time_limit), model.stats()
