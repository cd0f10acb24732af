"""Pluggable solver backends for the compiler's P4/P5 phases.

The pipeline needs two solving capabilities:

* **ST** (§4.4): the joint state-placement + routing decision made at cold
  start and on policy changes;
* **TE** (§6.2): the routing-only re-optimization made on topology and
  traffic-matrix events, against a *standing* model that supports
  incremental patching (``fail_link`` / ``restore_link`` /
  ``set_demands``, §6.2.2).

A :class:`SolverBackend` packages both.  The stock backends are
``"milp"`` (exact, Table 2's constraint system) and ``"greedy"`` (the
§6.2.2 heuristic for ST; TE remains the LP, which is already routing-only
and fast).  Custom backends register via :func:`register_backend` or are
passed directly as instances in ``CompilerOptions.solver``.

Backends count their own work in :attr:`SolverBackend.calls`
(``st_solves`` / ``te_model_builds`` / ``te_solves``) so sessions and
tests can verify that a standing TE model really is being reused across
link events rather than rebuilt.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.lang.errors import SnapError
from repro.milp.heuristic import greedy_solution
from repro.milp.placement import PlacementInputs, PlacementModel
from repro.milp.te import build_te_model
from repro.util.timer import PhaseTimer


@runtime_checkable
class SolverBackend(Protocol):
    """What the controller requires of a solver implementation."""

    name: str
    calls: dict

    def solve_st(
        self,
        topology,
        demands: dict,
        mapping,
        dependencies,
        stateful_switches,
        timer: PhaseTimer,
        *,
        time_limit: float | None = None,
        mip_rel_gap: float | None = None,
    ):
        """Run P4 (model creation) and P5 (ST solve) under ``timer``.

        Returns ``(solution, routing_or_None, model_stats)``; a backend
        that decides routing itself (the heuristic) returns it directly,
        otherwise P6 extracts paths from the solution.
        """
        ...  # pragma: no cover - protocol

    def build_te_model(
        self, topology, demands, mapping, dependencies, placement,
        stateful_switches=None,
    ):
        """Construct the standing TE model (placement fixed): an object
        with ``fail_link`` / ``restore_link`` / ``set_demands`` patches and
        a ``stats()`` dict that TE snapshots record as ``model_stats``."""
        ...  # pragma: no cover - protocol

    def solve_te(self, model, *, time_limit: float | None = None):
        """Re-solve a (possibly patched) standing TE model."""
        ...  # pragma: no cover - protocol


class _TERoutingMixin:
    """Shared TE path: the routing-only LP of §6.2 with patch support."""

    def __init__(self):
        self.calls = {"st_solves": 0, "te_model_builds": 0, "te_solves": 0}

    def build_te_model(
        self, topology, demands, mapping, dependencies, placement,
        stateful_switches=None,
    ):
        self.calls["te_model_builds"] += 1
        return build_te_model(
            topology, demands, mapping, dependencies, placement,
            stateful_switches,
        )

    def solve_te(self, model, *, time_limit: float | None = None):
        self.calls["te_solves"] += 1
        return model.solve(time_limit=time_limit)


class MilpBackend(_TERoutingMixin):
    """The exact ST MILP (Table 2) plus the TE LP."""

    name = "milp"

    def solve_st(
        self, topology, demands, mapping, dependencies, stateful_switches,
        timer: PhaseTimer, *, time_limit=None, mip_rel_gap=None,
    ):
        with timer.phase("P4"):
            inputs = PlacementInputs(
                topology, demands, mapping, dependencies, stateful_switches
            )
            model = PlacementModel(inputs)
        stats = model.stats()
        with timer.phase("P5"):
            solution = model.solve(time_limit=time_limit, mip_rel_gap=mip_rel_gap)
        self.calls["st_solves"] += 1
        return solution, None, stats


class GreedyBackend(_TERoutingMixin):
    """The §6.2.2 placement heuristic; ST routing is stitched shortest
    paths, TE re-optimization stays with the (already fast) LP."""

    name = "greedy"

    def solve_st(
        self, topology, demands, mapping, dependencies, stateful_switches,
        timer: PhaseTimer, *, time_limit=None, mip_rel_gap=None,
    ):
        with timer.phase("P4"):
            pass  # no model to create
        with timer.phase("P5"):
            solution, routing = greedy_solution(
                topology, demands, mapping, dependencies, stateful_switches
            )
        self.calls["st_solves"] += 1
        return solution, routing, {}


#: Registered backend factories, by ``CompilerOptions.solver`` name.
BACKENDS = {
    "milp": MilpBackend,
    "greedy": GreedyBackend,
}


def register_backend(name: str, factory) -> None:
    """Make ``solver=name`` construct ``factory()``."""
    BACKENDS[name] = factory


def get_backend(solver) -> SolverBackend:
    """Resolve a ``CompilerOptions.solver`` spec to a backend instance."""
    if isinstance(solver, str):
        try:
            return BACKENDS[solver]()
        except KeyError:
            known = ", ".join(sorted(BACKENDS))
            raise SnapError(
                f"unknown solver backend {solver!r} (known: {known})"
            ) from None
    if isinstance(solver, SolverBackend):
        return solver
    raise SnapError(
        f"solver must be a backend name or a SolverBackend instance, "
        f"got {solver!r}"
    )
