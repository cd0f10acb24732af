"""Optimization: the ST MILP, TE LP, greedy heuristic, and path extraction."""

from repro.milp.backends import MilpBackend
from repro.milp.heuristic import greedy_placement, greedy_solution
from repro.milp.modeling import Model, Solution
from repro.milp.placement import (
    PlacementInputs,
    PlacementModel,
    PlacementSolution,
    build_placement_model,
)
from repro.milp.refine import PortSplit, split_port
from repro.milp.results import (
    RoutingPaths,
    decompose_flow,
    extract_paths,
    validate_solution,
)
from repro.milp.te import build_te_model, solve_te

__all__ = [
    "MilpBackend",
    "greedy_placement", "greedy_solution",
    "Model", "Solution",
    "PlacementInputs", "PlacementModel", "PlacementSolution",
    "build_placement_model",
    "PortSplit", "split_port",
    "RoutingPaths", "decompose_flow", "extract_paths", "validate_solution",
    "build_te_model", "solve_te",
]
