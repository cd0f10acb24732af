"""Optimization: the ST MILP, the TE LP, and path extraction."""

from repro.milp.backends import MilpBackend
from repro.milp.modeling import Model, Solution
from repro.milp.placement import (
    PlacementInputs,
    PlacementModel,
    PlacementSolution,
    build_placement_model,
)
from repro.milp.results import (
    RoutingPaths,
    decompose_flow,
    extract_paths,
    validate_solution,
)
from repro.milp.te import build_te_model

__all__ = [
    "MilpBackend",
    "Model", "Solution",
    "PlacementInputs", "PlacementModel", "PlacementSolution",
    "build_placement_model",
    "RoutingPaths", "decompose_flow", "extract_paths", "validate_solution",
    "build_te_model",
]
