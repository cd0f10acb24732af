"""A small MILP modeling layer over HiGHS, through SciPy's bundled binding.

The paper uses the Gurobi Python API; offline we provide the minimal
equivalent, stored the way HiGHS consumes it: one columnar store of
bound / integrality / cost vectors, and the constraint rows as a
canonical CSR with ``lo`` / ``hi`` vectors, grown by COO blocks
``(rows, cols, data)``.  A variable is its column index.

Builders append whole constraint families with :meth:`Model.add_vars` /
:meth:`Model.add_rows`; the scalar ``add_var`` / ``add_constraint`` calls
are one-element blocks of the same store.  A built model is patched by
writing into those arrays in place (``PlacementModel.fail_link`` pins
``lb`` / ``ub``) — nothing is assembled at solve time.

A solve hands these arrays to HiGHS's own binding, which SciPy (>= 1.17,
HiGHS 1.12) vendors as ``scipy.optimize._highspy``, loaded on its own.
"""

from __future__ import annotations

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np

from repro.lang.errors import PlacementError


def _load_highs():
    """``scipy.optimize._highspy._core`` without ``scipy.optimize``'s package init
    (~500 modules with ``scipy.sparse``), registered under its name before it
    runs: a later ``import scipy.optimize`` reuses it, not loading it twice."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    import scipy
    found = PathFinder.find_spec("_core", [f"{scipy.__path__[0]}/optimize/_highspy"])
    if found is None:
        raise ImportError(
            "repro.milp needs scipy>=1.17 (HiGHS's binding, scipy.optimize._highspy)")
    spec = spec_from_file_location(name, found.origin)
    sys.modules[name] = module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_core = _load_highs()
HighsModelStatus, HighsStatus, MatrixFormat, ObjSense, _Highs = (
    _core.HighsModelStatus, _core.HighsStatus, _core.MatrixFormat, _core.ObjSense, _core._Highs)

#: ``milp``'s code and message per HiGHS model status, copied from SciPy's
#: ``_linprog_highs._highs_to_scipy_status_message``.
_MILP_STATUS = {
    "kOptimal": (0, "Optimization terminated successfully. "),
    "kTimeLimit": (1, "Time limit reached. "), "kIterationLimit": (1, "Iteration limit reached. "),
    "kModelError": (2, ""), "kInfeasible": (2, "The problem is infeasible. "),
    "kUnbounded": (3, "The problem is unbounded. "),
    "kUnboundedOrInfeasible": (4, "The problem is unbounded or infeasible. "),
    **dict.fromkeys("kNotset kLoadError kPresolveError kSolveError kPostsolveError "
                    "kModelEmpty kObjectiveBound kObjectiveTarget".split(), (4, "")),
}


def milp_status(status, highs_message: str) -> tuple:
    """``(code, message)`` as ``scipy.optimize.milp`` reports ``status``."""
    code, message = _MILP_STATUS.get(
        status.name, (4, "The HiGHS status code was not recognized. "))
    return code, f"{message}(HiGHS Status {int(status)}: {highs_message})"


def _extended(vector: np.ndarray, count: int, values) -> np.ndarray:
    """``vector`` plus ``count`` entries: one scalar for all, or one each."""
    return np.concatenate([vector, np.broadcast_to(np.asarray(values, vector.dtype), (count,))])


class CSR:
    """Row-wise arrays for HiGHS: canonical (sorted, duplicates summed), int32 indices."""

    def __init__(self):
        self.indptr = np.zeros(1, dtype=np.int32)
        self.indices = np.empty(0, dtype=np.int32)
        self.data = np.empty(0)
        self.shape = (0, 0)

    @property
    def nnz(self) -> int:
        return self.data.size


class Solution:
    """Solved variable values plus objective and solver status.

    ``status`` is SciPy's code for HiGHS's status: 0 optimal, 1
    iteration/time limit reached with an incumbent — ``mip_gap`` (``None``
    for an LP) tells the two apart in numbers.  ``nodes`` (branch-and-bound
    nodes, ``None`` for an LP) and ``lp_iterations`` (simplex iterations)
    say how much work the solve did.
    """

    def __init__(self, values: np.ndarray, objective: float, status: int,
                 message: str, mip_gap: float | None = None,
                 nodes: int | None = None, lp_iterations: int | None = None):
        self._values = values
        self.objective = objective
        self.status = status
        self.message = message
        self.mip_gap = mip_gap
        self.nodes = nodes
        self.lp_iterations = lp_iterations

    def __getitem__(self, var: int) -> float:
        return float(self._values[var])

    def value_array(self) -> np.ndarray:
        return self._values


class Model:
    """An LP/MILP under construction, and the solvable model afterwards."""

    def __init__(self, name: str = "model"):
        self.name = name
        # The store.  Each is the live array the next solve reads (write
        # into it to patch); growing the model replaces it.
        self.lb = np.empty(0)
        self.ub = np.empty(0)
        self.cost = np.empty(0)
        self.integrality = np.empty(0, dtype=np.uint8)
        #: ``lo <= matrix @ x <= hi``.
        self.matrix = CSR()
        self.lo = np.empty(0)
        self.hi = np.empty(0)
        #: (first, stop, name or ``offset -> name``): names are derived
        #: on demand, never stored per variable.
        self._names: list = []

    # -- variables ----------------------------------------------------------

    def add_vars(self, count: int, lower=0.0, upper=np.inf,
                 integer: bool = False, name=None) -> int:
        """Append ``count`` variables; returns the first column index.

        ``lower`` / ``upper`` are scalars or ``count``-vectors.  ``name``
        is a string or a callable ``offset -> str``, consulted only by
        :meth:`var_name`.
        """
        first = self.num_vars
        self.lb = _extended(self.lb, count, lower)
        self.ub = _extended(self.ub, count, upper)
        self.cost = _extended(self.cost, count, 0.0)
        self.integrality = _extended(self.integrality, count, int(integer))
        self.matrix.shape = (self.num_constraints, self.num_vars)
        if name is not None:
            self._names.append((first, first + count, name))
        return first

    def add_var(self, name: str = "", lower: float = 0.0,
                upper: float = float("inf"), integer: bool = False) -> int:
        return self.add_vars(1, lower, upper, integer, name or None)

    def add_binary(self, name: str = "") -> int:
        return self.add_var(name, 0.0, 1.0, integer=True)

    def var_name(self, var: int) -> str:
        """The name given at creation (``x<index>`` when none was)."""
        for first, stop, name in self._names:
            if first <= var < stop:
                return name(var - first) if callable(name) else name
        return f"x{var}"

    def var_bounds(self, var: int) -> tuple:
        return float(self.lb[var]), float(self.ub[var])

    def set_var_bounds(self, var: int, lower: float, upper: float) -> None:
        self.lb[var] = lower
        self.ub[var] = upper

    # -- constraints ----------------------------------------------------------

    def add_rows(self, count: int, rows, cols, data, lower, upper) -> int:
        """Append ``count`` rows ``lower <= A x <= upper`` as one COO block.

        ``rows`` are block-local (``0 .. count-1``), ``cols`` variable
        indices, ``data`` a scalar or per-entry coefficients; ``lower`` /
        ``upper`` are scalars or ``count``-vectors.  Returns the first
        row index.
        """
        first, matrix, width = self.num_constraints, self.matrix, self.num_vars
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if rows.size and not (0 <= rows.min() <= rows.max() < count
                              and 0 <= cols.min() <= cols.max() < width):
            raise ValueError(f"{self.name}: an entry lies outside the {count} x {width} block")
        # Entries in (row, col) order; a stable sort sums duplicates in input order.
        key = rows * width + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        run = np.flatnonzero(np.diff(key, prepend=-1))  # each (row, col)'s first entry
        data = np.broadcast_to(np.asarray(data, dtype=np.float64), key.shape)[order]
        rows, cols = np.divmod(key[run], width)
        ends = np.cumsum(np.bincount(rows, minlength=count), dtype=np.int32)
        matrix.indptr = np.concatenate([matrix.indptr, matrix.indptr[-1] + ends])
        matrix.indices = np.concatenate([matrix.indices, cols.astype(np.int32)])
        matrix.data = np.concatenate([matrix.data, np.add.reduceat(data, run)])
        matrix.shape = (first + count, width)
        self.lo = _extended(self.lo, count, lower)
        self.hi = _extended(self.hi, count, upper)
        return first

    def add_constraint(self, terms, lower: float, upper: float) -> int:
        """``lower <= sum(coef * var) <= upper`` with terms ``(var, coef)``."""
        terms = list(terms)
        return self.add_rows(
            1, np.zeros(len(terms), dtype=np.intp),
            [var for var, _ in terms], [coef for _, coef in terms],
            lower, upper,
        )

    def add_eq(self, terms, rhs: float) -> int:
        return self.add_constraint(terms, rhs, rhs)

    def add_le(self, terms, rhs: float) -> int:
        return self.add_constraint(terms, -np.inf, rhs)

    def add_ge(self, terms, rhs: float) -> int:
        return self.add_constraint(terms, rhs, np.inf)

    def minimize(self, terms) -> None:
        """Set the objective to ``sum(coef * var)`` (minimization)."""
        terms = list(terms)
        self.cost[:] = 0.0
        np.add.at(self.cost, [var for var, _ in terms],
                  [coef for _, coef in terms])

    # -- stats ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.lb.size

    @property
    def num_constraints(self) -> int:
        return self.lo.size

    @property
    def num_integer_vars(self) -> int:
        return int(np.count_nonzero(self.integrality))

    # -- solving ----------------------------------------------------------------

    def solve(self, time_limit: float | None = None, mip_rel_gap: float | None = None) -> Solution:
        options = {"output_flag": False}
        if time_limit is not None:
            options["time_limit"] = time_limit
        if mip_rel_gap is not None:
            options["mip_rel_gap"] = mip_rel_gap
        if self.num_integer_vars:
            # The ST MILP: solved at the root node, whose LP vertex replaces
            # feasibility jump's incumbent.  Presolve stays: without, HiGHS
            # returns another placement in the MIP gap, and other switch programs.
            options["mip_heuristic_run_feasibility_jump"] = False
        else:
            # The TE LP: presolve costs it ~4x the simplex it saves.
            options["presolve"] = "off"
        return run_highs(self, options)

    def __repr__(self):
        return (
            f"Model({self.name!r}, vars={self.num_vars} "
            f"({self.num_integer_vars} int), rows={self.num_constraints})"
        )


def run_highs(model: Model, options: dict) -> Solution:
    """Solve ``model`` on a fresh HiGHS instance with ``options``; raises
    :class:`PlacementError` for an option HiGHS does not know, an LP that
    is not optimal or a MILP stopped without an incumbent.  Codes and
    messages are ``milp``'s."""
    highs = _Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) == HighsStatus.kError:
            raise PlacementError(f"{model.name}: HiGHS {highs.version()} rejects {name}={value!r}")
    matrix = model.matrix
    loaded = highs.passModel(
        model.num_vars, model.num_constraints, matrix.nnz, MatrixFormat.kRowwise,
        ObjSense.kMinimize, 0.0, model.cost, model.lb, model.ub, model.lo, model.hi,
        matrix.indptr, matrix.indices, matrix.data, model.integrality,
    )
    if loaded == HighsStatus.kError:
        status = HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    code, message = milp_status(status, highs.modelStatusToString(status))
    info, is_mip = highs.getInfo(), model.num_integer_vars > 0
    if not (code == 0 or is_mip and code == 1 and info.objective_function_value < np.inf):
        raise PlacementError(f"{model.name}: solver failed (status={code}): {message}")
    return Solution(
        np.array(highs.getSolution().col_value), info.objective_function_value,
        code, message, info.mip_gap if is_mip else None,
        info.mip_node_count if is_mip else None, info.simplex_iteration_count,
    )
