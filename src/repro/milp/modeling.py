"""A small MILP modeling layer over ``scipy.optimize.milp`` (HiGHS).

The paper uses the Gurobi Python API; offline we provide the minimal
equivalent, stored the way HiGHS consumes it: one columnar store of
bound / integrality / cost vectors, and the constraint rows as a
canonical CSR with ``lo`` / ``hi`` vectors, grown by COO blocks
``(rows, cols, data)``.  A variable is its column index.

Builders append whole constraint families with :meth:`Model.add_vars` /
:meth:`Model.add_rows`; the scalar ``add_var`` / ``add_constraint`` calls
are one-element blocks of the same store.  A standing model is patched by
writing into ``lb`` / ``ub`` / ``cost`` / ``lo`` / ``hi`` / ``matrix.data``
in place (§6.2.2: "incremental additions and modifications of variables
and constraints in a few milliseconds") — nothing is assembled at solve
time.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.lang.errors import PlacementError


def _extended(vector: np.ndarray, count: int, values) -> np.ndarray:
    """``vector`` plus ``count`` entries: one scalar for all, or one each."""
    return np.concatenate([vector, np.broadcast_to(np.asarray(values, vector.dtype), (count,))])


class Solution:
    """Solved variable values plus objective and solver status.

    ``status`` is HiGHS's: 0 optimal, 1 iteration/time limit reached with
    an incumbent — ``mip_gap`` (``None`` when SciPy reports none) tells
    the two apart in numbers.
    """

    def __init__(self, values: np.ndarray, objective: float, status: int,
                 message: str, mip_gap: float | None = None):
        self._values = values
        self.objective = objective
        self.status = status
        self.message = message
        self.mip_gap = mip_gap

    def __getitem__(self, var: int) -> float:
        return float(self._values[var])

    def value_array(self) -> np.ndarray:
        return self._values


class Model:
    """An LP/MILP under construction, and the standing model afterwards."""

    def __init__(self, name: str = "model"):
        self.name = name
        # The store.  Each is the live array the next solve reads (write
        # into it to patch); growing the model replaces it.
        self.lb = np.empty(0)
        self.ub = np.empty(0)
        self.cost = np.empty(0)
        self.integrality = np.empty(0, dtype=np.uint8)
        #: ``lo <= matrix @ x <= hi``; canonical CSR (sorted, duplicates
        #: summed).  Coefficient patches go into ``matrix.data``.
        self.matrix = sparse.csr_matrix((0, 0))
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
        self.matrix.resize(self.num_constraints, self.num_vars)
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
        first = self.num_constraints
        cols = np.asarray(cols, dtype=np.intp)
        data = np.broadcast_to(np.asarray(data, dtype=np.float64), cols.shape)
        block = sparse.csr_matrix((data, (rows, cols)), shape=(count, self.num_vars))
        self.matrix = sparse.vstack([self.matrix, block], format="csr")
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
        options = {}
        if time_limit is not None:
            options["time_limit"] = time_limit
        if mip_rel_gap is not None:
            options["mip_rel_gap"] = mip_rel_gap
        result = milp(
            c=self.cost,
            constraints=LinearConstraint(self.matrix, self.lo, self.hi),
            bounds=Bounds(self.lb, self.ub),
            integrality=self.integrality,
            options=options,
        )
        if result.x is None:
            raise PlacementError(
                f"{self.name}: solver failed (status={result.status}): {result.message}"
            )
        return Solution(
            result.x, float(result.fun), int(result.status), result.message,
            result.get("mip_gap"),
        )

    def __repr__(self):
        return (
            f"Model({self.name!r}, vars={self.num_vars} "
            f"({self.num_integer_vars} int), rows={self.num_constraints})"
        )
