"""The assembly oracle: the row-by-row Table 2 builder, kept out of ``src/``.

This is the builder ``repro.milp`` shipped before the columnar store: one
``Variable`` object per column, one tuple-of-``(var, coef)`` row per
constraint, assembled into a canonical CSR by walking every row.  It is
slow and it is the specification: ``tests/test_milp_assembly.py`` asserts
that the vectorised builder in ``src/repro/milp/placement.py`` hands HiGHS
an array-equal ST problem (same column order, same row order, same
coefficients), cold and after link failures, and a TE program array-equal
to this module's ST program with its ``P`` bounds pinned, whose optimum
is this module's TE program's — Table 2 with ``P`` a constant
(:func:`assert_te_equivalent`).  Nothing in
``src/`` imports this module; do not "fix" or speed it up.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.lang.errors import PlacementError
from repro.milp.results import extract_paths, validate_solution
from repro.topology.graph import port_node


class Variable:
    """A model variable; use ``solution[var]`` to read its value."""

    __slots__ = ("index", "name", "lower", "upper", "integer")

    def __init__(self, index: int, name: str, lower: float, upper: float, integer: bool):
        self.index = index
        self.name = name
        self.lower = lower
        self.upper = upper
        self.integer = integer

    def __repr__(self):
        kind = "int" if self.integer else "cont"
        return f"Variable({self.name}, {kind}, [{self.lower}, {self.upper}])"


class Model:
    """An LP/MILP under construction."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._vars: list[Variable] = []
        self._rows: list[tuple] = []  # (terms, lower, upper)
        self._objective: list[tuple] = []

    # -- variables ----------------------------------------------------------

    def add_var(
        self,
        name: str = "",
        lower: float = 0.0,
        upper: float = float("inf"),
        integer: bool = False,
    ) -> Variable:
        var = Variable(len(self._vars), name or f"x{len(self._vars)}", lower, upper, integer)
        self._vars.append(var)
        return var

    def add_binary(self, name: str = "") -> Variable:
        return self.add_var(name, 0.0, 1.0, integer=True)

    # -- constraints ----------------------------------------------------------

    def add_constraint(self, terms, lower: float, upper: float) -> int:
        """``lower <= sum(coef * var) <= upper`` with terms ``(var, coef)``;
        returns the row index."""
        self._rows.append((tuple(terms), float(lower), float(upper)))
        return len(self._rows) - 1

    def set_var_bounds(self, var: Variable, lower: float, upper: float) -> None:
        var.lower = float(lower)
        var.upper = float(upper)

    def add_eq(self, terms, rhs: float) -> int:
        return self.add_constraint(terms, rhs, rhs)

    def add_le(self, terms, rhs: float) -> int:
        return self.add_constraint(terms, -np.inf, rhs)

    def add_ge(self, terms, rhs: float) -> int:
        return self.add_constraint(terms, rhs, np.inf)

    def minimize(self, terms) -> None:
        """Set the objective to ``sum(coef * var)`` (minimization)."""
        self._objective = list(terms)


    # -- assembly (the body of the parent's ``solve`` before ``milp``) -----

    def assemble(self) -> dict:
        n = len(self._vars)
        cost = np.zeros(n)
        for var, coef in self._objective:
            cost[var.index] += coef

        row_idx, col_idx, data = [], [], []
        lo = np.empty(len(self._rows))
        hi = np.empty(len(self._rows))
        for r, (terms, lower, upper) in enumerate(self._rows):
            lo[r] = lower
            hi[r] = upper
            for var, coef in terms:
                row_idx.append(r)
                col_idx.append(var.index)
                data.append(coef)
        matrix = sparse.csr_matrix(
            (data, (row_idx, col_idx)), shape=(len(self._rows), n)
        )
        return {
            "c": cost,
            "A": matrix,
            "lo": lo,
            "hi": hi,
            "lb": np.array([v.lower for v in self._vars]),
            "ub": np.array([v.upper for v in self._vars]),
            "integrality": np.array([1 if v.integer else 0 for v in self._vars]),
        }


class ReferenceInputs:
    """Everything Table 1 lists as MILP input, preprocessed."""

    def __init__(
        self,
        topology,
        demands: dict,
        mapping,
        dependencies,
        stateful_switches=None,
        state_capacity: dict | int | None = None,
    ):
        self.topology = topology
        self.graph = topology.expanded_graph()
        self.flows = [  # demands at or below 1e-9 are no flow
            (u, v) for (u, v), demand in sorted(demands.items()) if demand > 1e-9
        ]
        self.demands = {flow: demands[flow] for flow in self.flows}
        self.mapping = mapping
        self.dependencies = dependencies
        self.state_vars = sorted(
            set(mapping.all_state_vars()) | set(dependencies.order)
        )
        self.stateful_switches = tuple(
            stateful_switches if stateful_switches is not None else topology.switches()
        )
        # §7.3 "Resource constraints" extension: cap how many state
        # variables a switch may host (uniform int, or per-switch dict).
        if state_capacity is None:
            self.state_capacity = {}
        elif isinstance(state_capacity, dict):
            self.state_capacity = dict(state_capacity)
        else:
            self.state_capacity = {
                n: int(state_capacity) for n in self.stateful_switches
            }
        self.links = [(a, b) for a, b in self.graph.edges]
        self.capacities = {
            (a, b): data["capacity"] for a, b, data in self.graph.edges(data=True)
        }
        # dep pairs restricted to variables that exist here.
        known = set(self.state_vars)
        self.dep_pairs = sorted(
            (s, t) for s, t in dependencies.dep if s in known and t in known
        )
        self.tied_pairs = sorted(
            tuple(sorted(pair)) for pair in dependencies.tied
            if set(pair) <= known
        )
        #: per flow: the state variables that need PS tracking — every
        #: variable the flow uses (Table 2; see module docstring).
        self.ps_vars: dict = {}
        for flow in self.flows:
            needed = mapping.states_for(*flow)
            self.ps_vars[flow] = sorted(s for s in needed if s in known)
        # Per-flow usable links: a flow may not transit the virtual port
        # nodes of other OBS ports (they are hosts, not switches).
        self._flow_links: dict = {}
        port_nodes = {port_node(p) for p in topology.ports}
        for flow in self.flows:
            own = {port_node(flow[0]), port_node(flow[1])}
            banned = port_nodes - own
            self._flow_links[flow] = [
                (a, b)
                for a, b in self.links
                if a not in banned and b not in banned
            ]

        # Per-flow adjacency over the usable links.
        self._flow_in: dict = {}
        self._flow_out: dict = {}
        for flow in self.flows:
            fin: dict = {}
            fout: dict = {}
            for a, b in self._flow_links[flow]:
                fout.setdefault(a, []).append((a, b))
                fin.setdefault(b, []).append((a, b))
            self._flow_in[flow] = fin
            self._flow_out[flow] = fout

    def flow_links(self, flow):
        return self._flow_links[flow]

    def flow_nodes(self, flow):
        """Graph nodes this flow may touch (excludes foreign port nodes)."""
        own = {port_node(flow[0]), port_node(flow[1])}
        port_nodes = {port_node(p) for p in self.topology.ports}
        banned = port_nodes - own
        return [n for n in self.graph.nodes if n not in banned]

    def in_edges(self, node, flow):
        return self._flow_in[flow].get(node, [])

    def out_edges(self, node, flow):
        return self._flow_out[flow].get(node, [])


class ReferenceModel:
    """The built MILP plus variable handles for answer extraction."""

    def __init__(self, inputs: ReferenceInputs, fixed_placement: dict | None = None):
        self.inputs = inputs
        self.fixed_placement = (
            dict(fixed_placement) if fixed_placement is not None else None
        )
        self.model = Model("snap-st" if fixed_placement is None else "snap-te")
        self.route_vars: dict = {}
        self.place_vars: dict = {}
        self._build()

    # -- placement value helpers (variable in ST, constant in TE) -----------

    def _p_terms(self, s: str, n: str):
        """(terms, constant) contribution of P[s, n]."""
        if self.fixed_placement is not None:
            return [], 1.0 if self.fixed_placement.get(s) == n else 0.0
        return [(self.place_vars[s, n], 1.0)], 0.0

    def _build(self) -> None:
        inputs = self.inputs
        model = self.model
        if self.fixed_placement is None:
            for s in inputs.state_vars:
                for n in inputs.stateful_switches:
                    self.place_vars[s, n] = model.add_binary(f"P[{s},{n}]")
        else:
            missing = [s for s in inputs.state_vars if s not in self.fixed_placement]
            if missing:
                raise PlacementError(f"fixed placement missing variables {missing}")

        for flow in inputs.flows:
            for link in inputs.flow_links(flow):
                self.route_vars[flow, link] = model.add_var(
                    f"R[{flow},{link}]", 0.0, 1.0
                )

        self._routing_constraints()
        self._placement_constraints()
        self._ordering_constraints()
        self._objective()

    # -- Table 2, left column -------------------------------------------------

    def _routing_constraints(self) -> None:
        inputs = self.inputs
        model = self.model
        for flow in inputs.flows:
            u, v = flow
            src = port_node(u)
            dst = port_node(v)
            model.add_eq(
                [(self.route_vars[flow, e], 1.0) for e in inputs.out_edges(src, flow)],
                1.0,
            )
            model.add_eq(
                [(self.route_vars[flow, e], 1.0) for e in inputs.in_edges(src, flow)],
                0.0,
            )
            model.add_eq(
                [(self.route_vars[flow, e], 1.0) for e in inputs.in_edges(dst, flow)],
                1.0,
            )
            model.add_eq(
                [(self.route_vars[flow, e], 1.0) for e in inputs.out_edges(dst, flow)],
                0.0,
            )
            for n in inputs.flow_nodes(flow):
                if n in (src, dst):
                    continue
                incoming = [
                    (self.route_vars[flow, e], 1.0) for e in inputs.in_edges(n, flow)
                ]
                outgoing = [
                    (self.route_vars[flow, e], -1.0)
                    for e in inputs.out_edges(n, flow)
                ]
                if incoming or outgoing:
                    model.add_eq(incoming + outgoing, 0.0)
                if incoming:
                    model.add_le(incoming, 1.0)
        for link in inputs.links:
            capacity = inputs.capacities[link]
            if math.isinf(capacity):
                continue
            terms = [
                (self.route_vars[flow, link], inputs.demands[flow])
                for flow in inputs.flows
                if (flow, link) in self.route_vars
            ]
            if terms:
                model.add_le(terms, capacity)

    # -- Table 2, right column: placement ---------------------------------------

    def _placement_constraints(self) -> None:
        inputs = self.inputs
        model = self.model
        if self.fixed_placement is None:
            for s in inputs.state_vars:
                model.add_eq(
                    [(self.place_vars[s, n], 1.0) for n in inputs.stateful_switches],
                    1.0,
                )
            for s, t in inputs.tied_pairs:
                for n in inputs.stateful_switches:
                    model.add_eq(
                        [(self.place_vars[s, n], 1.0), (self.place_vars[t, n], -1.0)],
                        0.0,
                    )
            # Optional switch-memory budget (§7.3 extension).
            for n, capacity in inputs.state_capacity.items():
                if n not in inputs.stateful_switches:
                    continue
                model.add_le(
                    [(self.place_vars[s, n], 1.0) for s in inputs.state_vars],
                    float(capacity),
                )
        # Flows visit the switches of the variables they need.
        known = set(inputs.state_vars)
        for flow in inputs.flows:
            needed = inputs.mapping.states_for(*flow)
            for s in sorted(needed):
                if s not in known:
                    continue
                for n in inputs.stateful_switches:
                    p_terms, p_const = self._p_terms(s, n)
                    if not p_terms and p_const == 0.0:
                        continue
                    incoming = [
                        (self.route_vars[flow, e], 1.0)
                        for e in inputs.in_edges(n, flow)
                    ]
                    negated = [(var, -coef) for var, coef in p_terms]
                    model.add_ge(incoming + negated, p_const)

    # -- Table 2, right column: PS flow and ordering ------------------------------

    def _ordering_constraints(self) -> None:
        inputs = self.inputs
        model = self.model
        self.ps_vars_handle: dict = {}
        for flow in inputs.flows:
            tracked = inputs.ps_vars[flow]
            if not tracked:
                continue
            u, v = flow
            src = port_node(u)
            dst = port_node(v)
            needed = inputs.mapping.states_for(u, v)
            for s in tracked:
                ps: dict = {}
                for link in inputs.flow_links(flow):
                    var = model.add_var(f"PS[{s},{flow},{link}]", 0.0, 1.0)
                    ps[link] = var
                    model.add_le(
                        [(var, 1.0), (self.route_vars[flow, link], -1.0)], 0.0
                    )
                self.ps_vars_handle[s, flow] = ps
                # Nothing has passed s when leaving the source.
                model.add_eq(
                    [(ps[e], 1.0) for e in inputs.out_edges(src, flow)], 0.0
                )
                # Everything has passed s when reaching the sink.
                model.add_eq(
                    [(ps[e], 1.0) for e in inputs.in_edges(dst, flow)], 1.0
                )
                # Conservation with injection at s's switch.
                for n in inputs.flow_nodes(flow):
                    if n in (src, dst):
                        continue
                    p_terms, p_const = (
                        self._p_terms(s, n)
                        if n in inputs.stateful_switches
                        else ([], 0.0)
                    )
                    outgoing = [(ps[e], 1.0) for e in inputs.out_edges(n, flow)]
                    incoming = [(ps[e], -1.0) for e in inputs.in_edges(n, flow)]
                    if not outgoing and not incoming and not p_terms:
                        continue
                    model.add_eq(
                        outgoing + incoming + [(v_, -c) for v_, c in p_terms],
                        p_const,
                    )
                # Ordering: at t's switch, flow must already have passed s.
                for s2, t in inputs.dep_pairs:
                    if s2 != s or t not in needed:
                        continue
                    for n in inputs.stateful_switches:
                        pt_terms, pt_const = self._p_terms(t, n)
                        ps_terms, ps_const = self._p_terms(s, n)
                        incoming = [(ps[e], 1.0) for e in inputs.in_edges(n, flow)]
                        lhs = incoming + ps_terms + [(v_, -c) for v_, c in pt_terms]
                        model.add_ge(lhs, pt_const - ps_const)

    def _objective(self) -> None:
        inputs = self.inputs
        terms = []
        for flow in inputs.flows:
            demand = inputs.demands[flow]
            for link in inputs.flow_links(flow):
                capacity = inputs.capacities[link]
                if math.isinf(capacity):
                    continue
                terms.append((self.route_vars[flow, link], demand / capacity))
        self.model.minimize(terms)

    # -- link failures ---------------------------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        """Take a link out of service by pinning its routing variables to 0
        (``PS`` variables follow through ``PS <= R``)."""
        for link in ((a, b), (b, a)):
            for flow in self.inputs.flows:
                var = self.route_vars.get((flow, link))
                if var is not None:
                    self.model.set_var_bounds(var, 0.0, 0.0)


# -- the TE contract ------------------------------------------------------------


def reference_optimum(reference: ReferenceModel):
    """The reference program's optimum; None when it is infeasible."""
    arrays = reference.model.assemble()
    result = milp(
        c=arrays["c"],
        constraints=LinearConstraint(arrays["A"], arrays["lo"], arrays["hi"]),
        bounds=Bounds(arrays["lb"], arrays["ub"]),
        integrality=arrays["integrality"],
    )
    assert result.status in (0, 2), result.message
    return float(result.fun) if result.status == 0 else None


def assert_te_equivalent(model, reference: ReferenceModel, failed=()):
    """``model`` (a TE program) answers as ``reference`` does.

    Both are infeasible, or: the optima agree to 1e-9; every OBS flow's
    ``routing[flow]`` is a unit flow from its port to its port on no
    ``failed`` link; the fractions reproduce the objective and respect
    every capacity; and P6 (``extract_paths`` + ``validate_solution``)
    accepts the answer.  Returns the solution (None when infeasible).
    """
    inputs = reference.inputs
    expected = reference_optimum(reference)
    try:
        solution = model.solve()
    except PlacementError:
        assert expected is None, "the reference program is feasible"
        return None
    assert expected is not None, "the reference program is infeasible"
    assert solution.objective == pytest.approx(expected, rel=1e-9, abs=1e-12)

    dead = {link for a, b in failed for link in ((a, b), (b, a))}
    assert list(solution.routing) == inputs.flows
    loads: dict = {}
    for (u, v), fractions in solution.routing.items():
        balance = {port_node(u): -1.0, port_node(v): 1.0}
        for (a, b), share in fractions.items():
            assert (a, b) not in dead, f"flow {(u, v)} uses failed link {(a, b)}"
            assert share > 0.0
            balance[a] = balance.get(a, 0.0) + share
            balance[b] = balance.get(b, 0.0) - share
            loads[a, b] = loads.get((a, b), 0.0) + share * inputs.demands[u, v]
        assert max(map(abs, balance.values())) < 1e-6, f"flow {(u, v)}: {balance}"
    for link, load in loads.items():
        assert load <= inputs.capacities[link] * (1 + 1e-7) + 1e-7, link
    cost = sum(load / inputs.capacities[link] for link, load in loads.items())
    assert cost == pytest.approx(expected, rel=1e-6, abs=1e-9)

    topology = inputs.topology
    for link in failed:
        topology = topology.without_link(*link)
    routing = extract_paths(solution, topology, inputs.mapping, inputs.dependencies)
    validate_solution(routing, topology, inputs.mapping, inputs.dependencies)
    return solution
