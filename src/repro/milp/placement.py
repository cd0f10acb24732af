"""The joint state-placement and routing MILP (§4.4, Tables 1 and 2).

One routing commodity per OBS flow (u, v) with positive demand; binary
placement variables ``P[s, n]``; auxiliary "passed s" flow ``PS`` used to
enforce state-ordering.  Exactly the constraint system of Table 2 (for
ST; TE is the same program with ``P`` pinned — see :class:`PlacementModel`):

Routing (per flow uv):
    sum_j R[uv, u->j] = 1                       source emits all flow
    sum_i R[uv, i->v] = 1                       sink absorbs all flow
    sum_uv R[uv, ij] * d_uv <= c_ij             link capacity
    sum_i R[uv, i->n] = sum_j R[uv, n->j]       conservation (internal n)
    sum_i R[uv, i->n] <= 1                      visit each node at most once

State:
    sum_n P[s, n] = 1                           each s on exactly one switch
    sum_i R[uv, i->n] >= P[s, n]                flows needing s visit its switch
    P[s, n] = P[t, n]          for (s,t) tied   co-location (same SCC / atomic)
    PS[s, uv, ij] <= R[uv, ij]
    P[s, n] + sum_i PS[s, uv, i->n] = sum_j PS[s, uv, n->j]     "passed s" grows at s's switch
    P[s, v] + sum_i PS[s, uv, i->v] = 1                         all arriving flow passed s
    P[s, n] + sum_i PS[s, uv, i->n] >= P[t, n] for (s,t) in dep  ordering

Objective: minimize total link utilization sum R[uv, ij] * d_uv / c_ij.

``PS`` variables are instantiated for *every* s in S_uv, exactly as in
Table 2.  This is not redundant: without the PS sink constraint, the visit
constraint alone can be satisfied by a circulation disconnected from the
flow's real path (a classic multi-commodity-flow artifact), letting the
solver "fake" the visit.  PS must ride R's edges from s's switch to the
sink, which forces genuine connectivity.  For the same reason a flow may
not transit the virtual port nodes of other OBS ports.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.dependency import DependencyInfo
from repro.analysis.packet_state import PacketStateMapping
from repro.lang.errors import PlacementError
from repro.milp.modeling import Model, Solution
from repro.topology.graph import Topology, port_node

#: Demands at or below this are no flow (see :meth:`PlacementInputs.flows_of`).
DEMAND_FLOOR = 1e-9


class PlacementInputs:
    """Everything Table 1 lists as MILP input, preprocessed to index form.

    Nodes, links, flows, state variables and stateful switches are
    numbered in the order the graph / sorted inputs give them; ``mask``
    is the shared ``(flow x link)`` table of which links a flow may use.
    """

    def __init__(
        self,
        topology: Topology,
        demands: dict,
        mapping: PacketStateMapping,
        dependencies: DependencyInfo,
        stateful_switches=None,
        state_capacity: dict | int | None = None,
    ):
        self.topology = topology
        self.graph = topology.expanded_graph()
        self.flows = self.flows_of(demands)
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
        self.ps_vars = {
            flow: sorted(s for s in mapping.states_for(*flow) if s in known)
            for flow in self.flows
        }

        # -- index form --------------------------------------------------
        self.state_id = {s: i for i, s in enumerate(self.state_vars)}
        self.switch_id = {n: k for k, n in enumerate(self.stateful_switches)}
        self.nodes = list(self.graph.nodes)
        node_id = {n: i for i, n in enumerate(self.nodes)}
        self.links = list(self.graph.edges)
        self.link_id = {link: i for i, link in enumerate(self.links)}
        self.link_src = np.array([node_id[a] for a, _ in self.links], dtype=np.intp)
        self.link_dst = np.array([node_id[b] for _, b in self.links], dtype=np.intp)
        self.capacity = np.array([self.graph.edges[link]["capacity"] for link in self.links])

        def node_ids(names):  # -1: not in the graph (such a node has no links)
            return np.array([node_id.get(n, -1) for n in names], dtype=np.intp)

        self.flow_src = node_ids(port_node(u) for u, _ in self.flows)
        self.flow_dst = node_ids(port_node(v) for _, v in self.flows)
        #: port nodes are hosts: sources and sinks, never transit.
        self.is_port = np.zeros(len(self.nodes), dtype=bool)
        self.is_port[node_ids(map(port_node, topology.ports))] = True
        #: per stateful switch its node, and per node its rank among the
        #: stateful switches (-1: not one).
        self.switch_node = node_ids(self.stateful_switches)
        self.switch_rank = np.full(len(self.nodes), -1, dtype=np.intp)
        in_graph = self.switch_node >= 0
        self.switch_rank[self.switch_node[in_graph]] = np.nonzero(in_graph)[0]

        # Per-flow usable links: a flow may not transit the virtual port
        # nodes of other OBS ports (they are hosts, not switches).
        def own_or_switch(end):
            return (
                ~self.is_port[end]
                | (end == self.flow_src[:, None])
                | (end == self.flow_dst[:, None])
            )

        self.mask = own_or_switch(self.link_src) & own_or_switch(self.link_dst)

    @staticmethod
    def flows_of(demands: dict) -> list:
        """The sorted flows of a traffic matrix: pairs above the demand floor."""
        return [
            (u, v) for (u, v), demand in sorted(demands.items())
            if demand > DEMAND_FLOOR
        ]

    def demand_vector(self) -> np.ndarray:
        return np.array([self.demands[flow] for flow in self.flows], dtype=np.float64)


class _Rows:
    """Constraint rows declared by key and laid out in key order.

    Table 2's families interleave per flow and per (flow, s), so a family
    names its rows ``(section, group, kind, sub)`` and the sort recovers
    the row-by-row order; entries name the row they belong to.
    """

    RADIX = 1 << 20  # bound on groups per section and on ``sub``

    def __init__(self):
        self._rows: list = []  # (keys, lo, hi)
        self._entries: list = []  # (keys, cols, coefficients)

    def key(self, section, group=0, kind=0, sub=0):
        return ((section * self.RADIX + group) * 8 + kind) * self.RADIX + sub

    def add(self, keys, lo, hi) -> None:
        self._rows.append((keys, lo, hi))

    def put(self, keys, cols, coef) -> None:
        self._entries.append((keys, cols, coef))

    def emit(self, model: Model) -> None:
        """Append everything declared to ``model``."""
        def column(parts, position):
            return np.concatenate(
                [np.broadcast_to(part[position], part[0].shape) for part in parts]
            )

        keys = column(self._rows, 0)
        order = np.argsort(keys)
        keys = keys[order]
        model.add_rows(
            keys.size,
            np.searchsorted(keys, column(self._entries, 0)),
            column(self._entries, 1),
            column(self._entries, 2),
            column(self._rows, 1)[order],
            column(self._rows, 2)[order],
        )


ROUTING, CAPACITY, PLACEMENT, VISIT, PASSED = range(5)


class PlacementModel:
    """The built program plus the column layout for extraction.

    Table 2 verbatim.  Columns: ``P[s, n]`` (state-major), then ``R[f, l]``
    over the set bits of ``inputs.mask`` (flow-major), then ``PS[s, f, l]``
    per (flow, tracked variable) over the flow's links.  Rows: routing per
    flow, link capacity, placement, visit, then per (flow, variable) the PS
    coupling / source / sink / conservation / ordering rows.  The order is
    the row-by-row builder's (``tests/reference_milp.py``) and is pinned:
    among equally cheap optima HiGHS's answer depends on it.

    **ST** (``fixed_placement`` is None) solves it as a MILP.  **TE** is
    the same arrays with every ``P`` column pinned to the given placement
    (1 at the owner, 0 elsewhere) and no column integer: an LP whose
    optimum is Table 2's with ``P`` a constant.  A variable whose owner is
    not in ``stateful_switches`` has no column to pin to 1, so its
    placement row makes the program infeasible.
    """

    def __init__(self, inputs: PlacementInputs, fixed_placement: dict | None = None):
        self.inputs = inputs
        self.fixed_placement = (
            dict(fixed_placement) if fixed_placement is not None else None
        )
        self.model = Model("snap-st" if fixed_placement is None else "snap-te")
        if fixed_placement is not None:
            missing = [s for s in inputs.state_vars if s not in fixed_placement]
            if missing:
                raise PlacementError(f"fixed placement missing variables {missing}")
        self._build()
        if fixed_placement is not None:
            self._pin_placement()

    def _build(self) -> None:
        inputs = self.inputs
        model = self.model
        tail, head = inputs.link_src, inputs.link_dst
        state_vars, switches, flows, links = (
            inputs.state_vars, inputs.stateful_switches, inputs.flows, inputs.links
        )
        rank = inputs.switch_rank
        S, K = len(state_vars), len(switches)
        k = np.arange(K)
        inner, on_switch = ~inputs.is_port, rank >= 0
        mask, item = inputs.mask, inputs.state_id

        # -- columns ----------------------------------------------------------
        # P[s, n]: the (state x switch) table.
        first = model.add_vars(
            S * K, 0.0, 1.0, integer=True,
            name=lambda i: f"P[{state_vars[i // K]},{switches[i % K]}]",
        )
        P = self._place_index = first + np.arange(S * K).reshape(S, K)

        # R[f, l]: one column per set bit of the mask, flow-major.
        f, l = np.nonzero(mask)
        self._route_flow, self._route_link = f, l
        first = model.add_vars(
            f.size, 0.0, 1.0, name=lambda i: f"R[{flows[f[i]]},{links[l[i]]}]"
        )
        self._routes = slice(first, first + f.size)
        r = np.arange(first, first + f.size)
        #: (flow x link) -> routing column, -1 where the flow may not use it.
        self.route_index = np.full(mask.shape, -1, dtype=np.intp)
        self.route_index[f, l] = r

        # The sorted (flow, variable) ``pairs``, and the ``orderings``
        # (pair, later variable) for the dependencies (s, t) a flow must honour.
        pairs, orderings = [], []
        for i, needs in enumerate(inputs.ps_vars[flow] for flow in flows):
            position = {item[s]: len(pairs) + j for j, s in enumerate(needs)}
            pairs += [(i, item[s]) for s in needs]
            orderings += [
                (position[item[s]], item[t])
                for s, t in inputs.dep_pairs if s in needs and t in needs
            ]
        pflow, pitem = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        opair, later = np.array(orderings, dtype=np.intp).reshape(-1, 2).T

        # PS[s, f, l]: a pair's columns mirror its flow's R columns.
        def ps_name(i):
            # Recomputed per call: a name is for a message, and the model
            # should not keep per-column arrays alive for it.
            q, ql = np.nonzero(mask[pflow])
            return f"PS[{state_vars[pitem[q[i]]]},{flows[pflow[q[i]]]},{links[ql[i]]}]"

        q, ql = np.nonzero(mask[pflow])
        ps = np.arange(q.size) + model.add_vars(q.size, 0.0, 1.0, name=ps_name)
        ps_index = np.full((pflow.size, len(links)), -1, dtype=np.intp)
        ps_index[q, ql] = ps

        # -- rows ---------------------------------------------------------------
        rows = _Rows()
        key = rows.key

        # Table 2, left column.  Per flow: the source emits all of it and
        # takes none back, the sink absorbs all and emits none ...
        a, b = tail[l], head[l]
        ends = [
            (a, inputs.flow_src, 1.0), (b, inputs.flow_src, 0.0),
            (b, inputs.flow_dst, 1.0), (a, inputs.flow_dst, 0.0),
        ]
        for kind, (end, terminal, rhs) in enumerate(ends):
            rows.add(key(ROUTING, np.arange(len(flows)), kind), rhs, rhs)
            at = end == terminal[f]
            rows.put(key(ROUTING, f[at], kind), r[at], 1.0)
        # ... and per inner node, conservation (if it has a usable edge),
        # then visit-at-most-once (if it has an in-edge).
        has_in = np.zeros((len(flows), len(inputs.nodes)), dtype=bool)
        has_out = np.zeros_like(has_in)
        has_in[f, b] = has_out[f, a] = True
        has_edge = has_in | has_out
        cf, cn = np.nonzero(inner & has_edge)
        rows.add(key(ROUTING, cf, 4, 2 * cn), 0.0, 0.0)
        vf, vn = np.nonzero(inner & has_in)
        rows.add(key(ROUTING, vf, 4, 2 * vn + 1), -np.inf, 1.0)
        into, out_of = inner[b], inner[a]
        rows.put(key(ROUTING, f[into], 4, 2 * b[into]), r[into], 1.0)
        rows.put(key(ROUTING, f[out_of], 4, 2 * a[out_of]), r[out_of], -1.0)
        rows.put(key(ROUTING, f[into], 4, 2 * b[into] + 1), r[into], 1.0)

        # Link capacity: sum_uv d_uv R[uv, ij] <= c_ij.
        capped = mask.any(axis=0) & np.isfinite(inputs.capacity)
        rows.add(key(CAPACITY, np.nonzero(capped)[0]), -np.inf, inputs.capacity[capped])
        on = capped[l]
        rows.put(key(CAPACITY, l[on]), r[on], inputs.demand_vector()[f[on]])

        # Table 2, right column: each s on exactly one switch.
        rows.add(key(PLACEMENT, 0, 0, np.arange(S)), 1.0, 1.0)
        rows.put(key(PLACEMENT, 0, 0, np.repeat(np.arange(S), K)), P.ravel(), 1.0)
        # Tied variables share a switch: P[s, n] - P[t, n] = 0.
        tied = np.array(
            [(item[s], item[t]) for s, t in inputs.tied_pairs], dtype=np.intp
        ).reshape(-1, 2)
        every = key(PLACEMENT, 1, 0, np.arange(len(tied) * K))
        rows.add(every, 0.0, 0.0)
        rows.put(every, P[tied[:, 0]].ravel(), 1.0)
        rows.put(every, P[tied[:, 1]].ravel(), -1.0)
        # Optional switch-memory budget (§7.3 extension).
        budgets = [
            (inputs.switch_id[n], float(capacity))
            for n, capacity in inputs.state_capacity.items()
            if n in inputs.switch_id
        ]
        hosts = np.array([n for n, _ in budgets], dtype=np.intp)
        rows.add(
            key(PLACEMENT, 2, 0, np.arange(hosts.size)),
            -np.inf, np.array([capacity for _, capacity in budgets]),
        )
        rows.put(
            key(PLACEMENT, 2, 0, np.repeat(np.arange(hosts.size), S)),
            P[:, hosts].T.ravel(), 1.0,
        )

        # Flows visit the switches of the variables they need:
        # sum_i R[uv, i->n] >= P[s, n], per (flow, s) a row per stateful switch.
        every = key(VISIT, np.repeat(np.arange(pflow.size), K), 0, np.tile(k, pflow.size))
        rows.add(every, 0.0, np.inf)
        rows.put(every, P[pitem].ravel(), -1.0)
        v, vl = np.nonzero(mask[pflow] & on_switch[head])
        rows.put(key(VISIT, v, 0, rank[head[vl]]), self.route_index[pflow[v], vl], 1.0)

        # "Passed s", per (flow, s).  PS <= R, link for link ...
        a, b = tail[ql], head[ql]
        coupling = key(PASSED, q, 0, ql)
        rows.add(coupling, -np.inf, 0.0)
        rows.put(coupling, ps, 1.0)
        rows.put(coupling, self.route_index[pflow[q], ql], -1.0)
        # ... nothing has passed s leaving the source, everything has
        # reaching the sink ...
        rows.add(key(PASSED, np.arange(pflow.size), 1), 0.0, 0.0)
        rows.add(key(PASSED, np.arange(pflow.size), 2), 1.0, 1.0)
        at = a == inputs.flow_src[pflow[q]]
        rows.put(key(PASSED, q[at], 1), ps[at], 1.0)
        at = b == inputs.flow_dst[pflow[q]]
        rows.put(key(PASSED, q[at], 2), ps[at], 1.0)
        # ... conservation at inner nodes, growing by P[s, n] at s's switch
        # (a term of every stateful switch's row, edges or not) ...
        cq, cn = np.nonzero(inner & (has_edge[pflow] | on_switch))
        rows.add(key(PASSED, cq, 3, cn), 0.0, 0.0)
        out_of, into = inner[a], inner[b]
        rows.put(key(PASSED, q[out_of], 3, a[out_of]), ps[out_of], 1.0)
        rows.put(key(PASSED, q[into], 3, b[into]), ps[into], -1.0)
        at = on_switch[cn]
        rows.put(key(PASSED, cq[at], 3, cn[at]), P[pitem[cq[at]], rank[cn[at]]], -1.0)
        # ... and ordering: for (s, t) in dep with t needed, at every
        # stateful switch P[s, n] + sum_i PS[s, uv, i->n] >= P[t, n].
        every = key(PASSED, np.repeat(opair, K), 4, (later[:, None] * K + k).ravel())
        rows.add(every, 0.0, np.inf)
        rows.put(every, P[pitem[opair]].ravel(), 1.0)
        rows.put(every, P[later].ravel(), -1.0)
        o, ol = np.nonzero(mask[pflow[opair]] & on_switch[head])
        rows.put(
            key(PASSED, opair[o], 4, later[o] * K + rank[head[ol]]),
            ps_index[opair[o], ol], 1.0,
        )

        rows.emit(model)
        # Objective: total link utilization sum R[uv, ij] * d_uv / c_ij
        # (an uncapacitated link costs nothing).
        model.cost[self._routes] = inputs.demand_vector()[f] / inputs.capacity[l]

    def _pin_placement(self) -> None:
        """TE: fix every ``P[s, n]`` to the given placement; an LP remains."""
        inputs, model = self.inputs, self.model
        pinned = np.zeros(self._place_index.shape)
        for s, i in inputs.state_id.items():
            k = inputs.switch_id.get(self.fixed_placement[s])
            if k is not None:
                pinned[i, k] = 1.0
        model.lb[self._place_index] = model.ub[self._place_index] = pinned
        model.integrality[:] = 0

    # -- columns and link failures --------------------------------------------

    def route_var(self, flow, link):
        """The column of ``R[flow, link]``; None if the flow may not use the link."""
        inputs = self.inputs
        if link not in inputs.link_id:
            return None
        col = int(self.route_index[inputs.flows.index(flow), inputs.link_id[link]])
        return col if col >= 0 else None

    def fail_link(self, a: str, b: str) -> None:
        """Take a link out of service by pinning its routing columns, both
        directions, to 0 (``PS`` follows through ``PS <= R``)."""
        for link in ((a, b), (b, a)):
            index = self.inputs.link_id.get(link)
            if index is not None:
                cols = self.route_index[:, index]
                cols = cols[cols >= 0]
                self.model.lb[cols] = self.model.ub[cols] = 0.0

    # -- solving -----------------------------------------------------------------

    def solve(self, time_limit: float | None = None, mip_rel_gap: float | None = None):
        solution = self.model.solve(time_limit=time_limit, mip_rel_gap=mip_rel_gap)
        return PlacementSolution(
            placement=self._extract_placement(solution),
            routing=self._extract_routing(solution),
            objective=solution.objective,
            inputs=self.inputs,
            solver={key: getattr(solution, key) for key in (
                "status", "message", "mip_gap", "nodes", "lp_iterations")},
        )

    def _extract_placement(self, solution: Solution) -> dict:
        if self.fixed_placement is not None:
            return dict(self.fixed_placement)
        inputs = self.inputs
        chosen = solution.value_array()[self._place_index]
        placement = {}
        for s, values in zip(inputs.state_vars, chosen):
            if values.size == 0 or values.max() < 0.5:
                raise PlacementError(f"no placement chosen for {s!r}")
            placement[s] = inputs.stateful_switches[int(values.argmax())]
        return placement

    def _extract_routing(self, solution: Solution) -> dict:
        inputs = self.inputs
        values = solution.value_array()[self._routes]
        used = np.nonzero(values > 1e-6)[0]
        routing: dict = {flow: {} for flow in inputs.flows}
        for f, l, value in zip(
            self._route_flow[used].tolist(),
            self._route_link[used].tolist(),
            values[used].tolist(),
        ):
            routing[inputs.flows[f]][inputs.links[l]] = value
        return routing

    def stats(self) -> dict:
        """The program's size, as a snapshot's ``model_stats`` records it."""
        return {
            "variables": self.model.num_vars,
            "integer_variables": self.model.num_integer_vars,
            "constraints": self.model.num_constraints,
        }


class PlacementSolution:
    """Placement + per-flow link fractions; see results.py for paths."""

    def __init__(self, placement: dict, routing: dict, objective: float, inputs,
                 solver: dict):
        self.placement = placement
        self.routing = routing
        self.objective = objective
        self.inputs = inputs
        #: what the solver said about this answer (``status`` 0 optimal,
        #: 1 a time-limited incumbent; ``message``; ``mip_gap`` and
        #: ``nodes``, None for an LP; ``lp_iterations``).
        self.solver = solver

    def __repr__(self):
        return (
            f"PlacementSolution(placement={self.placement}, "
            f"objective={self.objective:.4f}, flows={len(self.routing)})"
        )


def build_placement_model(
    topology: Topology, demands: dict, mapping: PacketStateMapping,
    dependencies: DependencyInfo, stateful_switches=None, state_capacity=None,
) -> PlacementModel:
    """Phase P4 for the ST problem: construct (but do not solve) the MILP."""
    return PlacementModel(PlacementInputs(
        topology, demands, mapping, dependencies, stateful_switches,
        state_capacity=state_capacity,
    ))
