"""The ST placement by certified shortest walks (§4.4, Table 2 searched).

Drop Table 2's capacity rows and its visit-each-node-once rule and what
is left is a relaxation: each flow pays ``d_uv`` times its cheapest
``1/c`` walk from its ingress switch through the owners of the state it
needs, in a dependency-consistent order, to its egress switch.  Its
optimum is a lower bound on the MILP's.  :class:`WalkSearch` finds a
placement that attains it, exactly, and hands it to
:func:`~repro.milp.te.shortest_walk_routing`.  When that certificate holds
(walks simple, within capacity, in the cheapest order, owners stateful)
and the walks cost the bound, they are feasible for Table 2 at a lower
bound of its optimum, so they are optimal; otherwise the reason is
returned and the caller solves the MILP
(:meth:`~repro.milp.backends.MilpBackend.solve_st`).

**The search.**  Variables closed under ``dependencies.tied`` form a
*group*, owned by one stateful switch (its *label*).  A flow that needs
groups ``G`` costs ``d_uv`` times the cheapest chain ingress → ``G`` in
one of its dependency-consistent orders → egress over the all-pairs
``1/c`` distance table.  A stop every order shares adds unary terms
(ingress → first, last → egress) and pair terms (consecutive groups);
where the orders differ, one *order factor* — a table over the groups
whose order varies and the shared stops around them — takes the minimum
over those orders.  Flows with the same orders and ends are one term.
Groups that some flow needs together form a *component*, minimised on
its own by variable elimination.  No table may exceed
:data:`SEARCH_LIMIT` entries (an order factor's counted once per order)
and no flow more than :data:`ORDER_LIMIT` orders: past either the
search answers ``"search too large"``.

**Tie-break.**  Among label tuples whose cost is within
``ORDER_TOLERANCE`` (relative) of the component's minimum, take the one
with the most groups owned by a switch with an attached OBS port, then
the smallest owner ranks in ``Topology.switches()`` order over the
groups in sorted order.  A group no flow needs falls under the same
rule: it goes to the first stateful switch with a port.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.milp.placement import PlacementInputs
from repro.milp.te import ORDER_TOLERANCE, shortest_walk_routing

#: Entries of the largest table the search may build.
SEARCH_LIMIT = 1 << 21
#: Dependency-consistent orders one flow's groups may take.
ORDER_LIMIT = 720


class _TooLarge(Exception):
    """A table or an order set past the search's bounds."""


def distance_table(graph) -> np.ndarray:
    """All-pairs cheapest ``1/c`` costs between switches, in node order."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    dist = np.full((len(index), len(index)), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b, capacity in graph.edges(data="capacity"):
        dist[index[a], index[b]] = 1.0 / capacity
    for k in range(len(index)):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


class WalkSearch:
    """One ST problem: the distance table at construction (P4), the
    minimisation and the certificate in :meth:`run` (P5)."""

    def __init__(self, topology, demands, mapping, dependencies, stateful_switches=None):
        self.args = (topology, demands, mapping, dependencies, stateful_switches)
        switches = topology.switches()
        self.index = {node: i for i, node in enumerate(switches)}
        self.dist = distance_table(topology.graph)
        allowed = set(switches if stateful_switches is None else stateful_switches)
        self.labels = [node for node in switches if node in allowed]

    def run(self):
        """``(solution, paths)`` of the certified optimum, or why not."""
        found = self.cheapest()
        if isinstance(found, str):
            return found
        placement, bound = found
        topology, demands, mapping, dependencies, stateful = self.args
        walk = shortest_walk_routing(
            topology, demands, mapping, dependencies, placement, stateful
        )
        if not isinstance(walk, str) and (
            walk[0].objective - bound > ORDER_TOLERANCE * walk[0].objective
        ):
            return "walk above the bound"
        return walk

    def cheapest(self):
        """``(placement, bound)``: the relaxation's argmin under the
        tie-break and its optimum, or the reason there is none."""
        topology, demands, mapping, dependencies, _ = self.args
        known = mapping.all_state_vars() | set(dependencies.order)
        groups = _closure(known, (pair for pair in dependencies.tied if pair <= known))
        if groups and not self.labels:
            return "owner outside stateful_switches"
        group_of = {s: g for g, members in enumerate(groups) for s in members}
        choice = {}
        try:
            terms = self._terms(demands, mapping, dependencies, group_of, len(groups))
            if isinstance(terms, str):
                return terms
            factors, bound = terms
            joined = (scope[i:i + 2] for scope, _, _ in factors for i in range(len(scope) - 1))
            for component in _closure(range(len(groups)), joined):
                labels, cost = _decide(factors, component)
                choice.update(labels)
                bound += cost
        except _TooLarge:
            return "search too large"
        if bound == np.inf:
            return "no path"
        placement = {s: self.labels[choice[group_of[s]]] for s in group_of}
        return placement, float(bound)

    def _terms(self, demands, mapping, dependencies, group_of, count):
        """``(factors, constant)``: the relaxation as ``(scope, cost,
        ports)`` tables over sorted group tuples, plus what stateless
        flows pay; or the reason it has none."""
        topology = self.args[0]
        rows = np.array([self.index[node] for node in self.labels], dtype=np.intp)
        dist = self.dist[rows][:, rows]
        attached = set(topology.ports.values())
        ports = np.array([float(node in attached) for node in self.labels])
        unary = np.zeros((count, len(self.labels)))
        pairs: dict = {}
        ordered: dict = {}
        constant = 0.0
        dep = sorted(dependencies.dep)
        for flow in PlacementInputs.flows_of(demands):
            u, v = flow
            if u == v or not {u, v} <= topology.ports.keys():
                return "malformed flow"
            demand = demands[flow]
            src, dst = self.index[topology.ports[u]], self.index[topology.ports[v]]
            needed = mapping.states_for(u, v)
            if not needed:
                constant += demand * self.dist[src, dst]
                continue
            before = {
                (group_of[s], group_of[t]) for s, t in dep if s in needed and t in needed
            }
            orders = _orders(sorted({group_of[s] for s in needed}), before)
            if not orders:
                return "inconsistent order"
            # The stops every order shares: a prefix and a suffix.
            first, n = orders[0], len(orders[0])
            head = tail = 0
            while head < n and all(o[head] == first[head] for o in orders):
                head += 1
            while head + tail < n and all(o[~tail] == first[~tail] for o in orders):
                tail += 1
            prefix, suffix = first[:head], first[n - tail:]
            if prefix:
                unary[prefix[0]] += demand * self.dist[src, rows]
            if suffix or head == n:
                unary[first[-1]] += demand * self.dist[rows, dst]
            for part in (prefix, suffix):
                for g, h in zip(part, part[1:]):
                    pairs[g, h] = pairs.get((g, h), 0.0) + demand
            if head < n:
                start = ("group", prefix[-1]) if prefix else ("switch", src)
                end = ("group", suffix[0]) if suffix else ("switch", dst)
                key = (tuple(o[head:n - tail] for o in orders), start, end)
                ordered[key] = ordered.get(key, 0.0) + demand
        factors = [((g,), unary[g], ports) for g in range(count)]
        for (g, h), weight in sorted(pairs.items()):
            if g < h:
                factors.append(((g, h), weight * dist, None))
            else:
                factors.append(((h, g), weight * dist.T, None))
        by_scope: dict = {}
        for (orders, start, end), demand in ordered.items():
            scope, table = self._order_factor(orders, start, end, dist, rows)
            by_scope[scope] = by_scope.get(scope, 0.0) + demand * table
        factors += [(scope, table, None) for scope, table in by_scope.items()]
        return factors, constant

    def _order_factor(self, orders, start, end, dist, rows):
        """The order factor of ``orders`` between two stops: its scope and,
        per label tuple, the cheapest chain over those orders."""
        scope = set(orders[0])
        scope.update(stop for kind, stop in (start, end) if kind == "group")
        scope = tuple(sorted(scope))
        if len(orders) * len(self.labels) ** len(scope) > SEARCH_LIMIT:
            raise _TooLarge

        def leg(a, b):
            if a[0] == "switch":
                return _spread(self.dist[a[1], rows], (b[1],), scope)
            if b[0] == "switch":
                return _spread(self.dist[rows, b[1]], (a[1],), scope)
            return _spread(dist, (a[1], b[1]), scope)

        best = None
        for order in orders:
            stops = [start, *(("group", g) for g in order), end]
            cost = sum(leg(a, b) for a, b in zip(stops, stops[1:]))
            best = cost if best is None else np.minimum(best, cost)
        return scope, best


def _closure(nodes, edges) -> list:
    """``nodes`` joined by ``edges``: the components, each sorted, in
    sorted order."""
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return sorted(sorted(component) for component in nx.connected_components(graph))


def _orders(groups, before) -> list:
    """The orders of ``groups`` that put ``a`` before ``b`` for every
    ``(a, b)`` in ``before``, in lexicographic order."""
    needs = {g: {a for a, b in before if b == g} for g in groups}
    found: list = []

    def grow(prefix, rest):
        if not rest:
            found.append(tuple(prefix))
            if len(found) > ORDER_LIMIT:
                raise _TooLarge
            return
        for g in rest:
            if needs[g] <= set(prefix):
                grow([*prefix, g], [h for h in rest if h != g])

    grow([], list(groups))
    return found


def _decide(factors, component) -> tuple:
    """``({group: label}, cost)``: the component's minimum and the label
    tuple the tie-break picks, one group at a time in sorted order."""
    inside = set(component)
    factors = [f for f in factors if f[0][0] in inside]
    total, _ = _eliminate(factors, {}, None, 0.0)
    window = ORDER_TOLERANCE * abs(total) if total < np.inf else 0.0
    fixed: dict = {}
    for g in component:
        cost, ports = _eliminate(factors, fixed, g, window)
        near = cost <= max(total, cost.min()) + window
        fixed[g] = int(np.argmax(np.where(near, ports, -np.inf)))
    return fixed, total


def _eliminate(factors, fixed, keep, window) -> tuple:
    """Minimise the factors' sum over every group but ``keep`` with the
    groups in ``fixed`` held at their labels: ``(cost, ports)``, arrays
    over ``keep``'s labels (scalars when ``keep`` is None).  Each step
    keeps, per remaining labels, the most ports among the choices within
    ``window`` of the cheapest."""
    work = []
    for scope, cost, ports in factors:
        if fixed:
            index = tuple(fixed.get(g, slice(None)) for g in scope)
            cost = cost[index]
            ports = None if ports is None else ports[index]
            scope = tuple(g for g in scope if g not in fixed)
        work.append((scope, cost, ports))
    while True:
        left = {g for scope, _, _ in work for g in scope} - {keep}
        if not left:
            break
        union = {g: set().union(*(s for s, _, _ in work if g in s)) for g in left}
        group = min(left, key=lambda g: (len(union[g]), g))
        scope = tuple(sorted(union[group]))
        touching = [f for f in work if group in f[0]]
        if len(touching[0][1]) ** len(scope) > SEARCH_LIMIT:
            raise _TooLarge
        cost = sum(_spread(c, s, scope) for s, c, _ in touching)
        axis = scope.index(group)
        cheapest = cost.min(axis=axis)
        ports = [_spread(p, s, scope) for s, _, p in touching if p is not None]
        best = None
        if ports:
            near = cost <= np.expand_dims(cheapest, axis) + window
            best = np.where(near, sum(ports), -np.inf).max(axis=axis)
        rest = scope[:axis] + scope[axis + 1:]
        work = [f for f in work if group not in f[0]] + [(rest, cheapest, best)]
    shape = (() if keep is None else (-1,))
    cost = sum(np.reshape(c, shape) if s else c for s, c, _ in work)
    ports = sum(np.reshape(p, shape) if s else p for s, _, p in work if p is not None)
    return cost, ports


def _spread(array, dims, scope):
    """``array``, whose axes are the groups ``dims``, broadcastable over
    the axes of the sorted group tuple ``scope``."""
    order = sorted(range(len(dims)), key=lambda i: dims[i])
    array = np.transpose(array, order)
    shape = [1] * len(scope)
    for i, size in zip(sorted(scope.index(g) for g in dims), array.shape):
        shape[i] = size
    return array.reshape(shape)
