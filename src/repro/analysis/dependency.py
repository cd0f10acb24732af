"""State dependency analysis (§4.1, Appendix B Figure 14).

``st-dep`` collects ordering constraints between state variables::

    st-dep(p + q)             = st-dep(p) ∪ st-dep(q)
    st-dep(p ; q)             = (r(p) × w(q)) ∪ st-dep(p) ∪ st-dep(q)
    st-dep(if a then p else q)= (r(a) × (w(p) ∪ w(q)))
                                ∪ st-dep(p) ∪ st-dep(q)
    st-dep(atomic(p))         = (r(p) ∪ w(p)) × (r(p) ∪ w(p))
    st-dep(p)                 = ∅ otherwise

An edge ``s -> t`` means "t is written after s is read": any realization
must route packets through s's switch before t's.  The graph's SCC
condensation yields (i) the total state-variable order used by the xFDD
(§4.2), (ii) the co-location ``groups`` (SCCs of more than one variable)
and their ``tied`` pairs, and (iii) the ``dep`` ordering pairs consumed by
the MILP (§4.4).

:class:`DependencySlicer` computes st-dep together with r(p) and w(p),
memoised per subtree; ``tests/reference_dependency.py`` transcribes the
equations above as the plain recursion the suite holds it equal to.
"""

from __future__ import annotations

from typing import NamedTuple

import networkx as nx

from repro.lang import ast
from repro.lang.fingerprint import fingerprint


class DependencySlice(NamedTuple):
    """One subtree's contribution to the dependency analysis."""

    edges: frozenset
    reads: frozenset
    writes: frozenset


_EMPTY_SLICE = DependencySlice(frozenset(), frozenset(), frozenset())


class DependencySlicer:
    """Fingerprint-memoized ``st-dep`` slices for incremental compilation.

    ``slice(p)`` returns the ``(edges, reads, writes)`` triple that
    st-dep, r and w derive for ``p`` (the plain recursion is
    ``tests/reference_dependency.py``), memoizing every composite subtree
    by its structural fingerprint.  Across ``update_policy``
    generations only the *dirty* subtrees are revisited; retained slices
    merge for free (the recursion unions child results, and unchanged
    children are O(1) lookups).  The memo is pure — slices depend only on
    the subtree's structure — so entries never invalidate; the owning
    session bounds its growth by resetting with the rest of its caches.
    """

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self._memo)

    def slice(self, policy: ast.Policy) -> DependencySlice:
        if not isinstance(policy, ast.COMPOSITE):
            if isinstance(policy, ast.StateTest):
                return DependencySlice(
                    frozenset(), frozenset((policy.var,)), frozenset()
                )
            if isinstance(policy, (ast.StateMod, ast.StateIncr, ast.StateDecr)):
                return DependencySlice(
                    frozenset(), frozenset(), frozenset((policy.var,))
                )
            return _EMPTY_SLICE
        key = fingerprint(policy)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._slice_composite(policy)
        self._memo[key] = result
        return result

    def _slice_composite(self, policy) -> DependencySlice:
        # Figure 14 case by case; reads/writes are r(p) and w(p).
        if isinstance(policy, ast.Not):
            return self.slice(policy.pred)
        if isinstance(policy, (ast.And, ast.Or, ast.Parallel)):
            left, right = self.slice(policy.left), self.slice(policy.right)
            return DependencySlice(
                left.edges | right.edges,
                left.reads | right.reads,
                left.writes | right.writes,
            )
        if isinstance(policy, ast.Seq):
            left, right = self.slice(policy.left), self.slice(policy.right)
            crossed = frozenset(
                (s, t) for s in left.reads for t in right.writes
            )
            return DependencySlice(
                crossed | left.edges | right.edges,
                left.reads | right.reads,
                left.writes | right.writes,
            )
        if isinstance(policy, ast.If):
            pred = self.slice(policy.pred)
            then = self.slice(policy.then)
            orelse = self.slice(policy.orelse)
            written = then.writes | orelse.writes
            crossed = frozenset((s, t) for s in pred.reads for t in written)
            return DependencySlice(
                crossed | then.edges | orelse.edges,
                pred.reads | then.reads | orelse.reads,
                written,
            )
        # Atomic: full cross product over everything the body touches.
        body = self.slice(policy.body)
        touched = body.reads | body.writes
        crossed = frozenset((s, t) for s in touched for t in touched)
        return DependencySlice(crossed | body.edges, body.reads, body.writes)


class DependencyInfo:
    """Results of the dependency analysis.

    Attributes:
        graph:      the raw dependency digraph (networkx DiGraph).
        state_rank: variable -> SCC rank in topological order; drives the
                    xFDD state-test order.
        order:      all state variables sorted by (rank, name).
        groups:     sorted tuple of frozensets — the SCCs of more than
                    one variable, each co-located on one switch (§4.4).
        tied:       frozenset of frozensets — every pair within a group
                    (the MILP's ``P[s, n] = P[t, n]`` rows).
        dep:        frozenset of (s, t) pairs — s's switch must precede
                    t's on any flow needing both (cross-SCC edges).
    """

    def __init__(self, graph: nx.DiGraph):
        self.graph = graph
        sccs = list(nx.strongly_connected_components(graph))
        condensation = nx.condensation(graph, scc=sccs)
        self.state_rank: dict[str, int] = {}
        for rank, scc_index in enumerate(nx.topological_sort(condensation)):
            for var in condensation.nodes[scc_index]["members"]:
                self.state_rank[var] = rank
        self.order = sorted(self.state_rank, key=lambda v: (self.state_rank[v], v))
        self.groups = tuple(sorted(
            (frozenset(scc) for scc in sccs if len(scc) > 1), key=sorted
        ))
        self.tied = frozenset(
            frozenset((a, b))
            for group in self.groups
            for a in group
            for b in group
            if a < b
        )
        dep = set()
        for s, t in graph.edges:
            if s != t and self.state_rank[s] != self.state_rank[t]:
                dep.add((s, t))
        self.dep = frozenset(dep)

    def __repr__(self):
        return (
            f"DependencyInfo(order={self.order}, tied={sorted(map(sorted, self.tied))}, "
            f"dep={sorted(self.dep)})"
        )


def analyze_dependencies(
    policy: ast.Policy, slicer: DependencySlicer | None = None
) -> DependencyInfo:
    """Run st-dep and condense the resulting graph.

    The edges come from ``slicer``'s fingerprint-memoized per-subtree
    slices (a session's slicer makes unchanged subtrees across
    recompilations O(1) lookups), or from a fresh slicer when none is
    given.
    """
    if slicer is None:
        slicer = DependencySlicer()
    sliced = slicer.slice(policy)
    # Sorted, not set order: the ranks of variables with no dependency
    # between them follow the insertion order.
    graph = nx.DiGraph()
    graph.add_nodes_from(sorted(sliced.reads | sliced.writes))
    graph.add_edges_from(sorted(sliced.edges))
    return DependencyInfo(graph)
