"""Packet-state mapping (§4.3).

"Traversing from d's root down to the action sets at d's leaves, we can
gather information associating each flow with the set of state variables
read or written."  A *flow* is a pair of OBS (ingress, egress) ports.

For every root-to-leaf path we compute:

* which ingress ports are compatible with the path's ``inport`` tests,
* which egress ports the leaf can emit to (the last ``outport <- v``
  assignment of each emitting action sequence),
* the state variables read (state tests on the path) and written (state
  actions in the leaf).

Egress attribution:

* an emitting leaf attributes the path's states to the egresses its
  sequences assign (``outport <- v``);
* an emitting sequence with *no* outport assignment has an unknown egress,
  so its states are attributed to every egress (conservative);
* a pure-drop path (packet dies, possibly after state reads/writes) only
  needs *some* flow (u, v) whose S_uv covers its states — the dropped
  packet rides that flow's path to the state switch and dies there
  (Appendix D's stuck-packet technique).  Only when no emitting path
  provides such a flow do we fall back to attributing the drop-path's
  states to every egress.  Without this distinction, programs like the
  stateful firewall (which read state and drop) would force *every* flow
  through the state switch and often make placement infeasible.

Fresh packets enter the OBS with no ``outport``, so a path that requires
a *positive* outport test is unreachable and is skipped.
"""

from __future__ import annotations

from repro.lang.values import matches
from repro.xfdd.actions import DropAction, FieldAssign
from repro.xfdd.diagram import XFDD, Leaf
from repro.xfdd.tests import FieldValueTest, StateVarTest

INPORT = "inport"
OUTPORT = "outport"


class PacketStateMapping:
    """S_uv: state variables needed by each OBS flow (Table 1 input)."""

    def __init__(self, needed: dict, inports, outports):
        self._needed = {pair: frozenset(vars_) for pair, vars_ in needed.items()}
        self.inports = tuple(inports)
        self.outports = tuple(outports)

    def states_for(self, u, v) -> frozenset:
        return self._needed.get((u, v), frozenset())

    def pairs_needing(self, var: str):
        """All (u, v) flows whose S_uv contains ``var``."""
        return [pair for pair, vars_ in self._needed.items() if var in vars_]

    def items(self):
        return self._needed.items()

    def all_state_vars(self) -> frozenset:
        out = frozenset()
        for vars_ in self._needed.values():
            out |= vars_
        return out

    def __repr__(self):
        rows = ", ".join(
            f"{u}->{v}:{sorted(vars_)}" for (u, v), vars_ in sorted(self._needed.items())
        )
        return f"PacketStateMapping({rows})"


def _leaf_targets(leaf):
    """Outport values the leaf's emitting sequences assign (empty for a
    pure-drop leaf), or ``None`` when one of them assigns none: its
    egress is unknown."""
    targets = set()
    for seq in leaf.seqs:
        if any(isinstance(action, DropAction) for action in seq):
            continue
        assigned = None
        for action in seq:
            if isinstance(action, FieldAssign) and action.field == OUTPORT:
                assigned = action.value
        if assigned is None:
            return None
        targets.add(assigned)
    return frozenset(targets)


def path_summaries(xfdd: XFDD, memo: dict | None = None) -> frozenset:
    """Port-independent digest of every reachable root-to-leaf path.

    Returns a frozenset of ``(constraints, states, targets)`` triples:
    ``constraints`` is a frozenset of ``(value, positive)`` inport tests
    taken along the path, ``states`` the variables its tests read and
    its leaf writes, ``targets`` the leaf's :func:`_leaf_targets`.
    Paths through a *positive* outport test are pruned (fresh packets
    carry no outport), and paths that attribute the same states to the
    same flows collapse into one triple — which is both the speedup (the
    diagram is walked as a DAG, one visit per node, over sets that stay
    a few dozen triples however many leaves there are) and the
    memoization hook: the summary of a shared sub-diagram is computed
    once and, with a caller-supplied ``memo`` keyed by node identity,
    survives across compilations that splice the same interned subtrees
    (node identity is pinned by the owning
    :class:`~repro.xfdd.diagram.DiagramFactory`).
    """
    if memo is None:
        memo = {}

    def summarize(node) -> frozenset:
        key = id(node)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(node, Leaf):
            result = frozenset(
                ((frozenset(), node.written_state_vars(), _leaf_targets(node)),)
            )
        else:
            hi = summarize(node.hi)
            lo = summarize(node.lo)
            test = node.test
            if isinstance(test, StateVarTest):
                # Both branches read the variable: deciding the test
                # requires it regardless of which way the packet goes.
                read = frozenset((test.var,))
                result = frozenset((c, s | read, t) for c, s, t in hi | lo)
            elif isinstance(test, FieldValueTest) and test.field == INPORT:
                result = frozenset(
                    (c | {(test.value, positive)}, s, t)
                    for side, positive in ((hi, True), (lo, False))
                    for c, s, t in side
                )
            elif isinstance(test, FieldValueTest) and test.field == OUTPORT:
                result = lo  # positive outport test: unreachable
            else:
                result = hi | lo
        memo[key] = result
        return result

    return summarize(xfdd)


def _constrained_inports(constraints, inports):
    """Ingress ports compatible with a summary's inport constraints."""
    allowed = set(inports)
    for value, positive in constraints:
        allowed = {p for p in allowed if matches(p, value) == positive}
    return allowed


def packet_state_mapping(
    xfdd: XFDD, inports, outports, memo: dict | None = None
) -> PacketStateMapping:
    """Compute S_uv for every OBS port pair from the xFDD's path summaries.

    A fold over :func:`path_summaries`: each triple attributes its states
    to (its sources) x (its targets), pure-drop triples deferred (see
    module docstring).  Attribution and the deferred fallback are
    idempotent set unions into per-pair frozensets, so neither the order
    the triples arrive in nor how many paths collapsed into one can
    change the result (``tests/reference_packet_state.py`` enumerates
    the paths instead; the suite holds the two equal).  ``memo``
    (optional) is whatever a long-lived session lets this function keep:
    sub-diagram summaries by node identity, and the finished mapping by
    ``(root identity, ports)`` — a recompilation that splices the same
    interned subtrees re-summarises only the spine above the edit, and
    one that rebuilds the same root pays a lookup.
    """
    if memo is None:
        memo = {}
    inports, outports = tuple(inports), tuple(outports)
    done = memo.get((id(xfdd), inports, outports))
    if done is not None:
        return done
    needed: dict = {}
    everywhere = frozenset(outports)
    deferred: list = []  # (sources, states) of pure-drop summaries
    sources_of: dict = {}

    def attribute(sources, targets, states):
        for u in sources:
            for v in targets:
                if u != v:
                    needed[(u, v)] = needed.get((u, v), frozenset()) | states

    for constraints, states, targets in path_summaries(xfdd, memo):
        if not states:
            continue
        sources = sources_of.get(constraints)
        if sources is None:
            sources = sources_of[constraints] = _constrained_inports(
                constraints, inports
            )
        reach = everywhere if targets is None else targets & everywhere
        if reach:
            attribute(sources, reach, states)
        else:
            # Pure-drop path: defer — it only needs an existing flow to
            # ride to the state switch (see module docstring).
            deferred.append((sources, states))

    for sources, states in deferred:
        for u in sources:
            for s in states:
                covered = any(
                    s in needed.get((u, v), ()) for v in outports if v != u
                )
                if not covered:
                    attribute((u,), everywhere, frozenset((s,)))
    # Sorted pairs: the dict's insertion order — which downstream model
    # construction sees — must not depend on set-hash order.
    done = memo[(id(xfdd), inports, outports)] = PacketStateMapping(
        dict(sorted(needed.items())), inports, outports
    )
    return done
