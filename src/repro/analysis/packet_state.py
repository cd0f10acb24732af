"""Packet-state mapping (§4.3).

"Traversing from d's root down to the action sets at d's leaves, we can
gather information associating each flow with the set of state variables
read or written."  A *flow* is a pair of OBS (ingress, egress) ports.

The traversal is :func:`repro.xfdd.paths.feasible_paths`, one depth-first
walk over the paths a fresh packet can take.  Each path gives:

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

Fresh packets enter the OBS with no ``outport``, so the walk never enters
the arm of a *positive* outport test, nor an arm the path's earlier
tests decide.
"""

from __future__ import annotations

from repro.xfdd.actions import DropAction, FieldAssign
from repro.xfdd.diagram import XFDD
from repro.xfdd.paths import OUTPORT, feasible_paths


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


def packet_state_mapping(
    xfdd: XFDD, inports, outports, memo: dict | None = None
) -> PacketStateMapping:
    """Compute S_uv for every OBS port pair from the xFDD's feasible paths.

    Each ``(sources, reads, leaf)`` the walk yields attributes its states
    to (its sources) x (its leaf's targets), pure-drop paths deferred
    (see module docstring).  Attribution and the deferred
    fallback are idempotent set unions into per-pair frozensets, so the
    order the paths arrive in cannot change the result
    (``tests/reference_packet_state.py`` enumerates every path without
    pruning; the suite holds the two equal).  ``memo`` (optional) keeps
    finished mappings by ``(root identity, ports)``: sound while the
    caller pins the roots, as a :class:`~repro.xfdd.incremental
    .CompileSession`'s factory does until its next reset, so a
    recompilation that rebuilds the same root pays a lookup.
    """
    inports, outports = tuple(inports), tuple(outports)
    key = (id(xfdd), inports, outports)
    if memo is not None and key in memo:
        return memo[key]
    needed: dict = {}
    everywhere = frozenset(outports)
    deferred: list = []  # (sources, states) of pure-drop paths
    targets_of: dict = {}

    def attribute(sources, targets, states):
        for u in sources:
            for v in targets:
                if u != v:
                    needed[(u, v)] = needed.get((u, v), frozenset()) | states

    for sources, reads, leaf in feasible_paths(xfdd, inports):
        states = reads | leaf.written_state_vars()
        if not states or not sources:
            continue
        if leaf not in targets_of:  # few leaves, many paths to each
            targets_of[leaf] = _leaf_targets(leaf)
        targets = targets_of[leaf]
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
    mapping = PacketStateMapping(dict(sorted(needed.items())), inports, outports)
    if memo is not None:
        memo[key] = mapping
    return mapping
