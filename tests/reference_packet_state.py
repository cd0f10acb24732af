"""Reference packet-state mapping: explicit root-to-leaf path enumeration.

This is the S_uv computation ``repro.analysis.packet_state`` ran before
it walked the xFDD's feasible paths.  It is kept, unchanged in behaviour
and self-contained (it shares no helper with the production walk), as
the oracle ``tests/test_packet_state_equivalence.py`` holds
:func:`~repro.analysis.packet_state.packet_state_mapping` equal to, pair
for pair.  It enumerates every path and prunes only a positive
``outport`` test; the production walk also skips arms that earlier tests
on the path decide, which ``Composer.refine`` never builds —
``test_a_decided_arm_is_the_named_difference`` pins the one place the two
part.  Fine for the programs the suite compiles.
"""

from __future__ import annotations

from repro.analysis.packet_state import PacketStateMapping
from repro.lang.values import matches
from repro.xfdd.actions import DropAction, FieldAssign
from repro.xfdd.diagram import XFDD, iter_paths
from repro.xfdd.tests import FieldValueTest, StateVarTest

INPORT = "inport"
OUTPORT = "outport"


def _path_inports(path, inports):
    """Ingress ports compatible with the path's inport tests."""
    allowed = set(inports)
    for test, result in path:
        if isinstance(test, FieldValueTest) and test.field == INPORT:
            if result:
                allowed = {p for p in allowed if matches(p, test.value)}
            else:
                allowed = {p for p in allowed if not matches(p, test.value)}
    return allowed


def _path_reachable(path) -> bool:
    """False when the path needs a positive outport test (fresh packets
    carry no outport)."""
    for test, result in path:
        if isinstance(test, FieldValueTest) and test.field == OUTPORT and result:
            return False
    return True


def _path_reads(path) -> frozenset:
    return frozenset(
        test.var for test, _ in path if isinstance(test, StateVarTest)
    )


def _leaf_egresses(leaf, outports):
    """(egress ports, needs_all) for the leaf's emitting sequences."""
    egresses = set()
    unknown = False
    for seq in leaf.seqs:
        if any(isinstance(action, DropAction) for action in seq):
            continue
        assigned = None
        for action in seq:
            if isinstance(action, FieldAssign) and action.field == OUTPORT:
                assigned = action.value
        if assigned is None:
            unknown = True
        else:
            egresses.add(assigned)
    return egresses & set(outports), unknown


def packet_state_mapping_paths(xfdd: XFDD, inports, outports) -> PacketStateMapping:
    """S_uv by explicit path enumeration (see module docstring)."""
    needed: dict = {}
    outport_set = list(outports)
    deferred: list = []  # (sources, states) of pure-drop paths

    def attribute(sources, targets, states):
        for u in sources:
            for v in targets:
                if u == v:
                    continue
                key = (u, v)
                needed[key] = needed.get(key, frozenset()) | states

    for path, leaf in iter_paths(xfdd):
        if not _path_reachable(path):
            continue
        states = _path_reads(path) | leaf.written_state_vars()
        if not states:
            continue
        sources = _path_inports(path, inports)
        if not sources:
            continue
        egresses, unknown = _leaf_egresses(leaf, outport_set)
        if egresses and not unknown:
            attribute(sources, egresses, states)
        elif unknown:
            attribute(sources, set(outport_set), states)
        else:
            deferred.append((sources, states))

    for sources, states in deferred:
        for u in sources:
            for s in states:
                covered = any(
                    s in needed.get((u, v), frozenset())
                    for v in outport_set
                    if v != u
                )
                if not covered:
                    attribute((u,), set(outport_set), frozenset((s,)))
    return PacketStateMapping(needed, inports, outports)


def ingress_state_footprint_paths(xfdd: XFDD, inports) -> dict:
    """``{port: frozenset}`` of state variables reachable per ingress
    port, by path enumeration — the oracle of
    :func:`repro.dataplane.engine.ingress_state_footprint`."""
    footprint: dict = {port: set() for port in inports}
    for path, leaf in iter_paths(xfdd):
        if not _path_reachable(path):
            continue
        states = _path_reads(path) | leaf.written_state_vars()
        for port in _path_inports(path, inports):
            footprint[port] |= states
    return {port: frozenset(states) for port, states in footprint.items()}
