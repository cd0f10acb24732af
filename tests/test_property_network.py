"""Property test: the distributed data plane implements the OBS semantics.

Random stateful policies are compiled onto a small topology; random packet
sequences are injected sequentially.  The union of per-switch state tables
and the set of delivered packets must equal what the one-big-switch
``eval`` produces.  This validates the entire pipeline: xFDD translation,
placement, routing, per-switch NetASM splitting, SNAP-header steering, and
Appendix D's candidate-egress trick.
"""

from collections import Counter
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import packet_state_mapping
from repro.dataplane.network import Network
from repro.lang import ast
from repro.lang.errors import (
    CompileError,
    DataPlaneError,
    InconsistentStateError,
    PlacementError,
    RaceConditionError,
)
from repro.lang.packet import Packet
from repro.lang.semantics import eval_policy
from repro.lang.state import Store
from repro.milp.placement import build_placement_model
from repro.milp.results import extract_paths, validate_solution
from repro.topology.graph import Topology
from repro.topology.traffic import uniform_traffic_matrix
from repro.xfdd.build import build_xfdd
from repro.xfdd.order import TestOrder
from repro.xfdd.compose import Composer
from repro.xfdd.build import to_xfdd
from repro.workloads import replay

from tests.test_engine import assert_replay_folds_run, flat, record_view
from tests.strategies import STATE_VARS, VALUES, packets, policies, registry

PORTS = (1, 2, 3)


def diamond_topology():
    """Three ports around a 5-switch diamond — multiple path choices."""
    topo = Topology("diamond")
    for name in ("e1", "e2", "e3", "m1", "m2"):
        topo.add_switch(name)
    for a, b in (
        ("e1", "m1"), ("e1", "m2"),
        ("e2", "m1"), ("e2", "m2"),
        ("e3", "m1"), ("e3", "m2"),
        ("m1", "m2"),
    ):
        topo.add_link(a, b, 1000.0)
    topo.attach_port(1, "e1")
    topo.attach_port(2, "e2")
    topo.attach_port(3, "e3")
    topo.validate()
    return topo


def egress_policy():
    """Route on field fa: 0 -> port 1, 1 -> port 2, else port 3."""
    return ast.If(
        ast.Test("fa", 0),
        ast.Mod("outport", 1),
        ast.If(ast.Test("fa", 1), ast.Mod("outport", 2), ast.Mod("outport", 3)),
    )


def stateful_bodies():
    """Small stateful bodies that compose well with the egress policy."""
    idx = st.sampled_from([ast.Field("fb"), ast.Value(0)])
    var = st.sampled_from(STATE_VARS)
    body = st.one_of(
        st.builds(ast.StateIncr, var, idx),
        st.builds(ast.StateMod, var, idx, st.sampled_from(VALUES).map(ast.Value)),
        st.builds(
            lambda v, i, val, wval: ast.If(
                ast.StateTest(v, i, ast.Value(val)),
                ast.StateMod(v, i, ast.Value(wval)),
                ast.StateIncr(v, i),
            ),
            var, idx, st.sampled_from(VALUES), st.sampled_from(VALUES),
        ),
        st.builds(
            lambda v, i, val: ast.If(
                ast.StateTest(v, i, ast.Value(val)), ast.Drop(), ast.Id()
            ),
            var, idx, st.sampled_from(VALUES),
        ),
    )
    return st.lists(body, min_size=1, max_size=2).map(ast.seq_all)


DEFAULTS = {var: 0 for var in STATE_VARS}


def compile_onto_diamond(body):
    """``body ; egress_policy`` compiled for the diamond: the policy and
    a factory of fresh networks for it (rejected examples are assumed
    away)."""
    policy = ast.Seq(body, egress_policy())
    try:
        deps = analyze_dependencies(policy)
        order = TestOrder(registry(), deps.state_rank)
        xfdd = to_xfdd(policy, Composer(order))
    except (RaceConditionError, CompileError):
        assume(False)
    topo = diamond_topology()
    mapping = packet_state_mapping(xfdd, PORTS, PORTS)
    demands = uniform_traffic_matrix(PORTS, 1.0)
    try:
        solution = build_placement_model(topo, demands, mapping, deps).solve()
        routing = extract_paths(solution, topo, mapping, deps)
        validate_solution(routing, topo, mapping, deps)
    except PlacementError:
        assume(False)
    return policy, lambda: Network(
        topo, xfdd, solution.placement, routing, mapping, demands, DEFAULTS
    )


ARRIVALS = st.lists(
    st.tuples(packets(), st.sampled_from(PORTS)), min_size=1, max_size=6
)
SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@SETTINGS
@given(body=stateful_bodies(), arrivals=ARRIVALS)
def test_distributed_execution_matches_obs_eval(body, arrivals):
    policy, make_network = compile_onto_diamond(body)
    net = make_network()

    ref_store = Store(DEFAULTS)
    for packet, port in arrivals:
        tagged = packet.modify("inport", port)
        try:
            ref_store, ref_out, _ = eval_policy(policy, ref_store, tagged)
        except InconsistentStateError:
            assume(False)
            return
        records = net.inject(packet, port)
        delivered = frozenset(
            record.packet.without("inport")
            for record in records
            if record.egress is not None
        )
        expected = frozenset(p.without("inport") for p in ref_out)
        assert delivered == expected
        # Delivered egress ports match the packets' outport field.
        for record in records:
            if record.egress is not None:
                assert record.packet.get("outport") == record.egress
    assert net.global_store() == ref_store


def copies(records) -> Counter:
    """A packet's records as a multiset."""
    return Counter(record_view(records))


@SETTINGS
@given(body=st.one_of(stateful_bodies(), policies(4)), arrivals=ARRIVALS)
def test_run_to_completion_matches_the_hop_granular_driver(body, arrivals):
    """The walker takes memoized forwarding segments; ``inject_concurrent``
    moves one link per step over the same routing functions.  Fed the
    trace one packet at a time it must leave the same records, hop
    counts, per-link packet counts and state.  (Copies of one multicast
    packet finish depth-first in the walker and breadth-first here, so
    each packet's records compare as a multiset; their order is pinned
    against ``eval_policy`` in test_dataplane.py.)"""
    _, make_network = compile_onto_diamond(body)
    walked, stepped = make_network(), make_network()
    per_packet = walked.inject_many(arrivals)
    per_step = [stepped.inject_concurrent([arrival]) for arrival in arrivals]
    assert len(per_packet) == len(per_step) == len(arrivals)
    for records, step_records in zip(per_packet, per_step):
        assert copies(records) == copies(step_records)
    assert walked.link_packets == stepped.link_packets
    assert walked.global_store() == stepped.global_store()
    assert copies(flat(per_packet)) == copies(flat(per_step))


@SETTINGS
@given(
    body=st.one_of(stateful_bodies(), policies(4)), arrivals=ARRIVALS,
    every=st.sampled_from([0, 2]),
)
def test_replay_fold_equals_the_records(body, arrivals, every):
    """``replay()``'s fused walk counts each packet by its path; the
    trace runs three times over, so later rounds take the links and
    tables the first one built.  Its :class:`ReplayStats`, state, link
    counts and postcards must be those of the per-packet records."""
    _, make_network = compile_onto_diamond(body)
    assert_replay_folds_run(
        SimpleNamespace(build_network=make_network), arrivals * 3, every
    )


def test_replay_reads_the_arrival_port_not_a_carried_inport():
    """Trace packets that carry an ``inport`` field of their own: the
    fused walk reads the arrival port, at ingress, after a PAUSE and in
    a forked copy's module, exactly as ``run_packet`` does."""
    body = ast.Seq(
        ast.StateIncr("sA", ast.Field("inport")),
        ast.Parallel(
            ast.Seq(ast.Mod("fc", 1), ast.StateIncr("sB", ast.Field("inport"))),
            ast.Mod("fc", 2),
        ),
    )
    _, make_network = compile_onto_diamond(body)
    arrivals = [
        (Packet({"fa": k % 3, "fb": k % 2, "inport": 9}), PORTS[k % 3])
        for k in range(12)
    ]
    assert_replay_folds_run(SimpleNamespace(build_network=make_network), arrivals)
    network = make_network()
    replay(arrivals, network)
    assert network.global_store().read("sB", (9,)) == 0


def test_replay_carries_a_written_inport_across_a_pause():
    """``inport <- 7`` at the ingress switch, read after the PAUSE to the
    switch of the state it indexes: the next switch's code sees 7, and
    the state is ``eval_policy``'s."""
    body = ast.Seq(
        ast.Mod("inport", 7),
        ast.Seq(
            ast.StateIncr("sA", ast.Field("fb")),
            ast.StateIncr("sB", ast.Field("inport")),
        ),
    )
    policy, make_network = compile_onto_diamond(body)
    network = make_network()
    owner = network.switches[network.placement["sB"]]
    assert "Field('inport')" in owner.to_text()
    for port in PORTS:  # the write and the PAUSE are the ingress's
        ingress = network.switches[network.topology.port_switch(port)]
        assert network.placement["sB"] != ingress.switch
        assert {"SET inport <- 7", "PAUSE"} <= {
            repr(instr).split(" tag=")[0] for instr in ingress.instructions
        }
    arrivals = [(Packet({"fa": k % 3, "fb": k % 2}), PORTS[k % 3]) for k in range(9)]
    assert_replay_folds_run(SimpleNamespace(build_network=make_network), arrivals)
    replay(arrivals, network)
    store = Store(DEFAULTS)
    for packet, port in arrivals:
        store, _, _ = eval_policy(policy, store, packet.modify("inport", port))
    assert network.global_store() == store
    assert store.read("sB", (7,)) == len(arrivals)


@pytest.mark.xfail(
    raises=DataPlaneError, strict=True,
    reason="a hairpin flow (u, u) has no installed path, so a packet that "
    "leaves by its arrival port and pauses off its ingress switch finds "
    "no candidate egress (Network.pause_egress)",
)
def test_a_hairpin_packet_that_pauses_off_its_ingress_is_delivered():
    """``fa := 2`` sends every packet to port 3, so the one arriving there
    leaves by its arrival port after visiting the switches of ``sA`` and
    ``sB``, which are not its ingress ``e3``: delivered as ``eval_policy``
    delivers it."""
    body = ast.seq_all([
        ast.Mod("fa", 2),
        ast.StateMod("sA", ast.Value(0), ast.Value(0)),
        ast.StateMod("sB", ast.Value(0), ast.Value(0)),
    ])
    policy, make_network = compile_onto_diamond(body)
    network = make_network()
    assert network.placement["sA"] != network.topology.port_switch(3)
    store = Store(DEFAULTS)
    for port in (1, 3):
        packet = Packet({"fa": 0, "fb": 0, "fc": 0})
        store, expected, _ = eval_policy(policy, store, packet.modify("inport", port))
        delivered = frozenset(
            record.packet.without("inport")
            for record in network.inject(packet, port)
            if record.egress is not None
        )
        assert delivered == frozenset(p.without("inport") for p in expected)
    assert network.global_store() == store
