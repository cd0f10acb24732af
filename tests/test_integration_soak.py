"""Integration soak test: the full campus deployment under random traffic.

Compiles DNS-tunnel-detect; assign-egress onto the campus, then streams a
few hundred randomized packets (DNS responses, client connections, plain
transit traffic) through the distributed data plane while mirroring every
packet through the OBS reference semantics.  Outputs and final state must
match exactly; also exercises TE re-optimization mid-stream and the
compilation report.
"""

import gc
import tracemalloc
import types

import numpy as np
import pytest

from repro.core.controller import SnapController
from repro.core.program import Program
from repro.core.report import compilation_report
from repro.dataplane.network import DeliveryRecord
from repro.apps import assign_egress, default_subnets, dns_tunnel_detect, port_assumption
from repro.lang import ast, make_packet
from repro.lang.semantics import eval_policy
from repro.lang.state import Store
from repro.topology.campus import campus_topology
from repro.util.ipaddr import IPPrefix
from repro.workloads import background_traffic, replay
from repro.xfdd.diagram import DROP, IDENTITY

from tests.test_engine import SUBNETS, sharded_monitor


def build_program():
    subnets = default_subnets(6)
    detect = dns_tunnel_detect(threshold=3)
    return Program(
        ast.Seq(detect.policy, assign_egress(subnets)),
        assumption=port_assumption(subnets),
        state_defaults=detect.state_defaults,
        name="dns-tunnel+egress",
    )


def random_arrivals(rng, count):
    subnets = {p: IPPrefix(f"10.0.{p}.0/24") for p in range(1, 7)}
    arrivals = []
    for _ in range(count):
        src_port = int(rng.integers(1, 7))
        dst_port = int(rng.integers(1, 7))
        srcip = subnets[src_port].host(int(rng.integers(1, 50)))
        dstip = subnets[dst_port].host(int(rng.integers(1, 50)))
        kind = rng.random()
        if kind < 0.4:
            packet = make_packet(
                srcip=srcip, dstip=dstip, srcport=53,
                dstport=int(rng.integers(1024, 2048)),
                **{"dns.rdata": subnets[int(rng.integers(1, 7))].host(
                    int(rng.integers(1, 50)))},
            )
        else:
            packet = make_packet(
                srcip=srcip, dstip=dstip,
                srcport=int(rng.integers(1024, 2048)),
                dstport=int(rng.integers(1, 1024)),
            )
        arrivals.append((packet, src_port))
    return arrivals


@pytest.mark.parametrize("seed", [0, 1])
def test_soak_distributed_equals_obs(seed):
    program = build_program()
    controller = SnapController(campus_topology(), program)
    result = controller.submit()
    network = result.build_network()
    policy = program.full_policy()
    ref_store = Store(program.state_defaults)
    rng = np.random.default_rng(seed)
    for packet, port in random_arrivals(rng, 250):
        tagged = packet.modify("inport", port)
        ref_store, ref_out, _ = eval_policy(policy, ref_store, tagged)
        records = network.inject(packet, port)
        delivered = frozenset(
            r.packet.without("inport") for r in records if r.egress is not None
        )
        expected = frozenset(p.without("inport") for p in ref_out)
        assert delivered == expected
    assert network.global_store() == ref_store


def test_soak_survives_te_reroute():
    """Re-optimize routing mid-stream; state stays put and consistent."""
    program = build_program()
    topology = campus_topology()
    controller = SnapController(topology, program)
    result = controller.submit()
    network = result.build_network()
    policy = program.full_policy()
    ref_store = Store(program.state_defaults)
    rng = np.random.default_rng(42)

    def drive(net, count, store):
        for packet, port in random_arrivals(rng, count):
            tagged = packet.modify("inport", port)
            store, ref_out, _ = eval_policy(policy, store, tagged)
            records = net.inject(packet, port)
            delivered = frozenset(
                r.packet.without("inport") for r in records if r.egress is not None
            )
            assert delivered == frozenset(p.without("inport") for p in ref_out)
        return store

    ref_store = drive(network, 100, ref_store)
    saved_state = {
        name: dict(network.switches[sw].store.variable(name).items())
        for name, sw in result.placement.items()
        for sw in [result.placement[name]]
    }

    degraded = topology.without_link("C1", "C5")
    rerouted = controller.update_topology(degraded)
    assert rerouted.placement == result.placement
    network2 = rerouted.build_network()
    # Carry the state over (placement unchanged, so per-switch state maps 1:1).
    for name, owner in rerouted.placement.items():
        var = network2.switches[owner].store.variable(name)
        for key, value in saved_state[name].items():
            var.set(key, value)
    ref_store = drive(network2, 100, ref_store)
    assert network2.global_store() == ref_store


def test_report_renders():
    program = build_program()
    controller = SnapController(campus_topology(), program)
    result = controller.submit()
    network = result.build_network()
    text = compilation_report(result, network)
    assert "state placement:" in text
    assert "D4" in text
    assert "routing rules" in text
    assert "P5" in text


# -- bounded memory: one packet at a time --------------------------------------


def monitor_case(count):
    """The sharded monitor (``count@p[inport]++``, six disjoint shards)
    and ``count`` packets of background traffic, materialised so trace
    generation stays out of the measurements."""
    snapshot, _ = sharded_monitor()
    return snapshot, list(background_traffic(SUBNETS, count=count, seed=5))


def live_records() -> int:
    gc.collect()
    return sum(type(obj) is DeliveryRecord for obj in gc.get_objects())


def reachable_objects(root) -> int:
    """How many objects ``root`` keeps alive through containers and
    instances (classes, modules and code are the program, not data)."""
    program = (type, types.ModuleType, types.FunctionType, types.MethodType,
               types.BuiltinFunctionType, types.CodeType)
    seen = {id(root)}
    frontier = [root]
    while frontier:
        for ref in gc.get_referents(frontier.pop()):
            if id(ref) not in seen and not isinstance(ref, program):
                seen.add(id(ref))
                frontier.append(ref)
    return len(seen)


def test_replay_leaves_no_delivery_record_alive():
    snapshot, trace = monitor_case(2000)
    network = snapshot.build_network()
    before = live_records()
    stats = replay(trace, network)
    assert stats.sent == stats.delivered == 2000
    assert live_records() == before
    # ... whereas the eager drivers hand theirs to the caller.
    held = network.inject_many(trace[:50])
    assert live_records() == before + 50
    del held
    assert live_records() == before


def test_replay_peak_memory_does_not_grow_with_the_trace():
    """Replay streams: the ``tracemalloc`` peak of 20k packets is that of
    5k (memoised segments, six counters, one packet's records) — not
    four times it, as when every record was kept until the end."""
    snapshot, trace = monitor_case(20000)

    def peak(arrivals) -> int:
        network = snapshot.build_network()
        replay(arrivals[:500], network)  # generated code, memos: warm
        gc.collect()
        tracemalloc.start()
        try:
            replay(arrivals, network)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(trace[:5000]), peak(trace)
    assert large <= 1.5 * small, (small, large)


def test_a_network_keeps_nothing_per_packet():
    """What traffic leaves on a ``Network`` is its state tables and
    ``link_packets``: the same object graph after 500 packets and after
    6 500 more through every driver."""
    snapshot, trace = monitor_case(6500)
    network = snapshot.build_network()
    replay(trace[:500], network)
    warm = reachable_objects(network)
    replay(trace[:3000], network)
    network.inject_many(trace[3000:6000])
    network.inject_concurrent(trace[6000:])
    # Slack for counters outgrowing CPython's shared small ints.
    assert reachable_objects(network) <= warm + 64
    assert sum(
        network.global_store().read(f"count@{port}", (port,))
        for port in range(1, 7)
    ) == 500 + 6500


# -- bounded memory per event ---------------------------------------------------


def test_caches_plateau_over_alternating_events(monkeypatch):
    """300 alternating ``update_policy`` / ``fail_link`` / ``restore_link``
    events on the six-app campus composite: every cross-generation cache
    of the compile session — the apply-cache (always on: nothing switches
    it off mid-compile), the arm memo, the S_uv root memo and the
    intern table — stops growing once each edit has been
    seen, and events 200–300 peak within 1.2x of events 100–200.
    Structurally novel generations are bounded by the session reset
    instead, apply-cache included.

    The data plane holds a thousand state entries throughout: every
    event hands the same table objects on, writing no entry and copying
    no table."""
    from repro.lang.state import StateVariable
    from repro.xfdd import incremental

    from tests.snapbench_programs import traffic, workload

    wl = workload("campus-ops")
    controller = SnapController(wl.topology, wl.program())
    controller.submit()
    replay(traffic.mixed(default_subnets(6), 3000, 7).trace, controller.network())
    session = controller._session
    touched = []

    def recording(plain):
        def method(variable, *args):
            touched.append(variable)
            return plain(variable, *args)
        return method

    for name in ("set", "copy"):
        monkeypatch.setattr(
            StateVariable, name, recording(getattr(StateVariable, name))
        )

    def tables() -> dict:
        live = controller.network()
        return {
            name: live.switches[owner].store.variable(name)
            for name, owner in live.placement.items()
        }

    held = {name: table for name, table in tables().items() if len(table)}
    entries = sum(map(len, held.values()))
    assert entries > 1_000

    def sizes() -> dict:
        return {
            "apply_cache": len(session.composer._cache),
            "xfdd_memo": len(session._xfdd_memo),
            "mapping_memo": len(session.mapping_memo),
            "factory": len(session.factory),
            "history": len(controller.history()),
            "solve_memo": len(controller._solve_memo),
        }

    def run_events(first: int, last: int, traced: bool = True) -> int:
        """Events ``first..last``; returns their ``tracemalloc`` peak."""
        gc.collect()
        if traced:
            tracemalloc.start()
        try:
            for event in range(first, last):
                if event % 3 == 0:
                    controller.update_policy(wl.edits[event // 3 % len(wl.edits)])
                elif event % 3 == 1:
                    controller.fail_link(*wl.link)
                else:
                    controller.restore_link(*wl.link)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    try:
        run_events(0, 100, traced=False)
        warm = sizes()
        middle = run_events(100, 200)
        assert sizes() == warm
        late = run_events(200, 300)
        assert sizes() == warm
        assert late <= 1.2 * middle, (middle, late)
        now = tables()
        assert all(now[name] is table for name, table in held.items())
        assert sum(map(len, now.values())) == entries
        assert touched == []
        assert warm["apply_cache"] < 20_000 and warm["factory"] < 20_000

        # The apply-cache answers to the session's reset rule like the
        # intern table: past the cap, the next compile starts fresh.
        assert warm["apply_cache"] > warm["factory"]
        monkeypatch.setattr(incremental, "FACTORY_SIZE_CAP", warm["apply_cache"])
        controller.update_policy(wl.edits[0])
        assert sizes() == warm  # at the cap: kept
        monkeypatch.setattr(
            incremental, "FACTORY_SIZE_CAP", warm["apply_cache"] - 1
        )
        old = session.factory  # pins its nodes: no id of one is reused
        controller.update_policy(wl.edits[1])  # the intern table is under it
        assert len(session.composer._cache) < warm["apply_cache"]
        # The S_uv memo went with the old factory: no key names its roots.
        assert session.factory is not old and session.mapping_memo
        stale = {id(node) for node in old._intern.values()}
        stale -= {id(DROP), id(IDENTITY)}  # shared by every factory
        assert not stale & {root for root, _, _ in session.mapping_memo}
    finally:
        controller.close()
