"""Tests for the workload generators and detection-quality integration.

Beyond checking the generators themselves, these drive attack/benign
traces through *compiled, distributed* deployments and assert the
applications detect what they should and spare what they should not.
"""

import numpy as np
import pytest

from repro import workloads
from repro.apps import (
    assign_egress,
    default_subnets,
    dns_tunnel_detect,
    port_assumption,
    selective_packet_dropping,
    syn_flood_detect,
    tcp_state_machine,
)
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.lang import ast, make_packet
from repro.lang.state import Store
from repro.lang.values import Symbol
from repro.topology.campus import campus_topology
from repro.util.ipaddr import IPPrefix
from repro.workloads import replay, replay_obs

from tests import reference_traces


def ip(text):
    return IPPrefix(text).network


SUBNETS = default_subnets(6)


def compiled_network(app, guard=None):
    policy = app.policy if guard is None else ast.If(guard, app.policy, ast.Id())
    program = Program(
        ast.Seq(policy, assign_egress(SUBNETS)),
        assumption=port_assumption(SUBNETS),
        state_defaults=app.state_defaults,
        name=app.name,
    )
    result = SnapController(campus_topology(), program).submit()
    return result.build_network(), program


def assert_same_trace(got, want):
    """Arrival for arrival: packet, field order, value types, and a
    plain-``int`` ingress port."""
    assert got.name == want.name
    assert got.arrivals == want.arrivals
    for (packet, port), (expected, _) in zip(got, want):
        assert type(port) is int
        assert [(k, type(v)) for k, v in packet.fields().items()] == [
            (k, type(v)) for k, v in expected.fields().items()
        ]


def assert_same_stream(generate, reference, seed):
    """``generate`` and ``reference`` (each called with a Generator) give
    the same trace and leave their Generators in the same state."""
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_trace(generate(rng), reference(reference_rng))
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    return reference_rng


class RecordingPrefix:
    """An :class:`IPPrefix` stand-in that logs every ``host`` call."""

    def __init__(self, prefix, log):
        self.prefix, self.log = prefix, log

    def host(self, offset):
        self.log.append((str(self.prefix), offset))
        return self.prefix.host(offset)


class TestGenerators:
    def test_trace_concat_and_len(self):
        a = workloads.syn_flood(ip("10.0.1.1"), 1, ip("10.0.6.1"), count=3)
        b = workloads.udp_flood(ip("10.0.2.2"), 2, ip("10.0.6.1"), count=2)
        combined = a + b
        assert len(combined) == 5

    def test_interleave_preserves_relative_order(self):
        a = workloads.syn_flood(ip("10.0.1.1"), 1, ip("10.0.6.1"), count=4)
        b = workloads.udp_flood(ip("10.0.2.2"), 2, ip("10.0.6.1"), count=4)
        merged = a.interleaved_with(b, seed=1)
        only_a = [p for p, _ in merged if p.get("tcp.flags") == Symbol("SYN")]
        assert only_a == [p for p, _ in a]

    def test_interleave_contract(self):
        """The full merge contract: every arrival of both traces appears
        exactly once, each trace's internal order is preserved, the input
        traces are not consumed, and a seed fully determines the result."""
        a = workloads.syn_flood(ip("10.0.1.1"), 1, ip("10.0.6.1"), count=37)
        b = workloads.udp_flood(ip("10.0.2.2"), 2, ip("10.0.6.1"), count=23)
        a_before, b_before = list(a), list(b)
        merged = a.interleaved_with(b, seed=5)
        assert len(merged) == len(a) + len(b)
        # Source traces untouched (the old pop(0) merge copied first, but
        # the contract should not depend on that accident).
        assert list(a) == a_before and list(b) == b_before
        # Stability: each trace's arrivals appear in their original order.
        arrivals = list(merged)
        only_a = [x for x in arrivals if x in a_before]
        only_b = [x for x in arrivals if x in b_before]
        assert only_a == a_before
        assert only_b == b_before
        # Determinism: same seed, same interleaving; the seed matters.
        assert list(a.interleaved_with(b, seed=5)) == arrivals
        assert list(a.interleaved_with(b, seed=6)) != arrivals

    def test_interleave_with_empty_trace(self):
        a = workloads.syn_flood(ip("10.0.1.1"), 1, ip("10.0.6.1"), count=3)
        empty = workloads.Trace("empty", [])
        assert list(a.interleaved_with(empty, seed=0)) == list(a)
        assert list(empty.interleaved_with(a, seed=0)) == list(a)

    def test_deterministic(self):
        t1 = workloads.background_traffic(SUBNETS, count=10, seed=5)
        t2 = workloads.background_traffic(SUBNETS, count=10, seed=5)
        assert [p for p, _ in t1] == [p for p, _ in t2]

    @pytest.mark.parametrize("seed", [0, 7, (7, 1, 0), (8, 1, 3), 46])
    def test_background_traffic_equals_the_reference_generator(self, seed):
        """Same random stream as the generator it replaced: every
        arrival equal — packet, field order, plain-``int`` port — and a
        passed-in Generator left in the same state, for int seeds and
        the tuple seeds snapbench's traffic passes.  Seed 46's 20 000
        packets cross a Lemire rejection (see :class:`TestStreamIdentity`)."""
        for subnets, count in ((SUBNETS, 20_000), (default_subnets(12), 2_000)):
            reference_rng = assert_same_stream(
                lambda rng: workloads.background_traffic(subnets, count, rng),
                lambda rng: reference_traces.background_traffic(subnets, count, rng),
                seed,
            )
            if seed == 46 and subnets is SUBNETS:
                assert reference_rng.bit_generator.state["has_uint32"] == 1

    def test_tcp_session_shape(self):
        trace = workloads.tcp_session(ip("10.0.1.1"), ip("10.0.6.1"), 1, 6)
        flags = [p.get("tcp.flags").name for p, _ in trace]
        assert flags[:3] == ["SYN", "SYN-ACK", "ACK"]
        assert flags[-3:] == ["FIN", "FIN-ACK", "ACK"]

    def test_mpeg_lost_iframe(self):
        trace = workloads.mpeg_stream(
            ip("10.0.1.1"), ip("10.0.6.1"), 1, gop=2, groups=2,
            lose_iframe_group=1,
        )
        kinds = [p.get("mpeg.frame-type").name for p, _ in trace]
        assert kinds.count("Iframe") == 1
        assert kinds.count("Bframe") == 4


class TestStreamIdentity:
    """The array-draw generators against the scalar-draw ones they
    replaced (``tests/reference_traces.py``), on streams of 20 000
    packets: the same arrivals, and a passed-in ``Generator`` left in
    the same state.  A Lemire rejection in a 32-bit bounded draw takes
    one extra half-word, which leaves ``has_uint32`` set after a stream
    whose draws otherwise come in pairs; the seeds marked below cross
    one, so the state check sees the rejection reproduced."""

    @pytest.mark.parametrize("count", [0, -3, 1, 4097])
    def test_background_traffic_block_edges(self, count):
        assert_same_stream(
            lambda rng: workloads.background_traffic(SUBNETS, count, rng),
            lambda rng: reference_traces.background_traffic(SUBNETS, count, rng),
            (7, 1, 2),
        )

    def test_background_traffic_checks_every_host_offset(self):
        """A /28 cannot hold offsets up to 99: the same ``host`` calls
        in the same order, up to the same ``ValueError``."""
        subnets = dict(SUBNETS)
        subnets[3] = IPPrefix("10.0.3.0/28")

        def run(generate):
            log = []
            recording = {p: RecordingPrefix(x, log) for p, x in subnets.items()}
            with pytest.raises(ValueError) as error:
                generate(recording, 500, 0)
            return log, str(error.value)

        log, message = run(workloads.background_traffic)
        # Seed 0 gets 198 packets past the /28 and fails on the 199th.
        assert len(log) == 397 and "outside /28" in message
        assert (log, message) == run(reference_traces.background_traffic)

    @pytest.mark.parametrize("sizes", [(12_000, 8_000), (3, 19_997), (20_000, 0)])
    def test_interleaved_with(self, sizes):
        a = workloads.syn_flood(ip("10.0.1.66"), 1, ip("10.0.6.1"), sizes[0], 1)
        b = workloads.udp_flood(ip("10.0.2.66"), 2, ip("10.0.6.1"), sizes[1], 2)
        for seed in (5, (7, 5)):
            assert_same_stream(
                lambda rng: a.interleaved_with(b, seed=rng),
                lambda rng: reference_traces.interleaved_with(a, b, seed=rng),
                seed,
            )

    @pytest.mark.parametrize("seed", [0, 260, (7, 4, 0), (7, 4, 9)])
    def test_dns_tunnel_attack(self, seed):
        args = (ip("10.0.6.66"), 6, ip("10.0.1.53"), 1)
        reference_rng = assert_same_stream(
            lambda rng: workloads.dns_tunnel_attack(*args, 10_000, seed=rng),
            lambda rng: reference_traces.dns_tunnel_attack(*args, 10_000, seed=rng),
            seed,
        )
        if seed == 260:
            assert reference_rng.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("seed", [3, (7, 4, 1), (7, 4, 10)])
    def test_benign_dns_usage(self, seed):
        servers = [ip("10.0.2.0") + k % 250 for k in range(10_000)]
        args = (ip("10.0.6.77"), 6, ip("10.0.1.53"), 1)
        reference_rng = assert_same_stream(
            lambda rng: workloads.benign_dns_usage(*args, iter(servers), 2, seed=rng),
            lambda rng: reference_traces.benign_dns_usage(
                *args, iter(servers), 2, seed=rng
            ),
            seed,
        )
        if seed == 3:
            assert reference_rng.bit_generator.state["has_uint32"] == 1

    def test_dns_generators_on_snapbench_session_seeds(self):
        """Five-response tunnels and three-server lookups, as snapbench's
        DNS sessions call them, seeds ``(7, 4, k)``."""
        args = (ip("10.0.6.66"), 6, ip("10.0.1.53"), 1)
        servers = [ip("10.0.2.10"), ip("10.0.3.11"), ip("10.0.4.12")]
        for k in range(200):
            assert_same_trace(
                workloads.dns_tunnel_attack(*args, 5, seed=(7, 4, k)),
                reference_traces.dns_tunnel_attack(*args, 5, seed=(7, 4, k)),
            )
            assert_same_trace(
                workloads.benign_dns_usage(*args, servers, 2, seed=(7, 4, k)),
                reference_traces.benign_dns_usage(*args, servers, 2, seed=(7, 4, k)),
            )

    @pytest.mark.parametrize(
        "name", ["syn_flood", "udp_flood", "dns_amplification_attack"]
    )
    @pytest.mark.parametrize("count", [20_000, 0, -3])
    def test_count_loop_generators(self, name, count):
        generate = getattr(workloads, name)
        reference = getattr(reference_traces, name)
        args = (ip("10.0.1.66"), 1, ip("10.0.6.1"))
        reference_rng = assert_same_stream(
            lambda rng: generate(*args, count=count, seed=rng),
            lambda rng: reference(*args, count=count, seed=rng),
            3,
        )
        if count > 0:
            assert reference_rng.bit_generator.state["has_uint32"] == 1


class TestDetectionQuality:
    def test_tunnel_detected_benign_spared(self):
        app = dns_tunnel_detect(threshold=3)
        network, _program = compiled_network(app)
        attacker_client = ip("10.0.6.66")
        benign_client = ip("10.0.6.77")
        attack = workloads.dns_tunnel_attack(
            attacker_client, 6, ip("10.0.1.53"), 1, num_responses=4
        )
        benign = workloads.benign_dns_usage(
            benign_client, 6, ip("10.0.1.53"), 1,
            servers=[ip("10.0.2.10"), ip("10.0.2.11")], server_port=2,
        )
        replay(attack.interleaved_with(benign, seed=3), network)
        store = network.global_store()
        assert store.read("blacklist", (attacker_client,)) is True
        assert store.read("blacklist", (benign_client,)) is False

    def test_syn_flood_flagged_sessions_spared(self):
        app = syn_flood_detect(threshold=10)
        guard = ast.Or(
            ast.Test("dstip", SUBNETS[6]), ast.Test("srcip", SUBNETS[6])
        )
        network, _ = compiled_network(app, guard=guard)
        flood = workloads.syn_flood(ip("10.0.1.66"), 1, ip("10.0.6.1"), count=12)
        sessions = workloads.Trace("sessions", [])
        for k in range(3):
            sessions = sessions + workloads.tcp_session(
                ip("10.0.2.5"), ip("10.0.6.1"), 2, 6, sport=40000 + k
            )
        replay(flood.interleaved_with(sessions, seed=9), network)
        store = network.global_store()
        assert store.read("syn-flooder", (ip("10.0.1.66"),)) is True
        assert store.read("syn-flooder", (ip("10.0.2.5"),)) is False

    def test_mpeg_selective_dropping_rate(self):
        app = selective_packet_dropping(gop=4)
        guard = ast.Test("dstip", SUBNETS[6])
        network, _ = compiled_network(app, guard=guard)
        healthy = workloads.mpeg_stream(
            ip("10.0.1.1"), ip("10.0.6.1"), 1, gop=4, groups=2
        )
        stats = replay(healthy, network)
        assert stats.dropped == 0
        # A lost I-frame makes its dependent B-frames worthless: dropped.
        network2, _ = compiled_network(
            selective_packet_dropping(gop=4), guard=ast.Test("dstip", SUBNETS[6])
        )
        lossy = workloads.mpeg_stream(
            ip("10.0.1.2"), ip("10.0.6.1"), 1, gop=4, groups=2,
            lose_iframe_group=0,
        )
        stats2 = replay(lossy, network2)
        assert stats2.dropped == 4  # group 0's orphaned B-frames... minus budget
        # default counter starts at 0, so all 4 B-frames of group 0 drop.

    def test_tcp_state_machine_tracks_sessions_end_to_end(self):
        app = tcp_state_machine()
        guard = ast.Or(
            ast.Test("dstip", SUBNETS[6]), ast.Test("srcip", SUBNETS[6])
        )
        network, program = compiled_network(app, guard=guard)
        session = workloads.tcp_session(ip("10.0.1.1"), ip("10.0.6.1"), 1, 6)
        replay(session, network)
        store = network.global_store()
        key = (ip("10.0.1.1"), ip("10.0.6.1"), 40000, 80, 6)
        assert store.read("tcp-state", key) == Symbol("CLOSED")

    def test_replay_obs_matches_network(self):
        app = dns_tunnel_detect(threshold=3)
        network, program = compiled_network(app)
        trace = workloads.background_traffic(SUBNETS, count=40, seed=11)
        obs_store, _ = replay_obs(
            trace, program.full_policy(), Store(program.state_defaults)
        )
        replay(trace, network)
        assert network.global_store() == obs_store

    def test_replay_obs_threads_the_store_without_writing_it(self):
        """The caller's store is left as it was; what it held — also for
        variables no packet touches — rides into the returned one."""
        policy = ast.Seq(
            ast.StateIncr("count", ast.Field("inport")), assign_egress(SUBNETS)
        )
        store = Store({"count": 0})
        store.write("count", (1,), 41)
        store.write("unrelated", ("x",), "keep-me")
        before = store.copy()
        trace = workloads.background_traffic(SUBNETS, count=40, seed=9)
        final, outputs = replay_obs(trace, policy, store)
        assert store == before
        assert len(outputs) == 40
        assert final.read("unrelated", ("x",)) == "keep-me"
        from_port_1 = sum(1 for _, port in trace if port == 1)
        assert from_port_1 > 0
        assert final.read("count", (1,)) == 41 + from_port_1


class TestReplayStats:
    def test_counts(self):
        app = dns_tunnel_detect()
        network, _ = compiled_network(app)
        trace = workloads.background_traffic(SUBNETS, count=30, seed=2)
        stats = replay(trace, network)
        assert stats.sent == 30
        assert stats.delivered + stats.dropped >= 30
        assert 0.0 <= stats.delivery_rate <= 1.0
        assert stats.mean_hops > 0
        assert sum(stats.per_egress.values()) == stats.delivered

    def test_multicast_with_drops_distinguishes_the_two_rates(self):
        """Per-copy and per-packet delivery rates diverge under multicast
        with partial drops; ``delivery_rate`` is the packet-level one."""
        policy = ast.If(
            ast.Test("dstport", 99),
            ast.Parallel(
                ast.Mod("outport", 2),
                ast.If(ast.Test("srcport", 7), ast.Drop(), ast.Mod("outport", 3)),
            ),
            ast.If(ast.Test("dstport", 88), ast.Drop(), assign_egress(SUBNETS)),
        )
        program = Program(
            policy, assumption=port_assumption(SUBNETS),
            state_defaults={}, name="multicast-with-drops",
        )
        network = SnapController(campus_topology(), program).submit().build_network()

        def pkt(srcport, dstport):
            return (
                make_packet(
                    srcip=SUBNETS[1].host(2), dstip=SUBNETS[6].host(2),
                    srcport=srcport, dstport=dstport,
                ),
                1,
            )

        trace = workloads.Trace("multicast", [
            pkt(40000, 99), pkt(40000, 99),          # full multicast: 2 copies
            pkt(7, 99), pkt(7, 99), pkt(7, 99),      # partial: 1 copy survives
            pkt(40000, 88),                          # dropped outright
        ])
        stats = replay(trace, network)
        assert stats.sent == 6
        assert stats.delivered == 7       # 2*2 + 3*1 copies
        assert stats.dropped == 1
        assert stats.packets_delivered == 5
        assert stats.delivery_rate == pytest.approx(5 / 6)
        assert stats.copy_delivery_rate == pytest.approx(7 / 8)
        assert stats.delivery_rate != stats.copy_delivery_rate
        # __repr__ reports both rates, honestly labelled.
        text = repr(stats)
        assert "delivery_rate=0.83" in text
        assert "copy_delivery_rate=0.88" in text
        assert "7 copies" in text
