"""Tests for the cluster runtime: wire protocol, worker daemons,
coordinator dispatch, and the cluster engine.

The load-bearing properties:

* the wire protocol is versioned and fails loudly (and distinguishably)
  on version mismatch vs worker loss;
* ``engine="cluster"`` with two localhost daemons is field-for-field
  identical to the sequential engine — records, stores, link counters —
  including after a daemon is killed mid-run (the requeue path), and
  deterministic across runs regardless of worker arrival order;
* the session lifecycle holds: the daemon set survives TE rewires with
  *zero program bytes* re-shipped, restarts on policy rebuilds, and
  ``close()`` (or the atexit hook, or ``--orphan-exit``) leaves no
  ``repro.cluster.worker`` process behind;
* a dead worker yields a named ``DataPlaneError`` only when no capacity
  remains, and the next run starts a fresh cluster.
"""

import os
import pickle
import socket

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterEngine,
    ClusterError,
    ProtocolError,
    TransportError,
    WorkerHandle,
    spawn_worker_process,
)
from repro.cluster import protocol as wire
from repro.core.controller import SnapController
from repro.core.options import CompilerOptions
from repro.dataplane.engine import (
    SequentialEngine,
    engine_names,
    get_engine,
    make_session_engine,
    register_engine,
)
from repro.lang.errors import DataPlaneError, SnapError
from repro.topology.campus import campus_topology
from repro import workloads
from repro.workloads import replay

from tests.test_engine import (
    SUBNETS,
    compiled,
    flat,
    ip,
    record_view,
    sharded_monitor,
)
from repro.apps import dns_tunnel_detect, syn_flood_detect
from repro.lang import ast

#: One 2-daemon engine for the whole module — mirrors how a session uses
#: the engine (daemon sets are long-lived) and keeps the suite fast.
ENGINE = ClusterEngine(workers=2)


@pytest.fixture(scope="module", autouse=True)
def _shared_cluster():
    yield
    ENGINE.close()


def live_worker_pids() -> list:
    """Pids of ``repro.cluster.worker`` children of this process, via
    /proc (psutil-free, per the no-new-deps rule)."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().decode(errors="replace")
            with open(f"/proc/{entry}/stat") as handle:
                # field 4 of /proc/pid/stat is the ppid; the comm field
                # (2) is parenthesized and cannot contain spaces here.
                ppid = handle.read().split()[3]
        except OSError:
            continue  # raced with process exit
        if "repro.cluster.worker" in cmdline and ppid == me:
            pids.append(int(entry))
    return pids


def assert_cluster_equivalent(snapshot, trace, engine=None):
    """Cluster engine ≡ sequential, field by field, stores and counters."""
    net_seq = snapshot.build_network()
    net_clu = snapshot.build_network()
    arrivals = list(trace)
    seq = SequentialEngine().run(net_seq, arrivals)
    clu = (engine or ENGINE).run(net_clu, arrivals)
    assert len(seq) == len(clu) == len(arrivals)
    for per_seq, per_clu in zip(seq, clu):
        assert record_view(per_seq) == record_view(per_clu)
    assert net_seq.global_store() == net_clu.global_store()
    assert net_seq.link_packets == net_clu.link_packets
    assert record_view(flat(seq)) == record_view(flat(clu))


# -- wire protocol ------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            wire.send_message(a, wire.RUN_SHARD, {"batch": [1, 2, 3]})
            message_type, payload = wire.recv_message(b)
            assert message_type == wire.RUN_SHARD
            assert payload == {"batch": [1, 2, 3]}
        finally:
            a.close()
            b.close()

    def test_version_mismatch_rejected(self):
        a, b = socket.socketpair()
        try:
            body = pickle.dumps((wire.PING, {}))
            header = wire.FRAME_HEADER.pack(
                wire.FRAME_MAGIC, wire.PROTOCOL_VERSION + 1, len(body)
            )
            a.sendall(header + body)
            with pytest.raises(ProtocolError, match="version mismatch"):
                wire.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"HTTP" + bytes(8))
            with pytest.raises(ProtocolError, match="magic"):
                wire.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_closed_connection_is_transport_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(TransportError):
                wire.recv_message(b)
        finally:
            b.close()

    def test_transport_and_protocol_errors_are_cluster_errors(self):
        # The engine's failure contract wraps these in DataPlaneError;
        # they must already *be* DataPlaneErrors for ad-hoc callers.
        assert issubclass(TransportError, ClusterError)
        assert issubclass(ProtocolError, ClusterError)
        assert issubclass(ClusterError, DataPlaneError)


# -- engine registry ----------------------------------------------------------


class TestEngineRegistry:
    def test_cluster_is_registered(self):
        assert "cluster" in engine_names()
        assert CompilerOptions(engine="cluster").engine == "cluster"

    def test_unknown_engine_names_all_registered(self):
        with pytest.raises(SnapError) as excinfo:
            get_engine("bogus")
        assert "cluster" in str(excinfo.value)
        with pytest.raises(ValueError):
            CompilerOptions(engine="bogus")

    def test_named_cluster_engine_is_shared(self):
        engine = get_engine("cluster")
        try:
            assert isinstance(engine, ClusterEngine)
            assert get_engine("cluster") is engine
        finally:
            engine.close()

    def test_session_engine_is_private(self):
        session = make_session_engine("cluster")
        try:
            assert isinstance(session, ClusterEngine)
            assert session is not make_session_engine("cluster")
        finally:
            session.close()
        assert make_session_engine("sequential") is None
        assert make_session_engine(SequentialEngine()) is None

    def test_custom_engine_plugs_in_without_touching_core(self):
        class UppercutEngine(SequentialEngine):
            name = "uppercut"

        register_engine("uppercut", UppercutEngine)
        try:
            assert isinstance(get_engine("uppercut"), UppercutEngine)
            # CompilerOptions validation consults the registry.
            assert CompilerOptions(engine="uppercut").engine == "uppercut"
        finally:
            from repro.dataplane.engine import _ENGINE_REGISTRY

            _ENGINE_REGISTRY.unregister("uppercut")


# -- equivalence --------------------------------------------------------------


class TestClusterEquivalence:
    def test_sharded_monitor_background(self):
        snapshot, _ = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=300, seed=7)
        assert_cluster_equivalent(snapshot, trace)

    def test_syn_flood_with_sessions(self):
        guard = ast.Or(
            ast.Test("dstip", SUBNETS[6]), ast.Test("srcip", SUBNETS[6])
        )
        snapshot, _ = compiled(app=syn_flood_detect(threshold=10), guard=guard)
        flood = workloads.syn_flood(ip("10.0.1.66"), 1, ip("10.0.6.1"), count=15)
        sessions = workloads.tcp_session(ip("10.0.2.5"), ip("10.0.6.1"), 2, 6)
        assert_cluster_equivalent(
            snapshot, flood.interleaved_with(sessions, seed=9)
        )

    def test_single_shard_runs_inline(self):
        """One lane gains nothing from the wire: no daemons spawned."""
        snapshot, _ = compiled(app=dns_tunnel_detect())
        engine = ClusterEngine(workers=2)
        try:
            trace = workloads.background_traffic(SUBNETS, count=80, seed=2)
            assert_cluster_equivalent(snapshot, trace, engine=engine)
            assert engine.coordinator is None  # never paid for daemons
        finally:
            engine.close()

    def test_two_runs_identical(self):
        """Worker scheduling and result arrival order never leak into
        the merged output."""
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=250, seed=5))
        nets = [snapshot.build_network() for _ in range(2)]
        runs = [ENGINE.run(net, trace) for net in nets]
        for a, b in zip(runs[0], runs[1]):
            assert record_view(a) == record_view(b)
        assert nets[0].global_store() == nets[1].global_store()
        assert nets[0].link_packets == nets[1].link_packets

    def test_replay_stats_match_sequential(self):
        snapshot, _ = sharded_monitor()
        trace = workloads.background_traffic(SUBNETS, count=200, seed=3)
        stats_seq = replay(trace, snapshot.build_network(), engine="sequential")
        stats_clu = replay(trace, snapshot.build_network(), engine=ENGINE)
        assert stats_seq.sent == stats_clu.sent
        assert stats_seq.delivered == stats_clu.delivered
        assert stats_seq.dropped == stats_clu.dropped
        assert stats_seq.per_egress == stats_clu.per_egress
        assert stats_seq.total_hops == stats_clu.total_hops

    def test_bytes_shipped_accounting(self):
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=120, seed=11))
        engine = ClusterEngine(workers=2)
        try:
            engine.run(snapshot.build_network(), trace)
            stats = engine.last_run_stats
            assert stats["workers"] == 2
            assert stats["lanes"] >= 2
            assert stats["program_bytes"] > 0
            assert stats["network_bytes"] > 0
            assert stats["payload_bytes"] > 0
        finally:
            engine.close()


# -- session lifecycle ---------------------------------------------------------


class TestSessionLifecycle:
    def test_rewire_ships_no_program_bytes_rebuild_restarts(self):
        _, program = sharded_monitor()
        before = set(live_worker_pids())
        controller = SnapController(
            campus_topology(), program,
            options=CompilerOptions(engine="cluster"),
        )
        controller.submit()
        net_cold = controller.network()
        engine = net_cold.default_engine
        assert isinstance(engine, ClusterEngine)
        try:
            trace = workloads.background_traffic(SUBNETS, count=60, seed=4)
            assert replay(trace, net_cold).sent == 60
            coordinator = engine.coordinator
            assert coordinator is not None
            assert engine.last_run_stats["program_bytes"] > 0

            controller.fail_link("C1", "C5")  # TE rewire
            net_te = controller.network()
            assert net_te.default_engine is engine
            assert engine.coordinator is coordinator  # daemons survived
            assert net_te._exec_program_key == net_cold._exec_program_key
            assert net_te._exec_network_key != net_cold._exec_network_key
            assert replay(trace, net_te).sent == 60
            # The headline property: rewiring a warm cluster moves zero
            # program bytes — only the small network half is re-shipped.
            assert engine.last_run_stats["program_bytes"] == 0
            assert engine.last_run_stats["network_bytes"] > 0

            # The same placement keeps the compiled programs: a program edit
            # (counters per inport and srcip) rebuilds them.
            controller.update_policy(sharded_monitor(
                ast.Vector([ast.Field("inport"), ast.Field("srcip")])
            )[1])
            net_policy = controller.network()
            assert net_policy.default_engine is engine
            assert engine.coordinator is None  # cluster restarted
            assert replay(trace, net_policy).sent == 60  # fresh daemons
        finally:
            controller.close()
            assert engine.coordinator is None
        assert set(live_worker_pids()) == before

    def test_controller_close_leaves_no_orphans(self):
        _, program = sharded_monitor()
        controller = SnapController(
            campus_topology(), program,
            options=CompilerOptions(engine="cluster"),
        )
        controller.submit()
        trace = workloads.background_traffic(SUBNETS, count=40, seed=6)
        before = set(live_worker_pids())
        replay(trace, controller.network())
        assert set(live_worker_pids()) - before  # daemons were running
        controller.close()
        assert set(live_worker_pids()) == before

    def test_engine_close_reaps_daemon_children(self):
        snapshot, _ = sharded_monitor()
        engine = ClusterEngine(workers=2)
        trace = list(workloads.background_traffic(SUBNETS, count=40, seed=8))
        before = set(live_worker_pids())
        try:
            engine.run(snapshot.build_network(), trace)
            ours = set(live_worker_pids()) - before
            assert len(ours) == 2
        finally:
            engine.close()
        assert set(live_worker_pids()) == before

    def test_mixed_local_and_remote_lanes(self):
        """A pre-started daemon attaches by address next to a spawned
        local daemon; closing the engine leaves the attached daemon up
        (it is not ours to kill)."""
        process, host, port = spawn_worker_process(orphan_exit=True)
        try:
            engine = ClusterEngine(workers=1, addresses=[f"{host}:{port}"])
            try:
                snapshot, _ = sharded_monitor()
                trace = workloads.background_traffic(SUBNETS, count=150, seed=9)
                assert_cluster_equivalent(snapshot, trace, engine=engine)
                handles = engine.coordinator.handles()
                assert len(handles) == 2
                assert sum(1 for h in handles if h.process is None) == 1
                assert sum(h.jobs_done for h in handles) >= 2
            finally:
                engine.close()
            assert process.poll() is None  # attached daemon still alive
        finally:
            process.terminate()
            process.wait(timeout=15)


# -- fault injection -----------------------------------------------------------


class TestFaultInjection:
    def test_kill_worker_mid_run_requeues_byte_identical(self):
        """A daemon dying mid-run (chaos: abrupt exit on the next job)
        requeues its shard onto the survivor; the merged result is
        byte-identical to a sequential run."""
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=200, seed=13))
        engine = ClusterEngine(workers=2)
        try:
            engine.run(snapshot.build_network(), trace)  # warm the daemons
            victim = engine.coordinator.handles()[0]
            reply, _ = victim.request(wire.CHAOS, {"mode": "exit-on-next-run"})
            assert reply == wire.OK

            net_clu = snapshot.build_network()
            out = engine.run(net_clu, trace)
            net_seq = snapshot.build_network()
            reference = SequentialEngine().run(net_seq, trace)
            for a, b in zip(reference, out):
                assert record_view(a) == record_view(b)
            assert net_seq.global_store() == net_clu.global_store()
            assert net_seq.link_packets == net_clu.link_packets
            assert engine.last_run_stats["requeues"] >= 1
            assert engine.coordinator.worker_count() == 1
            assert not victim.alive
        finally:
            engine.close()

    def test_all_workers_dead_names_the_shard_then_recovers(self):
        """Only when no capacity remains does the failure surface — as a
        DataPlaneError naming the shard — and the next run starts a
        fresh cluster (the BrokenProcessPool recovery, cluster-shaped)."""
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=120, seed=3))
        engine = ClusterEngine(workers=2)
        try:
            engine.run(snapshot.build_network(), trace)
            for handle in engine.coordinator.handles():
                handle.request(wire.CHAOS, {"mode": "exit-on-next-run"})
            with pytest.raises(DataPlaneError, match="shard"):
                engine.run(snapshot.build_network(), trace)
            assert engine.coordinator is None  # dead cluster discarded
            out = engine.run(snapshot.build_network(), trace)  # fresh daemons
            assert len(out) == len(trace)
            assert engine.last_run_stats["workers"] == 2
        finally:
            engine.close()

    def test_worker_killed_between_runs_pruned_by_heartbeat(self):
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=100, seed=2))
        engine = ClusterEngine(workers=2)
        try:
            engine.run(snapshot.build_network(), trace)
            victim = engine.coordinator.handles()[1]
            victim.process.kill()
            victim.process.wait(timeout=15)
            net_clu = snapshot.build_network()
            out = engine.run(net_clu, trace)  # heartbeat prunes, run succeeds
            net_seq = snapshot.build_network()
            reference = SequentialEngine().run(net_seq, trace)
            for a, b in zip(reference, out):
                assert record_view(a) == record_view(b)
            assert engine.coordinator.worker_count() == 1
        finally:
            engine.close()

    def test_evicted_spec_is_reshipped_on_missing_reply(self):
        """The coordinator's view of worker caches can go stale (bounded
        worker-side caches evict).  A RUN against a missing spec gets an
        ERROR reply with ``missing`` — and a direct probe shows both
        halves of that protocol conversation."""
        process, host, port = spawn_worker_process(orphan_exit=True)
        handle = WorkerHandle(host, port, process=process)
        try:
            handle.connect()
            reply, payload = handle.request(wire.LOAD_NETWORK, {
                "key": 999, "program_key": 998, "blob": b"",
            })
            assert reply == wire.ERROR and payload["missing"] == "program"
            reply, payload = handle.request(wire.RUN_SHARD, {
                "network_key": 999, "ports": (), "variables": (),
                "state": {}, "batch": [],
            })
            assert reply == wire.ERROR and payload["missing"] == "network"
        finally:
            handle.close()

    def test_daemon_survives_stray_client_garbage(self):
        """A long-lived daemon on an open port meets port scanners and
        health probes: bytes that are not our protocol drop that
        connection, never the daemon."""
        process, host, port = spawn_worker_process(orphan_exit=True)
        handle = WorkerHandle(host, port, process=process)
        try:
            stray = socket.create_connection((host, port), timeout=5)
            stray.sendall(b"GET / HTTP/1.1\r\n\r\n")
            stray.close()
            handle.connect()  # daemon accepted the next coordinator
            assert handle.ping()
        finally:
            handle.close()

    def test_rejected_spec_is_an_error_reply_not_daemon_death(self):
        """A spec blob that fails to deserialize worker-side is a
        deterministic failure: the daemon answers ERROR and keeps
        serving — it must not die and masquerade as worker loss (which
        would cascade the same poison across every daemon)."""
        process, host, port = spawn_worker_process(orphan_exit=True)
        handle = WorkerHandle(host, port, process=process)
        try:
            handle.connect()
            reply, payload = handle.request(wire.LOAD_PROGRAM, {
                "key": 7, "blob": b"not a pickle",
            })
            assert reply == wire.ERROR
            assert "rejected" in payload["message"]
            handle.request(wire.LOAD_PROGRAM, {
                "key": 7, "blob": pickle.dumps({}),
            })
            reply, payload = handle.request(wire.LOAD_NETWORK, {
                "key": 8, "program_key": 7, "blob": b"garbage",
            })
            assert reply == wire.ERROR
            assert "rejected" in payload["message"]
            assert handle.ping()  # daemon survived both rejections
        finally:
            handle.close()

    def test_stale_cache_view_recovers_end_to_end(self):
        """Force the coordinator to believe a spec is cached that the
        worker does not hold: the missing-spec retry re-ships and the
        run still succeeds."""
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=80, seed=4))
        engine = ClusterEngine(workers=2)
        try:
            engine.run(snapshot.build_network(), trace)  # warm
            # Evict everything worker-side by restarting the daemons'
            # caches through chaos-free means: poison the coordinator's
            # view instead (the inverse direction is equivalent).
            net = snapshot.build_network()
            for handle in engine.coordinator.handles():
                handle.networks.add(net._exec_network_key)
                handle.programs.add(net._exec_program_key)
            out = engine.run(net, trace)
            reference = SequentialEngine().run(snapshot.build_network(), trace)
            for a, b in zip(reference, out):
                assert record_view(a) == record_view(b)
        finally:
            engine.close()
