"""Tests for the unified telemetry layer (:mod:`repro.obs`).

The load-bearing properties:

* the metrics registry is exact under concurrent hammering and its
  Prometheus exposition passes the grammar validator;
* spans nest parent/child on one thread and stitch across the cluster
  wire (worker spans adopt the coordinator's trace id);
* postcard sampling is **behaviour-preserving**: a sampled replay is
  field-for-field identical to an unsampled one — records, stores,
  link counters — on every engine, because the traced switch code is
  the plain generated code plus recorder calls;
* telemetry off means the fast paths stay fast: the sequential engine
  takes its batch path, record methods are branch-only, and a replay
  stays within a loose factor of the disabled run (the measured cost
  is snapbench's ``obs.telemetry.ns_per_pkt`` row).
"""

import json
import threading

import pytest

from repro import obs, workloads
from repro.cluster import ClusterEngine
from repro.dataplane.engine import (
    SequentialEngine,
    ShardedEngine,
    get_engine,
)
from repro.lang.errors import DataPlaneError
from repro.obs import postcards
from repro.obs.metrics import MetricsRegistry, validate_prometheus_text
from repro.obs.runstats import publish_run
from repro.obs.tracing import NOOP_SPAN, TRACER, Tracer
from repro.obs import __main__ as obs_cli
from repro.workloads import replay

from tests.test_engine import (
    SUBNETS,
    compiled,
    flat,
    links_after,
    record_view,
    sharded_monitor,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with default telemetry, empty rings."""
    obs.configure(obs.TelemetryConfig())
    TRACER.reset()
    postcards.reset()
    yield
    obs.configure(obs.TelemetryConfig())
    TRACER.reset()
    postcards.reset()


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help").labels(kind="a").inc()
        registry.counter("t_total").labels(kind="a").inc(4)
        registry.gauge("t_gauge").set(7)
        registry.gauge("t_gauge").labels().dec(2)
        hist = registry.histogram("t_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(50.0)  # beyond the last bound: +Inf only

        snap = registry.snapshot()
        assert snap["t_total"]["series"][0]["value"] == 5
        assert snap["t_total"]["series"][0]["labels"] == {"kind": "a"}
        assert snap["t_gauge"]["series"][0]["value"] == 5
        series = snap["t_seconds"]["series"][0]["value"]
        assert series["count"] == 3
        assert series["buckets"] == {"0.1": 1, "1.0": 2}

    def test_registration_is_idempotent_but_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("t_total")
        assert registry.counter("t_total") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("t_total")
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("0bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("t_ok").labels(**{"bad-label": "x"})

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        child = registry.counter("t_total").labels(kind="a")
        child.inc(100)
        registry.histogram("t_seconds").observe(1.0)
        assert child.value == 0
        # Handles registered while disabled record once enabled.
        registry.enabled = True
        child.inc()
        assert child.value == 1

    def test_exact_under_eight_thread_hammering(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total")
        gauge = registry.gauge("t_gauge")
        hist = registry.histogram("t_seconds")
        rounds = 2000

        def hammer(thread_index):
            mine = counter.labels(thread=str(thread_index % 2))
            for _ in range(rounds):
                mine.inc()
                gauge.inc()
                hist.observe(0.001)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Two label sets, four threads each: not one increment lost.
        assert sum(c.value for c in counter.children()) == 8 * rounds
        assert gauge.labels().value == 8 * rounds
        assert hist.labels().count == 8 * rounds

    def test_prometheus_output_is_grammar_valid(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "with help").labels(
            path='quo"ted\\slash', kind="a b"
        ).inc(2)
        registry.histogram("t_seconds", "timings").observe(0.3)
        text = registry.render_prometheus()
        assert validate_prometheus_text(text) == []
        assert "t_seconds_bucket" in text and "t_seconds_count" in text

    def test_validator_rejects_malformed_text(self):
        bad = "bad metric line\n# TYPE t_seconds histogram\n"
        problems = validate_prometheus_text(bad)
        assert any("malformed sample" in p for p in problems)
        assert any("missing its _bucket" in p for p in problems)


# -- trace spans --------------------------------------------------------------


class TestSpans:
    def test_nesting_records_parent_child(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        inner_rec, outer_rec = tracer.spans()
        assert inner_rec["name"] == "inner"
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert inner_rec["duration"] is not None

    def test_explicit_dict_parent_stitches_the_trace(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            context = outer.context()
        with tracer.span("remote", parent=context) as remote:
            assert remote.trace_id == context["trace_id"]
            assert remote.parent_id == context["span_id"]

    def test_disabled_tracer_yields_shared_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("anything") as span:
            assert span is NOOP_SPAN
            span.set_attr("k", "v")  # all no-ops
        assert tracer.spans() == []

    def test_ring_is_bounded(self):
        tracer = Tracer(ring_size=8)
        for index in range(20):
            with tracer.span("s", index=index):
                pass
        spans = tracer.spans()
        assert len(spans) == 8
        assert spans[0]["attrs"]["index"] == 12

    def test_capture_slices_out_one_jobs_spans(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        with tracer.capture() as captured:
            with tracer.span("job"):
                pass
        assert [s["name"] for s in captured] == ["job"]
        tracer.adopt(captured)
        assert [s["name"] for s in tracer.spans()].count("job") == 2


# -- postcards: behaviour-preserving sampling --------------------------------


def _monitor_nets():
    snapshot, _ = sharded_monitor()
    return snapshot


def assert_sampled_run_identical(make_engine, every=3, count=60):
    """Engine run with sampling on ≡ the same run with sampling off."""
    snapshot = _monitor_nets()
    trace = list(workloads.background_traffic(SUBNETS, count=count, seed=9))

    net_plain = snapshot.build_network()
    plain = make_engine().run(net_plain, trace)

    net_sampled = snapshot.build_network()
    with postcards.sampling(every):
        sampled = make_engine().run(net_sampled, trace)

    assert len(plain) == len(sampled) == len(trace)
    for per_plain, per_sampled in zip(plain, sampled):
        assert record_view(per_plain) == record_view(per_sampled)
    assert net_plain.global_store() == net_sampled.global_store()
    assert net_plain.link_packets == net_sampled.link_packets
    assert record_view(flat(plain)) == record_view(flat(sampled))

    cards = postcards.postcards()
    assert {card["index"] for card in cards} == set(range(0, count, every))
    return cards


class TestPostcards:
    def test_sampler_is_deterministic_on_index(self):
        sampler = postcards.PostcardSampler(4)
        assert [i for i in range(10) if sampler.should(i)] == [0, 4, 8]
        with pytest.raises(ValueError):
            postcards.PostcardSampler(0)

    def test_sequential_sampled_run_identical_and_postcards_full(self):
        cards = assert_sampled_run_identical(SequentialEngine)
        card = cards[0]
        kinds = [event["ev"] for event in card["events"]]
        assert "process" in kinds  # visited at least one switch
        assert "hop" in kinds or any(
            k in ("emit", "drop", "pause") for k in kinds
        )
        # The monitor app increments count[inport] on every packet.
        assert any(k in ("state_delta", "state_write") for k in kinds)
        assert any(k in ("emit", "drop") for k in kinds)
        assert all(
            delivery["egress"] is not None or delivery["hops"] >= 0
            for delivery in card["deliveries"]
        )

    def test_golden_card_pause_and_resume_on_the_owner_switch(self):
        """One pinned card: a packet tests state at its ingress, pauses
        on a variable owned two hops away, resumes there and is emitted
        one hop short of its egress.  The recorder hooks sit in the
        walker and the opcode loop; this is the event order they must
        keep (recorded from the two-walker implementation)."""
        from repro.analysis.dependency import analyze_dependencies
        from repro.analysis.packet_state import packet_state_mapping
        from repro.dataplane.network import Network
        from repro.lang import ast, make_packet
        from repro.milp.results import RoutingPaths
        from repro.topology.graph import Topology
        from repro.topology.traffic import uniform_traffic_matrix
        from repro.xfdd.build import build_xfdd

        topo = Topology("line")
        for name in "abcd":
            topo.add_switch(name)
        for left, right in ("ab", "bc", "cd"):
            topo.add_link(left, right, 100.0)
        topo.attach_port(1, "a")
        topo.attach_port(2, "d")
        topo.validate()
        policy = ast.Seq(
            ast.If(
                ast.StateTest("flag", ast.Field("srcip"), ast.Value(False)),
                ast.Seq(
                    ast.StateMod("last", ast.Field("srcip"), ast.Field("dstport")),
                    ast.StateIncr("hits", ast.Field("srcip")),
                ),
                ast.Id(),
            ),
            ast.Mod("outport", 2),
        )
        placement = {"flag": "a", "last": "c", "hits": "c"}
        deps = analyze_dependencies(policy)
        xfdd = build_xfdd(policy, state_rank=deps.state_rank)
        network = Network(
            topo, xfdd, placement,
            RoutingPaths({(1, 2): tuple("abcd"), (2, 1): tuple("dcba")}, placement),
            packet_state_mapping(xfdd, (1, 2), (1, 2)),
            uniform_traffic_matrix((1, 2), 1.0),
            {"flag": False, "hits": 0},
        )
        with postcards.sampling(1):
            (records,) = SequentialEngine().run(
                network, [(make_packet(srcip=7, dstport=80), 1)]
            )
        assert [(r.egress, r.hops) for r in records] == [(2, 3)]
        (card,) = postcards.postcards()
        assert card == {
            "index": 0,
            "port": 1,
            "events": [
                {"ev": "process", "switch": "a"},
                {"ev": "state_test", "var": "flag", "key": [7],
                 "value": False, "result": True},
                {"ev": "pause", "var": "last"},
                {"ev": "hop", "link": ["a", "b"]},
                {"ev": "hop", "link": ["b", "c"]},
                {"ev": "process", "switch": "c"},
                {"ev": "state_write", "var": "last", "key": [7], "value": 80},
                {"ev": "state_delta", "var": "hits", "key": [7], "delta": 1},
                {"ev": "emit"},
                {"ev": "hop", "link": ["c", "d"]},
            ],
            "deliveries": [{"egress": 2, "hops": 3}],
        }

    def test_streamed_sampled_run_files_the_same_postcards(self):
        """``stream`` under an active sampler: the records, sampled
        indices and postcards of the eager ``run``."""
        snapshot = _monitor_nets()
        trace = list(workloads.background_traffic(SUBNETS, count=40, seed=4))
        net_run, net_stream = snapshot.build_network(), snapshot.build_network()
        with postcards.sampling(3):
            ran = SequentialEngine().run(net_run, trace)
        run_cards = postcards.postcards()
        postcards.reset()
        with postcards.sampling(3):
            streamed = list(net_stream.stream(trace))
        assert [record_view(r) for r in streamed] == [record_view(r) for r in ran]
        assert net_stream.link_packets == net_run.link_packets
        assert [card["index"] for card in run_cards] == list(range(0, 40, 3))
        assert postcards.postcards() == run_cards

    def test_sharded_sampled_run_identical(self):
        assert_sampled_run_identical(ShardedEngine)

    def test_process_pool_sampled_run_identical(self):
        assert_sampled_run_identical(lambda: get_engine("process"), count=30)

    def test_postcards_count_metric_tracks_ring(self):
        before = obs.REGISTRY.counter("snap_postcards_total").labels().value
        assert_sampled_run_identical(SequentialEngine, every=10, count=20)
        after = obs.REGISTRY.counter("snap_postcards_total").labels().value
        assert after - before == 2


# -- engine spans and run stats -----------------------------------------------


class TestEngineTelemetry:
    def test_sharded_run_emits_engine_and_lane_spans(self):
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=30, seed=3))
        ShardedEngine().run(snapshot.build_network(), trace)
        runs = TRACER.spans("engine.run")
        assert runs and runs[-1]["attrs"]["engine"] == "sharded"
        lanes = [
            s for s in TRACER.spans("engine.lane")
            if s["trace_id"] == runs[-1]["trace_id"]
        ]
        assert len(lanes) == runs[-1]["attrs"]["lanes"]
        assert all(s["parent_id"] == runs[-1]["span_id"] for s in lanes)

    def test_run_stats_publish_feeds_the_registry(self):
        runs = obs.REGISTRY.counter("snap_engine_runs_total")
        packets = obs.REGISTRY.counter("snap_engine_packets_total")
        before = runs.labels(engine="t-pub").value
        publish_run("t-pub", {"lanes": 3, "payload_bytes": 100}, packets=17)
        assert runs.labels(engine="t-pub").value == before + 1
        assert packets.labels(engine="t-pub").value >= 17
        lanes = obs.REGISTRY.gauge("snap_engine_lanes")
        assert lanes.labels(engine="t-pub").value == 3

    def test_failed_replay_reports_the_packets_that_ran(self):
        """A packet that raises ends a streamed replay; the packets
        folded before it still reach the ``replay`` span and
        ``snap_replay_packets_total``."""
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        good = list(workloads.background_traffic(SUBNETS, count=7, seed=2))
        trace = good + [(good[0][0], 99)] + good  # port 99 does not exist
        total = obs.REGISTRY.counter("snap_replay_packets_total").labels()
        before = total.value
        with pytest.raises(DataPlaneError, match="no OBS port 99"):
            replay(trace, network)
        assert total.value == before + 7
        attrs = TRACER.spans("replay")[-1]["attrs"]
        assert (attrs["packets"], attrs["delivered"]) == (7, 7)
        assert network.link_packets == links_after(snapshot, good)

    def test_disabled_telemetry_keeps_the_sequential_fast_path(self):
        """Telemetry off: no spans, no postcards, and exactly the records,
        state and link counts of a run with telemetry on."""
        snapshot, _ = compiled(policy=workloads_noop_policy())
        trace = list(workloads.background_traffic(SUBNETS, count=12, seed=1))
        net_on = snapshot.build_network()
        on = SequentialEngine().run(net_on, trace)

        obs.configure(False)
        TRACER.reset()
        net_off = snapshot.build_network()
        off = SequentialEngine().run(net_off, trace)
        assert TRACER.spans() == []
        assert postcards.postcards() == []
        assert [record_view(r) for r in off] == [record_view(r) for r in on]
        assert net_off.global_store() == net_on.global_store()
        assert net_off.link_packets == net_on.link_packets


def workloads_noop_policy():
    from repro.apps import assign_egress

    return assign_egress(SUBNETS)


# -- cluster round trip -------------------------------------------------------


class TestClusterTelemetry:
    def test_worker_spans_and_postcards_cross_the_wire(self):
        snapshot, _ = sharded_monitor()
        trace = list(workloads.background_traffic(SUBNETS, count=40, seed=5))

        net_seq = snapshot.build_network()
        seq = SequentialEngine().run(net_seq, trace)

        engine = ClusterEngine(workers=2)
        try:
            net_clu = snapshot.build_network()
            with postcards.sampling(5):
                clu = engine.run(net_clu, trace)
        finally:
            engine.close()

        # Sampling over the wire is still behaviour-preserving.
        for per_seq, per_clu in zip(seq, clu):
            assert record_view(per_seq) == record_view(per_clu)
        assert net_seq.global_store() == net_clu.global_store()
        assert net_seq.link_packets == net_clu.link_packets

        runs = [
            s for s in TRACER.spans("engine.run")
            if s["attrs"].get("engine") == "cluster"
        ]
        assert runs
        run = runs[-1]
        workers = [
            s for s in TRACER.spans("worker.run_shard")
            if s["trace_id"] == run["trace_id"]
        ]
        # Every shard's worker span stitched into the coordinator trace,
        # parented directly under engine.run, from a different process.
        assert len(workers) == run["attrs"]["lanes"]
        parent_pid = run["span_id"].split("-")[0]
        for span in workers:
            assert span["parent_id"] == run["span_id"]
            assert span["span_id"].split("-")[0] != parent_pid

        # The workers' sampled postcards came back in the RESULT frames.
        cards = postcards.postcards()
        assert {c["index"] for c in cards} == set(range(0, 40, 5))
        assert engine.last_run_stats["workers"] == 2


# -- configuration and snapshot ----------------------------------------------


class TestConfiguration:
    def test_resolve_config_accepts_bool_str_and_config(self):
        assert obs.resolve_config(True).enabled is True
        assert obs.resolve_config("off").enabled is False
        config = obs.TelemetryConfig(postcard_every=7)
        assert obs.resolve_config(config) is config
        with pytest.raises(ValueError):
            obs.resolve_config("sometimes")
        with pytest.raises(ValueError):
            obs.TelemetryConfig(postcard_every=-1)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("SNAP_TELEMETRY", "off")
        monkeypatch.setenv("SNAP_TELEMETRY_POSTCARDS", "9")
        config = obs.resolve_config(None)
        assert config.enabled is False
        assert config.postcard_every == 9

    def test_configure_flips_the_shared_switches(self):
        obs.configure(obs.TelemetryConfig(enabled=False, postcard_every=4))
        assert obs.REGISTRY.enabled is False
        assert TRACER.enabled is False
        assert postcards.active_sampler().every == 4

    def test_write_snapshot_roundtrips(self, tmp_path):
        with TRACER.span("t.snapshot"):
            pass
        path = obs.write_snapshot(str(tmp_path / "snap.json"))
        data = json.loads(open(path).read())
        assert data["meta"]["telemetry"]["metrics"] is True
        assert any(s["name"] == "t.snapshot" for s in data["spans"])
        assert validate_prometheus_text(data["prometheus"]) == []
        assert obs.write_snapshot(None) is None  # no path configured


# -- CLI + acceptance flow ----------------------------------------------------


class TestCli:
    def test_check_prom_passes(self, capsys):
        assert obs_cli.main(["check-prom"]) == 0
        assert "prometheus exporter ok" in capsys.readouterr().out

    def test_registered_but_never_observed_families_are_not_exported(self):
        # What a fresh `python -m repro.obs check-prom` process holds:
        # module-level handles nothing has recorded on yet.  A bare
        # `# TYPE ... histogram` line would fail the validator.
        registry = obs.MetricsRegistry()
        registry.histogram("snap_idle_seconds", "never observed")
        registry.counter("snap_idle_total", "never incremented")
        assert registry.render_prometheus() == ""
        registry.histogram("snap_idle_seconds").observe(0.5)
        text = registry.render_prometheus()
        assert "# TYPE snap_idle_seconds histogram" in text
        assert "snap_idle_total" not in text
        assert validate_prometheus_text(text) == []

    def test_dump_renders_compile_spans_metrics_and_postcards(
        self, tmp_path, capsys
    ):
        # The acceptance flow: compile, replay with sampling, snapshot,
        # then `python -m repro.obs dump` must show compile-phase spans,
        # per-lane engine metrics, and at least one sampled postcard.
        snapshot, _ = sharded_monitor()
        network = snapshot.build_network()
        trace = workloads.background_traffic(SUBNETS, count=24, seed=4)
        with postcards.sampling(6):
            stats = replay(trace, network, engine=ShardedEngine())
        assert stats.sent == 24
        path = obs.write_snapshot(str(tmp_path / "telemetry.json"))

        assert obs_cli.main(["dump", path]) == 0
        out = capsys.readouterr().out
        assert "compile.phase" in out
        assert "engine.lane" in out and "engine.run" in out
        assert "snap_engine_packets_total" in out
        assert "pkt#0" in out  # index 0 is always sampled

    def test_dump_prometheus_is_valid(self, tmp_path, capsys):
        path = obs.write_snapshot(str(tmp_path / "t.json"))
        assert obs_cli.main(["dump", path, "--prometheus"]) == 0
        assert validate_prometheus_text(capsys.readouterr().out) == []
