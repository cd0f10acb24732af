"""Tests for the SnapController session API (snapshots, events, hot swap)."""

import dataclasses
import sys
from functools import partial
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.chimera import dns_tunnel_detect
from repro.apps.fast import stateful_firewall
from repro.apps.routing import assign_egress, default_subnets, port_assumption
from repro.core import controller as controller_module
from repro.core.controller import SnapController
from repro.core.options import CompilerOptions
from repro.core.result import EVENT_SCENARIOS, SCENARIO_PHASES
from repro.core.program import Program
from repro.lang import ast
from repro.dataplane.engine import get_engine
from repro.dataplane.network import Network
from repro.lang.errors import (
    PlacementError, RetiredNetworkError, SnapError, TopologyError,
)
from repro.lang.packet import make_packet
from repro.lang.state import Store
from repro.milp.results import validate_solution
from repro.milp.te import build_te_model
from repro.obs.tracing import TRACER
from repro.topology.campus import campus_topology
from repro.topology.igen import igen_topology
from repro.util.ipaddr import IPPrefix
from repro.workloads import (
    background_traffic, dns_tunnel_attack, replay, replay_obs,
)

from test_te_program import binding_campus

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from workloads import dns_tunnel_program  # noqa: E402


def campus_program(app_program=None, num_ports=6, threshold=3):
    subnets = default_subnets(num_ports)
    app = app_program or dns_tunnel_detect(threshold=threshold)
    policy = ast.Seq(app.policy, assign_egress(subnets))
    return Program(
        policy,
        assumption=port_assumption(subnets),
        state_defaults=app.state_defaults,
        name=f"{app.name}+egress",
    )


def dns_response(client, k):
    ip = lambda s: IPPrefix(s).network
    return make_packet(
        srcip=ip("10.0.1.1"), dstip=client, srcport=53, dstport=9999,
        **{"dns.rdata": ip(f"10.0.1.{50 + k}")},
    )


@pytest.fixture(scope="module")
def session():
    """One controller driven through the full Table 4 event sequence."""
    controller = SnapController(campus_topology(), campus_program())
    snapshots = [
        controller.submit(),
        controller.update_policy(campus_program(threshold=5)),
        controller.fail_link("C1", "C5"),
        controller.restore_link("C1", "C5"),
        controller.set_demands(
            {k: v * 2 for k, v in controller.demands.items()}
        ),
    ]
    return controller, snapshots


@pytest.fixture(scope="module")
def binding_session():
    """The same sequence where every TE event that reuses no certificate
    solves the LP: core links too small for the shortest walks
    (``binding_campus``)."""
    controller = SnapController(binding_campus(), campus_program())
    snapshots = [
        controller.submit(),
        controller.update_policy(campus_program(threshold=5)),
        controller.fail_link("C1", "C5"),
        controller.restore_link("C1", "C5"),
        controller.set_demands(
            {k: v * 1.05 for k, v in controller.demands.items()}
        ),
    ]
    return controller, snapshots


class TestSnapshotImmutability:
    def test_attribute_assignment_raises(self, session):
        _, snapshots = session
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshots[0].objective = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshots[0].generation = 99

    def test_mapping_fields_are_read_only(self, session):
        _, snapshots = session
        snap = snapshots[0]
        with pytest.raises(TypeError):
            snap.placement["blacklist"] = "C1"
        with pytest.raises(TypeError):
            snap.demands[(1, 6)] = 1.0
        with pytest.raises(TypeError):
            snap.model_stats["variables"] = -1

    def test_snapshot_detached_from_session_demands(self, session):
        controller, snapshots = session
        # The demand-change snapshot froze its own copy: it is not a view
        # of the controller's (mutable, session-internal) matrix.
        assert dict(snapshots[2].demands) != dict(snapshots[4].demands)
        assert dict(snapshots[4].demands) == dict(controller.demands)


class TestEventSequence:
    def test_generations_are_monotonic(self, session):
        _, snapshots = session
        assert [s.generation for s in snapshots] == [0, 1, 2, 3, 4]

    def test_event_provenance(self, session):
        _, snapshots = session
        assert [s.event for s in snapshots] == [
            "cold_start", "policy_change", "link_failure", "link_restore",
            "demand_change",
        ]
        assert all(s.scenario == EVENT_SCENARIOS[s.event] for s in snapshots)

    def test_phase_sets_follow_table4(self, session):
        _, snapshots = session
        assert set(snapshots[0].timer.durations) == set(
            SCENARIO_PHASES["cold_start"]
        )
        for snap in snapshots[2:]:
            assert set(snap.timer.durations) == {"P5", "P6"}

    def test_link_events_reroute(self, session):
        _, snapshots = session
        failed = snapshots[2].routing.path(1, 6)
        assert ("C1", "C5") not in set(zip(failed, failed[1:]))
        assert snapshots[3].routing.path(1, 6) == ("I1", "C1", "C5", "D4")
        # Placement is fixed across all TE events.
        assert all(
            dict(s.placement) == dict(snapshots[1].placement)
            for s in snapshots[2:]
        )

    @pytest.mark.parametrize("name", [
        "campus-ops", "isp-compile", "policy-churn", "monitor-replay",
    ])
    def test_no_event_runs_the_effect_analysis(self, name, monkeypatch):
        """The effect report is built on request (``analyze_effects``,
        lint), never by a compile event."""
        from repro.analysis import effects
        from tests.snapbench_programs import workload

        def refuse(*args, **kwargs):
            raise AssertionError("a compile event built an EffectReport")

        monkeypatch.setattr(effects, "EffectReport", refuse)
        wl = workload(name)
        controller = SnapController(wl.topology, wl.program())
        snapshots = [
            controller.submit(),
            controller.update_policy(wl.edits[0]),
            controller.fail_link(*wl.link),
            controller.restore_link(*wl.link),
        ]
        for snap in snapshots:
            assert "effects" not in snap.model_stats

    def test_te_events_route_by_walks(self, session):
        """With no capacity in the way, the failure and the demand change
        are certified shortest walks: no TE model is built."""
        controller, snapshots = session
        calls = controller.backend.calls
        assert (calls["te_walks"], calls["te_solves"]) == (2, 0)
        assert [s.model_stats["te_route"] for s in snapshots[2::2]] == ["walk", "walk"]
        assert snapshots[3].model_stats["solve_reused"] is True
        assert snapshots[3].routing is snapshots[1].routing

    def test_te_fallbacks_solve_and_the_restore_reuses(self, binding_session):
        """The failure and the demand change each solve an LP, and the
        restore hands back the pre-failure routing without a solve."""
        controller, snapshots = binding_session
        calls = controller.backend.calls
        assert calls["te_solves"] == 2
        assert [s.model_stats["te_route"] for s in snapshots[2::2]] == [
            "binding capacity", "binding capacity",
        ]
        assert snapshots[3].model_stats["solve_reused"] is True
        assert snapshots[3].routing is snapshots[1].routing
        # submit only: the update_policy edit (a threshold tweak) leaves
        # S_uv, the dependency constraints, and the demands unchanged, so
        # the incremental solve memo reuses the cold solution instead of
        # re-running the MILP.
        assert calls["st_solves"] == 1

    def test_effective_topology_threads_failures(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        snap = controller.fail_link("C1", "C5")
        # The snapshot's topology is the degraded one the solve saw...
        assert ("C1", "C5") not in {
            tuple(sorted((a, b))) for a, b, _ in snap.topology.links()
        }
        # ...while the session's base topology is never mutated.
        assert ("C1", "C5") in {
            tuple(sorted((a, b))) for a, b, _ in controller.topology.links()
        }
        restored = controller.restore_link("C1", "C5")
        assert restored.topology.num_directed_edges() == (
            controller.topology.num_directed_edges()
        )

    def test_policy_change_drops_the_old_placements_certificates(self):
        controller = SnapController(binding_campus(), campus_program())
        controller.submit()
        old = controller.fail_link("C1", "C5")
        controller.restore_link("C1", "C5")
        new = controller.update_policy(campus_program(stateful_firewall()))
        assert dict(new.placement) != dict(old.placement)
        # The first failure's certificate routes the old placement: the
        # same failure again must re-route the new one.
        failed = controller.fail_link("C1", "C5")
        assert failed.model_stats["solve_reused"] is False
        assert dict(failed.placement) == dict(new.placement)

    def test_events_require_submit(self):
        controller = SnapController(campus_topology(), campus_program())
        for call in (
            lambda: controller.update_policy(),
            lambda: controller.fail_link("C1", "C5"),
            lambda: controller.restore_link("C1", "C5"),
            lambda: controller.set_demands({}),
            lambda: controller.update_topology(campus_topology()),
            lambda: controller.network(),
        ):
            with pytest.raises(RuntimeError):
                call()

    def test_submit_requires_program(self):
        with pytest.raises(SnapError):
            SnapController(campus_topology()).submit()

    def test_failed_event_rolls_session_inputs_back(self):
        """An infeasible event must not desynchronize the session."""
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        controller.fail_link("C1", "C5")
        # C1-C5 + C1-C3 disconnects ports 1/3: the solve is infeasible.
        with pytest.raises(Exception):
            controller.fail_link("C1", "C3")
        # The failure set reverted to what `current` describes...
        assert controller.failed_links == frozenset({("C1", "C5")})
        assert controller.current.event == "link_failure"
        assert controller.generation == 1
        # ...and the session keeps working.
        restored = controller.restore_link("C1", "C5")
        assert restored.routing.path(1, 6) == ("I1", "C1", "C5", "D4")

    def test_failed_policy_update_keeps_previous_program(self):
        controller = SnapController(campus_topology(), campus_program())
        good = controller.submit()
        # A counter every flow must visit is unplaceable on the campus
        # graph (see examples/middlebox_consolidation.py): infeasible ST.
        subnets = default_subnets(6)
        monitor = ast.StateIncr("count", ast.Field("inport"))
        bad = Program(
            ast.Seq(ast.Parallel(monitor, ast.Id()), assign_egress(subnets)),
            assumption=port_assumption(subnets),
            state_defaults={"count": 0},
            name="unplaceable-monitor",
        )
        with pytest.raises(Exception):
            controller.update_policy(bad)
        # Rolled back: the session still describes the good program.
        assert controller.program is good.program
        assert controller.generation == 0
        follow_up = controller.fail_link("C1", "C5")
        assert follow_up.generation == 1
        assert dict(follow_up.placement) == dict(good.placement)

    def test_reroute_rejects_foreign_events_before_mutating(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        demands_before = dict(controller.demands)
        with pytest.raises(SnapError):
            controller.reroute(
                failed_links=[("C1", "C5")],
                demands={k: v * 2 for k, v in demands_before.items()},
                event="maintenance",
            )
        # The rejected event left no trace on the session.
        assert controller.failed_links == frozenset()
        assert dict(controller.demands) == demands_before
        assert controller.generation == 0

    def test_reroute_replaces_the_failure_set(self):
        """The bulk TE event: ``failed_links`` is the whole new set (``[]``
        restores everything, ``None`` keeps it)."""
        controller = SnapController(binding_campus(), campus_program())
        controller.submit()
        failed = controller.reroute(failed_links=[("C1", "C5")])
        assert failed.event == "topology_change"
        assert controller.failed_links == {("C1", "C5")}
        scaled = {k: v * 1.05 for k, v in controller.demands.items()}
        assert controller.reroute(demands=scaled).demands[(1, 6)] == scaled[(1, 6)]
        assert controller.failed_links == {("C1", "C5")}
        restored = controller.reroute(failed_links=[])
        assert controller.failed_links == frozenset()
        assert restored.routing.path(1, 6) == ("I1", "C1", "C5", "D4")

    @pytest.mark.parametrize("change", ["set_demands", "reroute"])
    def test_a_flow_set_change_answers_as_a_fresh_session(self, change):
        """A traffic matrix that drops a flow solves for that matrix and
        answers what a session given it from the start answers."""
        controller = SnapController(binding_campus(), campus_program())
        controller.submit()
        controller.fail_link("C1", "C5")
        calls = controller.backend.calls
        solves = calls["te_solves"]
        zeroed = {**controller.demands, (1, 6): 0.0}
        apply = {
            "set_demands": controller.set_demands,
            "reroute": lambda demands: controller.reroute(demands=demands),
        }[change]
        snap = apply(zeroed)
        assert calls["te_solves"] == solves + 1
        assert (1, 6) not in snap.routing.paths
        reference = SnapController(binding_campus(), campus_program())
        reference.submit()
        reference.update_topology(binding_campus(), demands=zeroed)
        expected = reference.fail_link("C1", "C5")
        assert snap.objective == expected.objective
        assert snap.routing.paths == expected.routing.paths
        assert dict(snap.placement) == dict(expected.placement)

    @pytest.mark.parametrize("event", [
        lambda c: c.fail_link("C1", "NOPE"),
        lambda c: c.restore_link("NOPE", "C5"),
        lambda c: c.reroute(failed_links=[("C1", "C5"), ("NOPE", "C3")]),
    ], ids=["fail_link", "restore_link", "reroute"])
    def test_unknown_link_changes_nothing(self, event):
        """A TE event naming a link the base topology lacks raises before
        the session changes, so nothing downstream sees a phantom failure
        (it would rename the effective topology, and with it the ST-solve
        memo's key)."""
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        with pytest.raises(TopologyError, match="NOPE"):
            event(controller)
        assert controller.failed_links == frozenset()
        assert controller.generation == 0
        # The cold routing's certificate survived ...
        assert controller.fail_link("C3", "C5").model_stats["solve_reused"] is True
        controller.restore_link("C3", "C5")
        # ... and an unchanged program still hits the solve memo.
        snap = controller.update_policy(controller.program)
        assert snap.model_stats["solve_reused"] is True
        calls = controller.backend.calls
        assert (calls["st_walks"], calls["st_solves"]) == (1, 0)

    def test_history_records_every_snapshot(self, session):
        controller, snapshots = session
        assert controller.history() == tuple(snapshots)
        assert controller.current is snapshots[-1]
        assert controller.generation == 4

    def test_history_is_bounded(self, monkeypatch):
        monkeypatch.setattr(controller_module, "HISTORY_LIMIT", 2)
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        controller.fail_link("C1", "C5")
        last = controller.restore_link("C1", "C5")
        kept = controller.history()
        assert len(kept) == 2
        assert [s.generation for s in kept] == [1, 2]
        assert controller.current is last

    def test_snapshots_hash_by_identity(self, session):
        _, snapshots = session
        assert len({*snapshots}) == len(snapshots)
        assert snapshots[0] != snapshots[1]


def undirected_links(topology) -> list:
    return sorted({tuple(sorted((a, b))) for a, b, _ in topology.links()})


def redundant_links(topology, unused) -> list:
    """Links whose loss keeps the graph connected, ``unused`` first."""
    graph = nx.Graph(undirected_links(topology))
    bridges = {tuple(sorted(edge)) for edge in nx.bridges(graph)}
    rest = [link for link in undirected_links(topology) if link not in bridges]
    return list(unused) + [link for link in rest if link not in unused]


#: Links the cold ST routing of ``campus_program()`` puts no traffic on.
CAMPUS_UNUSED = [("C3", "C5"), ("C4", "C6")]
#: The same for ``dns_tunnel_program(12)`` on ``igen_topology(14, 12, seed=0)``.
IGEN14_UNUSED = [("r12", "r6"), ("r12", "r7"), ("r12", "r8")]
#: HiGHS's default ``mip_rel_gap``: how close to optimal an ST solve is
#: proven, hence how close an ST certificate is.
MIP_REL_GAP = 1e-4


def certificate_cases():
    return {
        "campus": (campus_topology(), campus_program(), CAMPUS_UNUSED),
        "igen14": (
            igen_topology(14, num_ports=12, seed=0), dns_tunnel_program(12),
            IGEN14_UNUSED,
        ),
    }


def assert_obs_equivalent(network, trace, program, store):
    """What ``replay`` delivers, packet by packet, equals ``replay_obs``'s
    output, and the stores agree; returns the OBS store."""
    # The call replay() makes, keeping the per-packet records.
    results = get_engine(network.default_engine).run(network, trace)
    store, outputs = replay_obs(trace, program.full_policy(), store)
    for records, expected in zip(results, outputs):
        delivered = frozenset(
            r.packet.without("inport") for r in records if r.egress is not None
        )
        assert delivered == frozenset(p.without("inport") for p in expected)
    assert network.global_store() == store
    return store


class TestRoutingCertificates:
    """A routing optimal with failure set F0 stays optimal for any F ⊇ F0
    whose links it does not use: such link events reuse it, no solve."""

    def test_unused_link_failure_is_not_solved(self):
        program = campus_program()
        controller = SnapController(campus_topology(), program)
        cold = controller.submit()
        subnets = default_subnets(6)
        client, resolver = IPPrefix("10.0.6.10").network, IPPrefix("10.0.1.1").network
        trace = list(dns_tunnel_attack(client, 6, resolver, 1, 4, seed=3))
        trace += list(background_traffic(subnets, 40, seed=1))
        store = assert_obs_equivalent(
            controller.network(), trace, program, Store(program.state_defaults)
        )
        failed = controller.fail_link("C3", "C5")
        assert controller.backend.calls == {
            "st_walks": 1, "st_solves": 0, "te_walks": 0, "te_solves": 0,
        }
        assert failed.model_stats["solve_reused"] is True
        assert failed.routing is cold.routing and failed.rules is cold.rules
        assert failed.objective == cold.objective
        assert ("C3", "C5") not in undirected_links(failed.topology)
        assert_obs_equivalent(controller.network(), trace, program, store)

    def test_restore_hands_back_the_pre_failure_routing(self):
        controller = SnapController(campus_topology(), campus_program())
        cold = controller.submit()
        failed = controller.fail_link("C1", "C5")
        assert failed.model_stats["solve_reused"] is False
        # A TE event re-routes the compilation it inherits: the same
        # xFDD and the same hash-consing factory.
        assert failed.xfdd is cold.xfdd
        assert failed.diagram_factory is cold.diagram_factory
        restored = controller.restore_link("C1", "C5")
        assert restored.model_stats["solve_reused"] is True
        assert restored.routing is cold.routing
        assert controller.backend.calls["te_walks"] == 1
        # A second failure of the same link reuses the TE certificate.
        again = controller.fail_link("C1", "C5")
        assert again.routing is failed.routing
        assert controller.backend.calls["te_walks"] == 1

    def test_demand_changes_force_a_solve(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        controller.fail_link("C3", "C5")
        doubled = {k: v * 2 for k, v in controller.demands.items()}
        assert controller.set_demands(doubled).model_stats["solve_reused"] is False
        assert controller.backend.calls["te_walks"] == 1
        # The TE certificate just recorded covers an unused-link failure ...
        assert controller.fail_link("C4", "C6").model_stats["solve_reused"] is True
        # ... until the traffic matrix moves again.
        halved = {k: v / 2 for k, v in controller.demands.items()}
        snap = controller.reroute(demands=halved)
        assert snap.model_stats["solve_reused"] is False
        assert controller.backend.calls["te_walks"] == 2

    def test_span_says_which_events_solved(self, monkeypatch):
        monkeypatch.setattr(TRACER, "enabled", True)
        TRACER.reset()
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        controller.fail_link("C3", "C5")
        controller.fail_link("C1", "C5")
        assert [
            span["attrs"]["solve_reused"]
            for span in TRACER.spans("controller.link_failure")
        ] == [True, False]

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    @pytest.mark.parametrize("case", ["campus", "igen14"])
    def test_every_snapshot_is_feasible_valid_and_optimal(self, case, data):
        """Random link / demand event sequences: every snapshot's paths
        avoid the failed links, pass P6, and cost what a fresh TE solve
        of the same failure set costs (to the MIP gap)."""
        topology, program, unused = certificate_cases()[case]
        links = redundant_links(topology, unused)
        link = st.sampled_from(links)
        no_scale = st.none()
        events = data.draw(st.lists(st.one_of(
            st.tuples(st.just("fail_link"), link, no_scale),
            # Mostly a link that is down: the k-th failed one, if any.
            st.tuples(st.just("restore_link"), st.integers(0, 3), no_scale),
            st.tuples(
                st.just("reroute"), st.sets(link, max_size=2),
                st.sampled_from([None, 0.5, 2.0]),
            ),
        ), min_size=1, max_size=6))
        controller = SnapController(topology, program)
        cold = controller.submit()
        for name, arg, scale in events:
            demands = dict(controller.demands)
            if scale is not None:
                demands = {flow: demand * scale for flow, demand in demands.items()}
            if name == "reroute":
                wanted = frozenset(arg)
                event = partial(
                    controller.reroute, failed_links=arg,
                    demands=None if scale is None else demands,
                )
            else:
                if name == "restore_link":
                    down = sorted(controller.failed_links) or links
                    arg = down[arg % len(down)]
                toggle = frozenset.union if name == "fail_link" else frozenset.difference
                wanted = toggle(controller.failed_links, {arg})
                event = partial(getattr(controller, name), *arg)
            fresh = build_te_model(
                topology, demands, cold.mapping, cold.dependencies,
                dict(cold.placement),
            )
            for a, b in wanted:
                fresh.fail_link(a, b)
            try:
                snapshot = event()
            except PlacementError:
                with pytest.raises(PlacementError):
                    fresh.solve()  # the failure set really is infeasible
                continue
            assert controller.failed_links == wanted
            for path in snapshot.routing.paths.values():
                hops = {tuple(sorted(hop)) for hop in zip(path, path[1:])}
                assert hops.isdisjoint(wanted)
            validate_solution(
                snapshot.routing, snapshot.topology, snapshot.mapping,
                snapshot.dependencies,
            )
            assert snapshot.objective == pytest.approx(
                fresh.solve().objective, rel=MIP_REL_GAP
            )


class TestHotSwap:
    def test_update_policy_preserves_state(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        for k in range(2):
            network.inject(dns_response(client, k), 1)
        assert network.global_store().read("susp-client", (client,)) == 2

        # Live policy update: raise the threshold; same state variables.
        controller.update_policy(campus_program(threshold=5))
        swapped = controller.network()
        assert swapped is not network
        store = swapped.global_store()
        assert store.read("susp-client", (client,)) == 2
        assert store.read("blacklist", (client,)) is False

        # The carried-over counter keeps counting where it left off.
        for k in range(2, 4):
            swapped.inject(dns_response(client, k), 1)
        assert swapped.global_store().read("susp-client", (client,)) == 4

    def test_retired_variables_dropped_new_ones_fresh(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        network.inject(dns_response(client, 0), 1)
        controller.update_policy(campus_program(stateful_firewall()))
        swapped = controller.network()
        assert "susp-client" not in dict(controller.current.placement)
        assert swapped.global_store().read("established", (client, client)) is False

    def test_link_events_hot_swap_too(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        network.inject(dns_response(client, 0), 1)
        controller.fail_link("C1", "C5")
        swapped = controller.network()
        assert swapped is not network
        # Same xFDD + placement: the swap rewires routing but shares the
        # compiled switch programs (and so the state stores) — no
        # per-switch recompilation on a TE event.
        assert swapped.switches is network.switches
        assert swapped.global_store().read("susp-client", (client,)) == 1
        records = swapped.inject(dns_response(client, 1), 1)
        assert records and records[0].egress == 6

    def test_defaults_only_update_reaches_the_data_plane(self):
        """Same policy, new ``state_defaults``: xFDD root and placement
        are unchanged, but a state table keeps the default it was built
        with — the swap must rebuild and adopt, not rewire.  Checked
        against the OBS oracle on seen and unseen keys."""
        ip = lambda s: IPPrefix(s).network
        base = campus_program()
        controller = SnapController(campus_topology(), base)
        controller.submit()
        network = controller.network()
        seen = ip("10.0.6.10")
        before = [(dns_response(seen, 0), 1)]
        network.inject(*before[0])
        obs, _ = replay_obs(before, base.full_policy(), Store(base.state_defaults))

        # `orphan` now defaults to True: every unseen (client, server)
        # pair counts as an orphaned response and decrements on contact.
        defaults = {**base.state_defaults, "blacklist": 7, "orphan": True}
        changed = Program(
            base.policy, assumption=base.assumption,
            state_defaults=defaults, name=base.name,
        )
        snapshot = controller.update_policy(changed)
        swapped = controller.network()
        assert snapshot.xfdd is network.index.root
        assert dict(snapshot.placement) == network.placement
        assert swapped.switches is not network.switches
        assert swapped.global_store().variable("blacklist").default == 7
        carried = Store(defaults)
        for name in obs.names():
            for key, value in obs.variable(name).items():
                carried.write(name, key, value)

        contact = make_packet(
            srcip=ip("10.0.6.77"), dstip=ip("10.0.2.9"), srcport=4000, dstport=80
        )
        after = [(contact, 6), (dns_response(ip("10.0.6.77"), 1), 1)]
        results = swapped.inject_many(after)
        carried, outputs = replay_obs(after, changed.full_policy(), carried)
        for records, expected in zip(results, outputs):
            delivered = frozenset(
                r.packet.without("inport") for r in records if r.egress is not None
            )
            assert delivered == frozenset(p.without("inport") for p in expected)
        store = swapped.global_store()
        assert store == carried
        assert store.read("susp-client", (ip("10.0.6.77"),)) == 0  # -1, then +1
        assert store.read("susp-client", (seen,)) == 1  # adopted
        # A TE event after it keeps the new defaults (and takes the fast path).
        controller.fail_link("C1", "C5")
        assert controller.network().switches is swapped.switches

    def test_resubmit_is_a_genuine_cold_start(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        network.inject(dns_response(client, 0), 1)
        assert network.global_store().read("susp-client", (client,)) == 1
        controller.submit()  # cold restart: state must NOT carry over
        cold = controller.network()
        assert cold is not network
        assert cold.global_store().read("susp-client", (client,)) == 0

    def test_update_topology_with_new_switches_recompiles(self):
        """The rewire fast path must not smuggle an old switch set past a
        replacement topology that changed the graph's nodes."""
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        network.inject(dns_response(client, 0), 1)
        bigger = campus_topology()
        bigger.add_switch("CX")
        bigger.add_link("C5", "CX", 1000.0)
        controller.update_topology(bigger)
        swapped = controller.network()
        assert swapped.switches is not network.switches
        assert "CX" in swapped.switches
        # State still carried over via adopt_state on the rebuild path.
        assert swapped.global_store().read("susp-client", (client,)) == 1

    def test_an_unroutable_topology_change_re_places_the_state(self):
        """Port 6 re-homed beside port 5 on D3: flows 5-6 cannot reach
        the D4 state without revisiting D3, so the pinned TE route has no
        solution and the event re-places the state on the new graph."""
        controller = SnapController(campus_topology(), campus_program())
        cold = controller.submit()
        assert set(cold.placement.values()) == {"D4"}
        rehomed = campus_topology()
        rehomed.ports[6] = "D3"
        snap = controller.update_topology(rehomed)
        assert (snap.event, snap.scenario) == ("topology_replace", "cold_start")
        assert set(snap.timer.durations) == set(SCENARIO_PHASES["cold_start"])
        assert set(snap.placement.values()) == {"D3"}
        assert controller.topology is rehomed
        assert controller.network().placement == snap.placement

    def test_a_routable_topology_change_keeps_the_placement(self):
        """The re-place is only a fallback: a graph the pinned placement
        can route gets a TE event, with no ST search or solve."""
        controller = SnapController(campus_topology(), campus_program())
        cold = controller.submit()
        calls = dict(controller.backend.calls)
        bigger = campus_topology()
        bigger.add_link("C1", "C4", 10.0)
        snap = controller.update_topology(bigger)
        assert (snap.event, snap.scenario) == ("topology_change", "topology_change")
        assert dict(snap.placement) == dict(cold.placement)
        after = controller.backend.calls
        assert (after["st_walks"], after["st_solves"]) == (
            calls["st_walks"], calls["st_solves"]
        )

    def test_a_re_place_takes_the_given_demands(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        doubled = {k: 2 * v for k, v in controller.demands.items()}
        rehomed = campus_topology()
        rehomed.ports[6] = "D3"
        snap = controller.update_topology(rehomed, demands=doubled)
        assert snap.event == "topology_replace"
        assert dict(snap.demands) == doubled == dict(controller.demands)

    def test_link_events_after_a_re_place_keep_its_placement(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        rehomed = campus_topology()
        rehomed.ports[6] = "D3"
        placed = controller.update_topology(rehomed)
        failed = controller.fail_link("C1", "C5")
        assert failed.event == "link_failure"
        assert dict(failed.placement) == dict(placed.placement)
        path = failed.routing.path(1, 6)
        assert ("C1", "C5") not in set(zip(path, path[1:]))

    def test_a_graph_no_placement_can_serve_rolls_back(self):
        """Cut off ports 1 and 3 (C1 loses both core links): the pinned
        route and the re-place both fail, and the session is as before."""
        controller = SnapController(campus_topology(), campus_program())
        cold = controller.submit()
        live = controller.network()
        cut = campus_topology().without_link("C1", "C5").without_link("C1", "C3")
        with pytest.raises(PlacementError):
            controller.update_topology(cut)
        assert controller.current is cold
        assert controller.generation == cold.generation
        assert controller.topology is not cut
        assert controller.network() is live

    def test_reroute_takes_no_re_place_label(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        with pytest.raises(SnapError):
            controller.reroute(event="topology_replace")

    @staticmethod
    def _held_tables(network):
        return {
            name: network.switches[owner].store.variable(name)
            for name, owner in network.placement.items()
        }

    def test_state_tables_are_moved_not_copied(self):
        """After a rebuild the new owner's table *is* the object the old
        owner held — for a variable that keeps its switch and for one
        whose placement moves."""
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        network.inject(dns_response(client, 0), 1)
        held = self._held_tables(network)
        assert set(network.placement.values()) == {"D4"}

        controller.update_policy(campus_program(threshold=5))
        kept = controller.network()
        assert kept.placement == network.placement
        assert kept.switches is not network.switches
        for name in ("orphan", "susp-client"):
            assert kept.switches["D4"].store.variable(name) is held[name]
        # An empty table is not worth moving: the fresh one stays.
        assert len(held["blacklist"]) == 0
        assert kept.switches["D4"].store.variable("blacklist") is not held["blacklist"]

        # Port 6 re-homed on D3: the ST solve moves every variable there.
        rehomed = campus_topology()
        rehomed.ports[6] = "D3"
        controller.update_topology(rehomed)
        controller.update_policy()
        moved = controller.network()
        assert set(moved.placement.values()) == {"D3"}
        for name in ("orphan", "susp-client"):
            assert moved.switches["D3"].store.variable(name) is held[name]
        assert moved.inject(dns_response(client, 1), 1)[0].egress == 6
        assert held["susp-client"].get((client,)) == 2

    @pytest.mark.parametrize("event", ["update_policy", "fail_link"])
    def test_swapped_out_network_is_retired(self, event):
        """One rule on the rebuild and the ``rewire`` path: a network
        whose state has a successor raises from every driver, naming the
        generation that replaced it."""
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        arrival = (dns_response(client, 0), 1)
        network.inject(*arrival)
        if event == "update_policy":
            controller.update_policy(campus_program(threshold=5))
        else:
            controller.fail_link("C1", "C5")
        assert (controller.network().switches is network.switches) == (
            event == "fail_link"
        )
        drivers = [
            lambda: network.inject(*arrival),
            lambda: network.inject_many([arrival]),
            lambda: next(network.stream([arrival])),
            lambda: network.inject_concurrent([arrival]),
            lambda: network.global_store(),
            lambda: replay([arrival], network),
            lambda: controller.current.build_network().adopt_state(network),
        ]
        for drive in drivers:
            with pytest.raises(RetiredNetworkError, match="generation 1"):
                drive()
        # ... and none of them touched the state its successor holds.
        live = controller.network()
        assert live.retired_by is None
        assert live.global_store().read("susp-client", (client,)) == 1

    def test_cold_submit_and_direct_rewire_retire_nothing(self):
        controller = SnapController(campus_topology(), campus_program())
        snapshot = controller.submit()
        network = controller.network()
        arrival = (dns_response(IPPrefix("10.0.6.10").network, 0), 1)
        network.rewire(snapshot.topology, snapshot.routing)
        controller.submit()  # nothing is shared with a cold network
        assert controller.network() is not network
        assert network.retired_by is None
        assert network.inject(*arrival)[0].egress == 6

    @pytest.mark.parametrize("event", ["update_policy", "fail_link"])
    def test_failed_network_build_leaves_the_session_untouched(
        self, event, monkeypatch
    ):
        """The successor network is built before anything is published:
        if building it raises, ``current``, ``generation``, ``history``,
        the live network, its state and its un-retired status are what
        they were, and the next event succeeds."""
        controller = SnapController(campus_topology(), campus_program())
        first = controller.submit()
        network = controller.network()
        client = IPPrefix("10.0.6.10").network
        network.inject(dns_response(client, 0), 1)
        held = self._held_tables(network)

        def boom(*args, **kwargs):
            raise RuntimeError("no data plane today")

        other = campus_program(threshold=5)
        with monkeypatch.context() as patch:
            if event == "update_policy":
                patch.setattr(Network, "__init__", boom)
                fire = lambda: controller.update_policy(other)
            else:
                patch.setattr(Network, "rewire", boom)
                fire = lambda: controller.fail_link("C1", "C5")
            with pytest.raises(RuntimeError, match="no data plane today"):
                fire()
        assert controller.current is first
        assert controller.current.program is controller.program
        assert controller.generation == 0
        assert controller.history() == (first,)
        assert controller.failed_links == frozenset()
        assert controller.network() is network
        assert network.retired_by is None
        assert all(self._held_tables(network)[n] is v for n, v in held.items())
        assert len(held["susp-client"]) == 1
        network.inject(dns_response(client, 1), 1)

        assert fire().generation == 1
        assert network.retired_by == "generation 1"
        store = controller.network().global_store()
        assert store.read("susp-client", (client,)) == 2

    def test_no_network_until_asked(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        assert controller._network is None
        net = controller.network()
        assert controller.network() is net


class TestOptions:
    def test_option_census(self):
        """Every settable value is a reviewed decision: a field stays only
        if a caller needs a second value or it describes the deployment."""
        from repro.obs import TelemetryConfig

        assert {f.name for f in dataclasses.fields(CompilerOptions)} == {
            "solver_time_limit", "mip_rel_gap", "stateful_switches", "engine",
        }
        assert {f.name for f in dataclasses.fields(TelemetryConfig)} == {
            "enabled", "postcard_every", "snapshot_path",
        }

    def test_options_frozen(self):
        options = CompilerOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.mip_rel_gap = 0.1

    def test_stateful_switches_coerced_to_tuple(self):
        options = CompilerOptions(stateful_switches=["D4", "C1"])
        assert options.stateful_switches == ("D4", "C1")

    def test_keyword_overrides_build_options(self):
        controller = SnapController(
            campus_topology(), campus_program(), mip_rel_gap=0.01,
            solver_time_limit=30.0,
        )
        assert controller.options == CompilerOptions(
            mip_rel_gap=0.01, solver_time_limit=30.0
        )


class TestSolverStatus:
    """``model_stats["solver"]``: an incumbent returned at the time limit
    (HiGHS status 1) must not look like an optimum."""

    def test_optimum_is_recorded_for_st_and_te(self):
        controller = SnapController(
            campus_topology(), campus_program(), solver_time_limit=60.0
        )
        # The ST MILP and the TE LP run where the shortest walks do not fit.
        binding = SnapController(
            binding_campus(), campus_program(), solver_time_limit=60.0
        )
        solved = binding.submit(), binding.fail_link("C1", "C5")
        walked = controller.submit(), controller.fail_link("C1", "C5")
        for snapshot in (*solved, *walked):
            solver = snapshot.model_stats["solver"]
            assert solver["status"] == 0
            assert "Optimal" in solver["message"]
            assert set(solver) == {"status", "message", "mip_gap", "nodes", "lp_iterations"}
        # The ST MILP proves its gap at the root node; the TE LP has
        # neither a gap nor nodes to report, only its simplex iterations;
        # a certified walk, ST or TE, ran no simplex at all.
        st, te = (s.model_stats["solver"] for s in solved)
        assert (st["mip_gap"], st["nodes"]) == (0.0, 1)
        assert (te["mip_gap"], te["nodes"]) == (None, None)
        assert st["lp_iterations"] > 0 and te["lp_iterations"] > 0
        for walk in (s.model_stats["solver"] for s in walked):
            assert (walk["mip_gap"], walk["nodes"], walk["lp_iterations"]) == (None, None, 0)

    def test_time_limited_incumbent_is_distinguishable(self, monkeypatch):
        from repro.milp import modeling

        real_run = modeling.run_highs

        def at_the_limit(model, options):
            # What HiGHS returns when `time_limit` strikes with a feasible
            # point in hand (deterministically, unlike a real tiny limit).
            # The TE LP (no integer column) is solved without presolve,
            # the ST MILP without feasibility jump.
            own = ({"mip_heuristic_run_feasibility_jump": False}
                   if model.num_integer_vars else {"presolve": "off"})
            assert options == {"output_flag": False, "time_limit": 0.5, **own}
            result = real_run(model, options)
            result.status = 1
            result.message = "Time limit reached. (HiGHS Status 13: Time limit reached)"
            result.mip_gap, result.nodes, result.lp_iterations = 0.9, 7, 1234
            return result

        monkeypatch.setattr(modeling, "run_highs", at_the_limit)
        controller = SnapController(
            binding_campus(), campus_program(), solver_time_limit=0.5
        )
        assert controller.submit().model_stats["solver"] == {
            "status": 1,
            "message": "Time limit reached. (HiGHS Status 13: Time limit reached)",
            "mip_gap": 0.9,
            "nodes": 7,
            "lp_iterations": 1234,
        }
        # An incumbent certifies nothing: even a link it does not use
        # is re-solved.
        assert controller.fail_link("C3", "C5").model_stats["solve_reused"] is False
        assert controller.fail_link("C1", "C5").model_stats["solver"]["status"] == 1
        # A certified walk proves its own optimum, whatever the ST said.
        walked = SnapController(
            campus_topology(), campus_program(), solver_time_limit=0.5
        )
        walked.submit()
        assert walked.fail_link("C1", "C5").model_stats["solver"]["status"] == 0
