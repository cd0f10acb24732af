"""Integration tests for the compile scenarios of Table 4, end to end:
cold start, policy change, topology change, and the §2.1 DNS-tunnel
behaviour on the simulated data plane."""

import pytest

from repro.apps.chimera import dns_tunnel_detect
from repro.apps.fast import stateful_firewall
from repro.apps.routing import assign_egress, default_subnets, port_assumption
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.core.result import SCENARIO_PHASES
from repro.lang import ast
from repro.lang.packet import make_packet
from repro.topology.campus import campus_topology
from repro.util.ipaddr import IPPrefix

from test_te_program import binding_campus


def campus_program(app_program=None, num_ports=6):
    subnets = default_subnets(num_ports)
    app = app_program or dns_tunnel_detect()
    policy = ast.Seq(app.policy, assign_egress(subnets))
    return Program(
        policy,
        assumption=port_assumption(subnets),
        state_defaults=app.state_defaults,
        name=f"{app.name}+egress",
    )


@pytest.fixture(scope="module")
def cold_result():
    controller = SnapController(campus_topology(), campus_program())
    return controller, controller.submit()


class TestColdStart:
    def test_all_phases_timed(self, cold_result):
        _, result = cold_result
        assert set(result.timer.durations) == {"P1", "P2", "P3", "P4", "P5", "P6"}

    def test_placement_on_d4(self, cold_result):
        _, result = cold_result
        assert set(result.placement.values()) == {"D4"}

    def test_paper_paths(self, cold_result):
        """§2.2: I1/D1 traffic reaches D4 via C1 and C5; I2/D2 via C2, C6."""
        _, result = cold_result
        assert result.routing.path(1, 6) == ("I1", "C1", "C5", "D4")
        assert result.routing.path(2, 6) == ("I2", "C2", "C6", "D4")
        assert result.routing.path(3, 6)[0] == "D1"

    def test_model_stats_recorded(self, cold_result):
        _, result = cold_result
        # Certified shortest walks placed the state: no MILP was built.
        assert result.model_stats["st_route"] == "walk"
        solver = result.model_stats["solver"]
        assert (solver["mip_gap"], solver["nodes"], solver["lp_iterations"]) == (None, None, 0)
        # Where capacity binds the MILP decides, and says how big it was.
        solved = SnapController(binding_campus(), campus_program()).submit()
        assert solved.model_stats["st_route"] == "binding capacity"
        assert solved.model_stats["integer_variables"] > 0

    def test_scenario_time_sums_table4_phases(self, cold_result):
        _, result = cold_result
        assert result.scenario_time("cold_start") == pytest.approx(
            sum(result.timer.durations.values())
        )
        assert result.scenario_time("topology_change") == pytest.approx(
            result.timer.durations["P5"] + result.timer.durations["P6"]
        )


class TestScenarios:
    def test_policy_change_phases(self):
        controller = SnapController(campus_topology(), campus_program())
        controller.submit()
        result = controller.update_policy(campus_program(stateful_firewall()))
        assert result.scenario == "policy_change"
        assert "orphan" not in result.placement
        assert "established" in result.placement

    def test_topology_change_reuses_placement(self):
        controller = SnapController(campus_topology(), campus_program())
        cold = controller.submit()
        result = controller.reroute()
        assert result.placement == cold.placement
        assert set(result.timer.durations) == {"P5", "P6"}

    def test_topology_change_requires_cold_start(self):
        controller = SnapController(campus_topology(), campus_program())
        with pytest.raises(RuntimeError):
            controller.reroute()

    def test_link_failure_rerouting(self):
        controller = SnapController(campus_topology(), campus_program())
        cold = controller.submit()
        assert cold.routing.path(1, 6) == ("I1", "C1", "C5", "D4")
        degraded = campus_topology().without_link("C1", "C5")
        result = controller.update_topology(degraded)
        path = result.routing.path(1, 6)
        assert ("C1", "C5") not in list(zip(path, path[1:]))
        assert path[0] == "I1" and path[-1] == "D4"

    def test_scenario_phase_sets_match_table4(self):
        assert SCENARIO_PHASES["cold_start"] == ("P1", "P2", "P3", "P4", "P5", "P6")
        assert SCENARIO_PHASES["policy_change"] == ("P1", "P2", "P3", "P5", "P6")
        assert SCENARIO_PHASES["topology_change"] == ("P5", "P6")


class TestEndToEndDnsTunnel:
    """Behavioural test of the §2.1 scenario on the simulated data plane."""

    def _attack_packets(self, n):
        ip = lambda s: IPPrefix(s).network
        client = ip("10.0.6.10")
        packets = []
        for k in range(n):
            packets.append(
                (
                    make_packet(
                        srcip=ip("10.0.1.1"),
                        dstip=client,
                        srcport=53,
                        dstport=9999,
                        **{"dns.rdata": ip(f"10.0.1.{50 + k}")},
                    ),
                    1,
                )
            )
        return packets

    def test_unused_responses_blacklist_client(self):
        result = SnapController(campus_topology(), campus_program()).submit()
        net = result.build_network()
        for pkt, port in self._attack_packets(3):
            records = net.inject(pkt, port)
            assert records and records[0].egress == 6
        store = net.global_store()
        client = IPPrefix("10.0.6.10").network
        assert store.read("susp-client", (client,)) == 3
        assert store.read("blacklist", (client,)) is True

    def test_used_responses_are_benign(self):
        result = SnapController(campus_topology(), campus_program()).submit()
        net = result.build_network()
        ip = lambda s: IPPrefix(s).network
        client = ip("10.0.6.10")
        server = ip("10.0.1.50")
        # DNS response to the client...
        net.inject(
            make_packet(
                srcip=ip("10.0.1.1"), dstip=client, srcport=53, dstport=9,
                **{"dns.rdata": server},
            ),
            1,
        )
        # ... followed by the client using the resolved address.
        net.inject(
            make_packet(srcip=client, dstip=server, srcport=1234, dstport=80), 6
        )
        store = net.global_store()
        assert store.read("susp-client", (client,)) == 0
        assert store.read("orphan", (client, server)) is False
