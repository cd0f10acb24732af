"""TE events by certified shortest walks (``repro.milp.te.shortest_walk_routing``).

With the placement fixed, one cheapest ``1/c`` walk per flow through its
owner switches is the TE optimum when every walk is simple, fits every
capacity and takes the cheapest dependency-consistent waypoint order;
otherwise the walk names why and the controller builds and solves the LP.
The oracle is that LP (``build_te_model``), itself gated against Table 2
in ``tests/test_te_program.py`` and ``tests/test_milp_assembly.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.analysis.dependency import DependencyInfo
from repro.analysis.packet_state import PacketStateMapping
from repro.apps.routing import assign_egress, default_subnets, port_assumption
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.dataplane.network import Network
from repro.lang.errors import DataPlaneError, PlacementError
from repro.lang.packet import make_packet
from repro.milp.results import Segments, _stitch_path, extract_paths, validate_solution
from repro.milp.te import build_te_model, shortest_walk_routing
from repro.obs.tracing import TRACER
from repro.topology.campus import campus_topology
from repro.util.ipaddr import IPPrefix

from snapbench_programs import WORKLOADS, workload
from test_controller import campus_program, undirected_links
from test_te_program import binding_campus, chorded_ring, funnel, topology


def problem(needed=None, dep=(), ports=(1, 2, 3)):
    """``(mapping, dependencies)`` for a hand-built problem."""
    mapping = PacketStateMapping(needed or {}, ports, ports)
    graph = nx.DiGraph(list(dep))
    graph.add_nodes_from(sorted(mapping.all_state_vars()))
    return mapping, DependencyInfo(graph)


class TestSegments:
    def diamond(self):
        """``s`` to ``t`` over two hops of capacity 1, or three of 10."""
        return topology(
            [("s", "a", 1.0), ("a", "t", 1.0),
             ("s", "b", 10.0), ("b", "c", 10.0), ("c", "t", 10.0)],
            {1: "s", 2: "t"},
        )

    def test_the_cheapest_route_is_not_the_fewest_hops(self):
        graph = self.diamond().graph
        assert nx.shortest_path(graph, "s", "t") == ["s", "a", "t"]
        assert Segments(graph).path("s", "t") == ["s", "b", "c", "t"]
        assert Segments(graph).cost("s", "t") == pytest.approx(0.3)
        # A restitched path pays what the objective charges for it.
        assert _stitch_path(graph, ["s", "t"]) == ("s", "b", "c", "t")
        assert _stitch_path(graph, ["s", "a", "t"]) == ("s", "a", "t")

    def test_ties_go_to_the_switch_listed_first(self):
        for order in (["s", "x", "y", "t"], ["s", "y", "x", "t"]):
            topo = topology([], {})
            for name in order:
                topo.add_switch(name)
            for a, b in (("s", "x"), ("x", "t"), ("s", "y"), ("y", "t")):
                topo.add_link(a, b, 5.0)
            assert Segments(topo.graph).path("s", "t") == ["s", order[1], "t"]

    def test_an_unreachable_waypoint_is_a_placement_error(self):
        topo = self.diamond().without_link("s", "a").without_link("s", "b")
        assert Segments(topo.graph).cost("s", "t") == float("inf")
        with pytest.raises(PlacementError, match="no path"):
            _stitch_path(topo.graph, ["s", "t"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_walks_equal_the_lp_on_every_failed_link(name):
    """The benchmark's own event builds no LP, and for every switch-switch
    link failed in turn a certified walk costs the LP's optimum
    and passes P6.  A failure that disconnects the network is no walk and
    no LP either."""
    w = workload(name)
    controller = SnapController(w.topology, w.program())
    cold = controller.submit()
    event_snapshot = controller.fail_link(*w.link)
    calls = controller.backend.calls
    if name == "isp-compile":
        # The link carries no flow: the cold routing's certificate covers it.
        assert event_snapshot.model_stats["solve_reused"] is True
        assert calls["te_walks"] == 0
    else:
        assert event_snapshot.model_stats["te_route"] == "walk"
        assert (calls["te_walks"], calls["te_solves"]) == (1, 0)

    args = (dict(controller.demands), cold.mapping, cold.dependencies, dict(cold.placement))
    model = build_te_model(w.topology, *args)
    intact = model.solve()
    bounds = model.model.lb.copy(), model.model.ub.copy()
    # A failure the intact optimum does not route over leaves it optimal.
    used = {frozenset(hop) for fractions in intact.routing.values() for hop in fractions}
    certified = 0
    for a, b in undirected_links(w.topology):
        degraded = w.topology.without_link(a, b)
        walk = shortest_walk_routing(degraded, *args)
        model.fail_link(a, b)
        if isinstance(walk, str):
            assert walk == "no path"
            with pytest.raises(PlacementError):
                model.solve()
        else:
            optimum = (
                model.solve().objective if frozenset((a, b)) in used
                else intact.objective
            )
            assert walk[0].objective == pytest.approx(optimum, rel=1e-9)
            validate_solution(walk[1], degraded, cold.mapping, cold.dependencies)
            certified += 1
        model.model.lb[:], model.model.ub[:] = bounds
    assert certified >= len(undirected_links(w.topology)) * 3 // 4


@st.composite
def small_te_problems(draw):
    """A connected graph of 3-6 switches with mixed capacities, three
    ports, up to three state variables with a placement, ordered pairs
    among them and the variables each flow needs."""
    count = draw(st.integers(3, 6))
    names = [f"s{i}" for i in range(count)]
    capacity = st.sampled_from([1.0, 2.0, 5.0, 10.0, 50.0])
    links = {
        frozenset((names[draw(st.integers(0, i - 1))], names[i])): draw(capacity)
        for i in range(1, count)
    }
    for i, j, c in draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, count - 1), capacity),
        max_size=count,
    )):
        if i != j:
            links.setdefault(frozenset((names[i], names[j])), c)
    ports = {port: draw(st.sampled_from(names)) for port in (1, 2, 3)}
    flows = [(u, v) for u in ports for v in ports if u != v]
    demands = {flow: draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) for flow in flows}
    variables = ["a", "b", "c"][: draw(st.integers(0, 3))]
    placement = {s: draw(st.sampled_from(names)) for s in variables}
    dep = [(s, t) for i, s in enumerate(variables) for t in variables[i + 1:]
           if draw(st.booleans())]
    needed = {
        flow: set(draw(st.lists(st.sampled_from(variables), unique=True)))
        for flow in flows
    } if variables else {}
    topo = topology([(*sorted(pair), c) for pair, c in links.items()], ports)
    return topo, demands, needed, dep, placement


@given(small_te_problems())
@settings(max_examples=80, deadline=None)
def test_a_certified_walk_is_the_lp_optimum(case):
    topo, demands, needed, dep, placement = case
    assume(any(demands.values()))  # HiGHS calls an empty program no optimum
    mapping, dependencies = problem(needed, dep)
    walk = shortest_walk_routing(topo, demands, mapping, dependencies, placement)
    event(walk if isinstance(walk, str) else "walk")
    if isinstance(walk, str):
        return
    solution, paths = walk
    optimum = build_te_model(topo, demands, mapping, dependencies, placement).solve()
    assert solution.objective == pytest.approx(optimum.objective, rel=1e-9, abs=1e-12)
    assert solution.solver["status"] == 0
    validate_solution(paths, topo, mapping, dependencies)


HASH_SEED_PROBE = """
import sys
sys.path.insert(0, {tests!r})
from repro.milp.te import shortest_walk_routing
from test_milp_assembly import CASES, problem_inputs
from test_controller import undirected_links
topology, demands, mapping, dependencies = problem_inputs(*CASES["igen14-dns"]())
placement = {{"orphan": "r12", "susp-client": "r12", "blacklist": "r2"}}
for a, b in undirected_links(topology):
    walk = shortest_walk_routing(
        topology.without_link(a, b), demands, mapping, dependencies, placement
    )
    print(a, b, walk if isinstance(walk, str) else sorted(walk[1].paths.items()))
"""


def test_walks_do_not_depend_on_the_hash_seed():
    """Equal-cost ties go by switch order, never by set order: every
    failure's walks (or reason) are the same under every ``PYTHONHASHSEED``."""
    probe = HASH_SEED_PROBE.format(tests=str(Path(__file__).parent))
    answers = [
        subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "2")
    ]
    assert answers[0] == answers[1]
    assert answers[0].count("[((") > 10


class TestFallbackReasons:
    """Each way a walk fails its certificate; the LP decides those."""

    def test_an_aggregate_that_does_not_fit_binds(self):
        demands = {(1, 3): 4.0, (2, 3): 4.0, (3, 1): 1.0}
        mapping, dependencies = problem()
        args = (demands, mapping, dependencies, {})
        assert shortest_walk_routing(funnel(), *args) == "binding capacity"
        # 6 of the 8 units fit m-t; the LP sends the rest over y (which
        # source sends them is an equal-cost tie).
        solution = build_te_model(funnel(), *args).solve()
        to_t = 8 / 100 + 6 / 6 + 2 / 4 + 2 / 4  # a1/a2-m, then m-t or m-y-t
        assert solution.objective == pytest.approx(to_t + 1 / 6 + 1 / 100)
        load = {}
        for flow, fractions in solution.routing.items():
            for link, share in fractions.items():
                load[link] = load.get(link, 0.0) + share * demands[flow]
        assert load[("m", "t")] == pytest.approx(6.0)
        assert load[("m", "y")] == pytest.approx(2.0)
        paths = extract_paths(solution, funnel(), mapping, dependencies)
        validate_solution(paths, funnel(), mapping, dependencies)
        # Half the demand fits the cheapest links: that is a walk.
        half = {flow: demand / 2 for flow, demand in demands.items()}
        assert not isinstance(shortest_walk_routing(funnel(), half, *args[1:]), str)

    def line(self):
        """``s0 - s1 - s2 - s3``, port 1 at ``s0`` and port 2 at ``s3``."""
        return topology(
            [("s0", "s1", 10.0), ("s1", "s2", 10.0), ("s2", "s3", 10.0)],
            {1: "s0", 2: "s3"},
        )

    def test_a_cheaper_order_of_unordered_waypoints(self):
        # The installed order visits the variable first in
        # `dependencies.order` first: put it on s2, so the walk doubles
        # back; with no dependency the LP may pass s1 first.
        mapping, dependencies = problem({(1, 2): {"x", "y"}}, ports=(1, 2))
        first, second = dependencies.order
        placement = {first: "s2", second: "s1"}
        walk = shortest_walk_routing(self.line(), {(1, 2): 1.0}, mapping, dependencies, placement)
        assert walk == "cheaper waypoint order"

    def test_a_walk_that_doubles_back_is_not_simple(self):
        # With x before y the only order is the one that doubles back.
        mapping, dependencies = problem({(1, 2): {"x", "y"}}, [("x", "y")], ports=(1, 2))
        placement = {"x": "s2", "y": "s1"}
        args = ({(1, 2): 1.0}, mapping, dependencies, placement)
        assert shortest_walk_routing(self.line(), *args) == "non-simple walk"
        with pytest.raises(PlacementError):  # nor has Table 2 a routing
            build_te_model(self.line(), *args).solve()
        # On the chorded ring a simple path realises the order.
        _, paths = shortest_walk_routing(chorded_ring(), *args)
        assert paths.path(1, 2) == ("s0", "s2", "s1", "s3")

    def test_a_spur_waypoint_makes_the_lp_take_the_long_way(self):
        topo = topology(
            [("s0", "a", 10.0), ("a", "s3", 10.0), ("a", "b", 10.0),
             ("s0", "c", 1.0), ("c", "b", 1.0)],
            {1: "s0", 2: "s3"},
        )
        mapping, dependencies = problem({(1, 2): {"x"}}, ports=(1, 2))
        args = ({(1, 2): 1.0}, mapping, dependencies, {"x": "b"})
        assert shortest_walk_routing(topo, *args) == "non-simple walk"
        # s0 -> c -> b -> a -> s3: 1 + 1 + 0.1 + 0.1.
        assert build_te_model(topo, *args).solve().objective == pytest.approx(2.2)

    def test_an_owner_outside_the_stateful_switches(self):
        mapping, dependencies = problem({(1, 2): {"x"}}, ports=(1, 2))
        args = (self.line(), {(1, 2): 1.0}, mapping, dependencies, {"x": "s1"})
        assert not isinstance(shortest_walk_routing(*args), str)
        assert shortest_walk_routing(*args, ("s2",)) == "owner outside stateful_switches"

    def test_a_waypoint_order_no_path_can_honour(self):
        # a and c share s1, b sits on s2: a before b before c is a cycle.
        mapping, dependencies = problem({(1, 2): {"a", "b", "c"}}, [("a", "b"), ("b", "c")],
                                        ports=(1, 2))
        args = ({(1, 2): 1.0}, mapping, dependencies, {"a": "s1", "b": "s2", "c": "s1"})
        assert shortest_walk_routing(chorded_ring(), *args) == "inconsistent order"
        with pytest.raises(PlacementError):
            build_te_model(chorded_ring(), *args).solve()

    def test_a_hairpin_is_malformed_and_still_raises(self):
        mapping, dependencies = problem()
        demands = {(1, 3): 4.0, (2, 3): 4.0, (3, 1): 1.0, (3, 3): 1.0}
        args = (demands, mapping, dependencies, {})
        assert shortest_walk_routing(funnel(), *args) == "malformed flow"
        with pytest.raises(PlacementError):
            build_te_model(funnel(), *args).solve()
        # So is a port no switch carries.
        assert shortest_walk_routing(funnel(), {(1, 9): 1.0}, *args[1:]) == "malformed flow"

    def test_a_disconnected_waypoint_has_no_path(self):
        mapping, dependencies = problem({(1, 2): {"x"}}, ports=(1, 2))
        cut = self.line().without_link("s1", "s2")
        assert shortest_walk_routing(
            cut, {(1, 2): 1.0}, mapping, dependencies, {"x": "s1"}
        ) == "no path"


class TestControllerRoutesByWalks:
    def test_a_link_event_builds_no_lp_and_leaves_a_certificate(self):
        controller = SnapController(campus_topology(), campus_program())
        cold = controller.submit()
        failed = controller.fail_link("C1", "C5")
        assert failed.model_stats["te_route"] == "walk"
        assert failed.model_stats["solver"]["status"] == 0
        assert failed.model_stats["solve_reused"] is False
        assert controller.backend.calls == {
            "st_walks": 1, "st_solves": 0, "te_walks": 1, "te_solves": 0,
        }
        assert ("C1", "C5") not in set(zip(failed.routing.path(1, 6), failed.routing.path(1, 6)[1:]))
        assert failed.objective > cold.objective
        restored = controller.restore_link("C1", "C5")
        assert restored.routing is cold.routing
        # The walk is a certificate: the same failure again reuses it.
        again = controller.fail_link("C1", "C5")
        assert again.model_stats["solve_reused"] is True
        assert again.routing is failed.routing
        assert controller.backend.calls["te_walks"] == 1

    def test_the_span_and_the_stats_name_the_route(self, monkeypatch):
        monkeypatch.setattr(TRACER, "enabled", True)
        TRACER.reset()
        walked = SnapController(campus_topology(), campus_program())
        walked.submit()
        walked.fail_link("C1", "C5")
        solved = SnapController(binding_campus(), campus_program())
        solved.submit()
        snapshot = solved.fail_link("C1", "C5")
        assert snapshot.model_stats["te_route"] == "binding capacity"
        lp = build_te_model(
            snapshot.topology, dict(snapshot.demands), snapshot.mapping,
            snapshot.dependencies, dict(snapshot.placement),
        )
        assert snapshot.model_stats["variables"] == lp.model.num_vars
        assert solved.backend.calls == {
            "st_walks": 1, "st_solves": 1, "te_walks": 1, "te_solves": 1,
        }
        assert [
            span["attrs"]["te_route"] for span in TRACER.spans("controller.link_failure")
        ] == ["walk", "binding capacity"]

    def test_a_demand_change_a_walk_routed_reaches_the_lp(self):
        """Demands that changed on a walk-routed event reach the LP of
        the next event that solves one."""
        topo = topology(
            [("a1", "m", 100.0), ("a2", "m", 100.0), ("m", "t", 6.0),
             ("m", "y", 4.0), ("y", "t", 4.0), ("m", "z", 3.0), ("z", "t", 3.0)],
            {1: "a1", 2: "a2", 3: "t"},
        )
        subnets = default_subnets(3)
        program = Program(assign_egress(subnets), assumption=port_assumption(subnets))
        heavy = {(1, 3): 4.0, (2, 3): 4.0, (3, 1): 1.0}
        light = {(1, 3): 2.5, (2, 3): 2.5, (3, 1): 1.0}
        controller = SnapController(topo, program, demands=heavy)
        controller.submit()
        # 8 units do not fit m-t's 6: the LP is built, for `heavy`.
        assert controller.fail_link("m", "y").model_stats["te_route"] == "binding capacity"
        assert controller.set_demands(light).model_stats["te_route"] == "walk"
        assert controller.restore_link("m", "y").model_stats["te_route"] == "walk"
        # 5 units do not fit y's 4: the LP again, now for `light`.
        snapshot = controller.fail_link("m", "t")
        assert snapshot.model_stats["te_route"] == "binding capacity"
        assert controller.backend.calls["te_solves"] == 2
        mapping, dependencies = snapshot.mapping, snapshot.dependencies
        fresh = build_te_model(topo, light, mapping, dependencies, {})
        fresh.fail_link("m", "t")
        assert snapshot.objective == fresh.solve().objective


#: HiGHS's ST placement of the campus-ops composite.
CAMPUS_OPS_PLACEMENT = {
    "p1.domain-ip-pair": "I1", "p1.mal-ip-list": "I1", "p1.num-of-domains": "I1",
    "p2.ip-domain-pair": "I2", "p2.mal-domain-list": "I2", "p2.num-of-ips": "I2",
    "p3.last-ttl": "D1", "p3.seen": "D1", "p3.ttl-change": "D1",
    "p4.blacklist": "C6", "p4.orphan": "C2", "p4.susp-client": "D2",
    "p5.active-session": "C6", "p5.sid2agent": "C6", "p5.sid2ip": "C6",
    "p6.MTA-dir": "D4", "p6.mail-counter": "D4",
}


@pytest.mark.xfail(strict=True, raises=DataPlaneError, reason=(
    "the xFDD leaf writes p2.ip-domain-pair below the p2.num-of-ips test, "
    "but the dependency edge runs only ip-domain-pair -> num-of-ips: a "
    "Table 2-feasible placement that splits them strands the packet"
))
def test_an_equal_cost_placement_that_strands_a_dns_response():
    """Moving one variable of the campus-ops composite off HiGHS's
    placement keeps the cost and passes P6, yet a DNS response from port
    6 finds no route at I2 (packet #114 of the seed-7 benchmark trace)."""
    w = workload("campus-ops")
    program = w.program()
    controller = SnapController(w.topology, program)
    cold = controller.submit()
    placement = {**CAMPUS_OPS_PLACEMENT, "p2.ip-domain-pair": "C2"}
    demands = dict(controller.demands)
    solution = build_te_model(
        w.topology, demands, cold.mapping, cold.dependencies, placement
    ).solve()
    assert solution.objective == pytest.approx(3.2006247240, rel=1e-10)
    routing = extract_paths(solution, w.topology, cold.mapping, cold.dependencies)
    validate_solution(routing, w.topology, cold.mapping, cold.dependencies)
    network = Network(
        w.topology, cold.xfdd, placement, routing, cold.mapping, demands,
        program.state_defaults,
    )
    ip = lambda text: IPPrefix(text).network
    response = make_packet(
        srcip=ip("10.0.6.244"), dstip=ip("10.0.2.46"), srcport=53,
        dstport=39197, **{"dns.rdata": ip("10.0.1.65")},
    )
    network.inject(response, 6)
