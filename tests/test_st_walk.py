"""The ST placement by certified shortest walks (``repro.milp.st_walk``).

With capacities and the visit-once rule dropped, the cheapest placement
is a lower bound on Table 2's MILP; when its walks certify themselves
(``shortest_walk_routing``) they are the MILP's optimum and no MILP is
built.  The oracle is ``build_placement_model(...).solve()``, itself
gated against the row-by-row Table 2 in ``tests/test_milp_assembly.py``;
the search's minimum and tie-break are checked against a brute-force
enumeration of every placement.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.analysis.dependency import DependencyInfo
from repro.analysis.packet_state import PacketStateMapping
from repro.core.controller import SnapController
from repro.milp import st_walk
from repro.milp.backends import MilpBackend
from repro.milp.placement import build_placement_model
from repro.milp.results import validate_solution
from repro.milp.st_walk import WalkSearch
from repro.milp.te import shortest_walk_routing
from repro.obs.tracing import TRACER
from repro.topology.campus import campus_topology
from repro.topology.graph import Topology
from repro.util.timer import PhaseTimer

from snapbench_programs import WORKLOADS, workload
from test_controller import campus_program
from test_te_program import binding_campus

#: The certified placement of each snapbench program at its cold start.
#: Against the MILP's (HiGHS's) placement at the parent of this search:
#: campus-ops moves p4.blacklist and p5.* C6 -> I1 and p4.orphan C2 -> D2
#: (p2.* stays on I2); monitor-replay moves count-5 C5 -> D3;
#: policy-churn moves p4.blacklist and p5.* r19 -> r1, p4.orphan r11 -> r2,
#: p4.susp-client r3 -> r2 and p7.established r0 -> r11; isp-compile keeps
#: everything on r111.  Every one costs the MILP's optimum or less.
PLACEMENTS = {
    "campus-ops": {
        "p1.domain-ip-pair": "I1", "p1.mal-ip-list": "I1", "p1.num-of-domains": "I1",
        "p2.ip-domain-pair": "I2", "p2.mal-domain-list": "I2", "p2.num-of-ips": "I2",
        "p3.last-ttl": "D1", "p3.seen": "D1", "p3.ttl-change": "D1",
        "p4.blacklist": "I1", "p4.orphan": "D2", "p4.susp-client": "D2",
        "p5.active-session": "I1", "p5.sid2agent": "I1", "p5.sid2ip": "I1",
        "p6.MTA-dir": "D4", "p6.mail-counter": "D4",
    },
    "isp-compile": {"blacklist": "r111", "orphan": "r111", "susp-client": "r111"},
    "policy-churn": {
        "p1.domain-ip-pair": "r1", "p1.mal-ip-list": "r1", "p1.num-of-domains": "r1",
        "p10.spreader": "r15", "p10.super-spreader": "r15",
        "p11.flow-size": "r16", "p11.flow-type": "r16", "p11.large-sampler": "r16",
        "p11.medium-sampler": "r16", "p11.small-sampler": "r16",
        "p12.dep-count": "r17",
        "p2.ip-domain-pair": "r18", "p2.mal-domain-list": "r18", "p2.num-of-ips": "r18",
        "p3.last-ttl": "r19", "p3.seen": "r19", "p3.ttl-change": "r19",
        "p4.blacklist": "r1", "p4.orphan": "r2", "p4.susp-client": "r2",
        "p5.active-session": "r1", "p5.sid2agent": "r1", "p5.sid2ip": "r1",
        "p6.MTA-dir": "r11", "p6.mail-counter": "r11", "p7.established": "r11",
        "p8.ftp-data-chan": "r13", "p9.heavy-hitter": "r14", "p9.hh-counter": "r14",
    },
    "monitor-replay": {
        "count-1": "I1", "count-2": "I2", "count-3": "D1",
        "count-4": "D2", "count-5": "D3", "count-6": "D4",
    },
}


def hand_built(links, ports, switches=None) -> Topology:
    """A topology whose switches are listed in ``switches`` order (sorted
    names by default)."""
    topo = Topology("hand-built")
    for name in switches or sorted({end for a, b, _ in links for end in (a, b)}):
        topo.add_switch(name)
    for a, b, capacity in links:
        topo.add_link(a, b, capacity)
    for port, switch in ports.items():
        topo.attach_port(port, switch)
    return topo


def problem(needed=None, dep=(), tied=(), variables=(), ports=(1, 2)):
    """``(mapping, dependencies)``: ``tied`` pairs become two-way edges,
    ``variables`` are declared whether or not a flow needs them."""
    mapping = PacketStateMapping(needed or {}, ports, ports)
    graph = nx.DiGraph([*dep, *tied, *((t, s) for s, t in tied)])
    graph.add_nodes_from(sorted(mapping.all_state_vars() | set(variables)))
    return mapping, DependencyInfo(graph)


def solve_st(topo, demands, mapping, dependencies, stateful=None):
    """What ``SnapController`` runs for P4/P5: ``(solution, paths, stats, calls)``."""
    backend = MilpBackend()
    solution, paths, stats = backend.solve_st(
        topo, demands, mapping, dependencies, stateful, PhaseTimer()
    )
    return solution, paths, stats, backend.calls


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_snapbench_cold_start_is_walked_to_the_milps_optimum(name):
    w = workload(name)
    controller = SnapController(w.topology, w.program())
    snapshot = controller.submit()
    assert snapshot.model_stats["st_route"] == "walk"
    assert (controller.backend.calls["st_walks"], controller.backend.calls["st_solves"]) == (1, 0)
    assert dict(snapshot.placement) == PLACEMENTS[name]
    args = (dict(controller.demands), snapshot.mapping, snapshot.dependencies)
    optimum = build_placement_model(w.topology, *args).solve()
    # HiGHS reads the optimum to its tolerances: on isp-compile and
    # policy-churn it routes a few flows of demand ~1e-4 over detours
    # whose extra cost (a link costs d/c ~ 1e-8) is under its dual
    # feasibility tolerance, 1.5e-7 / 1.6e-7 above the certified walks.
    assert snapshot.objective <= optimum.objective
    assert snapshot.objective == pytest.approx(optimum.objective, rel=1e-6)
    # Its placement is as cheap as the certified one: walked, it costs
    # the same.
    walked = shortest_walk_routing(w.topology, *args, optimum.placement)
    assert walked[0].objective == pytest.approx(snapshot.objective, rel=1e-12)
    validate_solution(snapshot.routing, w.topology, snapshot.mapping, snapshot.dependencies)


HASH_SEED_PROBE = """
import sys
sys.path.insert(0, {tests!r})
from snapbench_programs import WORKLOADS, workload
from repro.core.controller import SnapController
for name in WORKLOADS:
    w = workload(name)
    controller = SnapController(w.topology, w.program())
    snapshot = controller.submit()
    instrs = sum(controller.network().instruction_counts().values())
    print(name, sorted(snapshot.placement.items()), instrs, snapshot.model_stats["st_route"])
"""


def test_placement_and_instructions_do_not_depend_on_the_hash_seed():
    probe = HASH_SEED_PROBE.format(tests=str(Path(__file__).parent))
    answers = [
        subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "2", "7")
    ]
    assert answers[0] == answers[1] == answers[2]
    assert answers[0].count(" walk\n") == len(WORKLOADS)


# -- the search against brute force -----------------------------------------


def brute_force(topo, demands, mapping, dependencies, stateful=None):
    """``(placement, bound)`` by trying every label tuple: the relaxation
    priced flow by flow over every dependency-consistent group order,
    the tie-break applied to the cheapest tuples as the module states it."""
    dist = dict(nx.shortest_path_length(
        topo.graph, weight=lambda a, b, data: 1.0 / data["capacity"]
    ))
    labels = [n for n in topo.switches() if stateful is None or n in stateful]
    variables = sorted(mapping.all_state_vars() | set(dependencies.order))
    groups = sorted(map(sorted, nx.connected_components(nx.Graph(
        [tuple(pair) for pair in dependencies.tied] + [(s, s) for s in variables]
    ))))
    group_of = {s: g for g, members in enumerate(groups) for s in members}
    attached = set(topo.ports.values())

    def cost(owner):
        total = 0.0
        for (u, v), demand in sorted(demands.items()):
            if demand <= 1e-9:
                continue
            needed = mapping.states_for(u, v)
            gs = sorted({group_of[s] for s in needed})
            before = {(group_of[s], group_of[t]) for s, t in dependencies.dep
                      if s in needed and t in needed}
            best = float("inf")
            for order in itertools.permutations(gs):
                if any(order.index(a) > order.index(b) for a, b in before):
                    continue
                stops = [topo.ports[u], *(owner[g] for g in order), topo.ports[v]]
                best = min(best, sum(
                    dist[a].get(b, float("inf")) for a, b in zip(stops, stops[1:])
                ))
            total += demand * best
        return total

    tuples = [(cost(t), t) for t in itertools.product(labels, repeat=len(groups))]
    bound = min(c for c, _ in tuples)
    near = [t for c, t in tuples if c <= bound + st_walk.ORDER_TOLERANCE * bound]
    rank = {n: i for i, n in enumerate(topo.switches())}
    chosen = min(near, key=lambda t: (-sum(n in attached for n in t), [rank[n] for n in t]))
    return {s: chosen[group_of[s]] for s in variables}, bound


@st.composite
def small_st_problems(draw):
    """A connected graph of 3-6 switches listed in a drawn order, three
    ports, up to four variables (two possibly tied), ordered pairs among
    them, the variables each flow needs and maybe fewer stateful switches."""
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
    variables = ["a", "b", "c", "d"][: draw(st.integers(0, 4))]
    tied = [("c", "d")] if len(variables) == 4 and draw(st.booleans()) else []
    dep = [(s, t) for i, s in enumerate(variables[:3]) for t in variables[i + 1:3]
           if draw(st.booleans())]
    needed = {
        flow: set(draw(st.lists(st.sampled_from(variables), unique=True)))
        for flow in flows
    } if variables else {}
    order = draw(st.permutations(names))
    stateful = None
    if draw(st.booleans()):
        stateful = tuple(draw(st.lists(st.sampled_from(names), min_size=1, unique=True)))
    topo = hand_built([(*sorted(pair), c) for pair, c in links.items()], ports, order)
    mapping, dependencies = problem(needed, dep, tied, variables, ports=(1, 2, 3))
    return topo, demands, mapping, dependencies, stateful


@given(small_st_problems())
@settings(max_examples=100, deadline=None)
def test_the_search_is_the_brute_force_minimum_and_tie_break(case):
    topo, demands, mapping, dependencies, stateful = case
    found = WalkSearch(topo, demands, mapping, dependencies, stateful).cheapest()
    placement, bound = brute_force(topo, demands, mapping, dependencies, stateful)
    assert found[1] == pytest.approx(bound, rel=1e-12, abs=1e-15)
    assert found[0] == placement


@given(small_st_problems())
@settings(max_examples=100, deadline=None)
def test_a_walked_placement_is_the_milps_optimum(case):
    topo, demands, mapping, dependencies, stateful = case
    walk = WalkSearch(topo, demands, mapping, dependencies, stateful).run()
    event(walk if isinstance(walk, str) else "walk")
    if isinstance(walk, str) or not any(demands.values()):
        return  # HiGHS calls an empty program no optimum
    solution, paths = walk
    optimum = build_placement_model(topo, demands, mapping, dependencies, stateful).solve()
    assert solution.objective == pytest.approx(optimum.objective, rel=1e-7, abs=1e-12)
    assert solution.objective <= optimum.objective * (1 + 1e-12) + 1e-15
    assert solution.solver["status"] == 0
    validate_solution(paths, topo, mapping, dependencies)


# -- the tie-break ---------------------------------------------------------------


class TestTieBreak:
    """A line ``s0 - s1 - s2 - s3`` with ports on ``s0`` and ``s3``: every
    switch is as cheap an owner for a ``1 -> 2`` flow as any other."""

    LINKS = [("s0", "s1", 10.0), ("s1", "s2", 10.0), ("s2", "s3", 10.0)]

    def place(self, switches, needed, variables=(), stateful=None):
        topo = hand_built(self.LINKS, {1: "s0", 2: "s3"}, switches)
        mapping, dependencies = problem(needed, variables=variables)
        return WalkSearch(topo, {(1, 2): 1.0}, mapping, dependencies, stateful).cheapest()

    def test_an_owner_with_a_port_first_then_the_first_switch_listed(self):
        assert self.place(["s0", "s1", "s2", "s3"], {(1, 2): {"x"}})[0] == {"x": "s0"}
        # s1 is listed first but has no port; s3 is listed before s0.
        assert self.place(["s1", "s2", "s3", "s0"], {(1, 2): {"x"}})[0] == {"x": "s3"}
        # With no port among the stateful switches, the first one listed.
        assert self.place(
            ["s2", "s1", "s0", "s3"], {(1, 2): {"x"}}, stateful=("s1", "s2")
        )[0] == {"x": "s2"}

    def test_ranks_go_over_the_groups_in_sorted_order(self):
        # x and y in either order cost the same from s0 to s3: both on a
        # port switch, the smallest ranks for x first, then for y.
        placement, bound = self.place(["s1", "s3", "s2", "s0"], {(1, 2): {"x", "y"}})
        assert placement == {"x": "s3", "y": "s3"}
        assert bound == pytest.approx(0.3)

    def test_a_variable_no_flow_needs_goes_to_the_first_switch_with_a_port(self):
        placement, bound = self.place(["s1", "s2", "s3", "s0"], {}, variables=("y",))
        assert placement == {"y": "s3"}
        assert bound == pytest.approx(0.3)


# -- the fallback, one reason at a time -------------------------------------


class TestFallbackReasons:
    """Each way the search or its certificate fails; the MILP answers."""

    def assert_the_milp_answered(self, result, reason):
        solution, paths, stats, calls = result
        assert stats["st_route"] == reason
        assert (calls["st_walks"], calls["st_solves"]) == (1, 1)
        assert paths is None
        assert stats["integer_variables"] > 0
        assert solution.solver["nodes"] is not None
        return solution

    def test_a_binding_capacity(self):
        controller = SnapController(binding_campus(), campus_program())
        snapshot = controller.submit()
        assert snapshot.model_stats["st_route"] == "binding capacity"
        assert controller.backend.calls["st_solves"] == 1
        solver = snapshot.model_stats["solver"]
        assert (solver["status"], solver["mip_gap"], solver["nodes"]) == (0, 0.0, 1)
        assert snapshot.model_stats["integer_variables"] > 0

    def test_a_walk_that_doubles_back_on_a_spur(self):
        # x can live only on the spur b: s0 -> a -> b -> a -> s3 is no path.
        topo = hand_built(
            [("s0", "a", 10.0), ("a", "s3", 10.0), ("a", "b", 10.0),
             ("s0", "c", 1.0), ("c", "b", 1.0)],
            {1: "s0", 2: "s3"},
        )
        mapping, dependencies = problem({(1, 2): {"x"}})
        result = solve_st(topo, {(1, 2): 1.0}, mapping, dependencies, ("b",))
        solution = self.assert_the_milp_answered(result, "non-simple walk")
        # s0 -> c -> b -> a -> s3: 1 + 1 + 0.1 + 0.1.
        assert solution.objective == pytest.approx(2.2)
        assert solution.placement == {"x": "b"}

    def test_unordered_groups_installed_in_the_dearer_order(self):
        # x belongs by port 1's switch s0, y by port 2's s3; a 2 -> 1 flow
        # needs both, in either order: y then x is the straight line.
        topo = hand_built(TestTieBreak.LINKS, {1: "s0", 3: "s0", 2: "s3", 4: "s3"})
        mapping, dependencies = problem(
            {(1, 3): {"x"}, (2, 4): {"y"}, (2, 1): {"x", "y"}}, ports=(1, 2, 3, 4)
        )
        demands = {(1, 3): 1.0, (2, 4): 1.0, (2, 1): 1.0}
        found = WalkSearch(topo, demands, mapping, dependencies).cheapest()
        assert found[0] == {"x": "s0", "y": "s3"}
        assert found[1] == pytest.approx(0.3)
        # The data plane visits x first (dependencies.order), doubling back.
        result = solve_st(topo, demands, mapping, dependencies)
        solution = self.assert_the_milp_answered(result, "cheaper waypoint order")
        assert solution.placement == {"x": "s0", "y": "s3"}
        assert solution.objective == pytest.approx(0.3)

    def test_no_stateful_switch_in_the_topology(self):
        # The only stateful switch is not in the graph: no search label
        # can own y, and the MILP puts it there (no flow needs it).
        topo = hand_built(TestTieBreak.LINKS, {1: "s0", 2: "s3"})
        mapping, dependencies = problem({}, variables=("y",))
        result = solve_st(topo, {(1, 2): 1.0}, mapping, dependencies, ("ghost",))
        solution = self.assert_the_milp_answered(result, "owner outside stateful_switches")
        assert solution.placement == {"y": "ghost"}
        assert solution.objective == pytest.approx(0.3)

    def test_a_search_too_large(self):
        # Five unordered variables on one flow over a 20-switch ring:
        # 120 orders of a 20**5 table.
        names = [f"s{i:02d}" for i in range(20)]
        topo = hand_built(
            [(names[i], names[(i + 1) % 20], 10.0) for i in range(20)],
            {1: "s00", 2: "s10"},
        )
        variables = {"a", "b", "c", "d", "e"}
        mapping, dependencies = problem({(1, 2): variables})
        result = solve_st(topo, {(1, 2): 1.0}, mapping, dependencies)
        solution = self.assert_the_milp_answered(result, "search too large")
        assert solution.objective == pytest.approx(1.0)  # ten hops of 0.1
        # A smaller ring is searched and walked to the same optimum.
        small = hand_built(
            [(names[i], names[(i + 1) % 6], 10.0) for i in range(6)], {1: "s00", 2: "s03"},
        )
        walked = solve_st(small, {(1, 2): 1.0}, mapping, dependencies)
        assert walked[2] == {"st_route": "walk"}
        assert walked[0].objective == pytest.approx(0.3)


# -- observability ------------------------------------------------------------------


def test_the_span_and_the_stats_name_the_route(monkeypatch):
    monkeypatch.setattr(TRACER, "enabled", True)
    TRACER.reset()
    walked = SnapController(campus_topology(), campus_program())
    walked.submit()
    again = walked.update_policy(campus_program())
    assert again.model_stats["solve_reused"] is True
    assert again.model_stats["st_route"] == "walk"
    SnapController(binding_campus(), campus_program()).submit()
    assert [
        span["attrs"]["st_route"] for span in TRACER.spans("controller.cold_start")
    ] == ["walk", "binding capacity"]
    assert [
        span["attrs"]["st_route"] for span in TRACER.spans("controller.policy_change")
    ] == ["walk"]
    assert walked.backend.calls["st_walks"] == 1  # the memo hit tried nothing


def main() -> None:
    """Print, per snapbench workload, the search's size and its time
    (distance table + minimisation + certificate, in process, best of
    five) against the MILP's build + solve (best of three)."""
    import time

    def best(runs, work):
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            result = work()
            times.append(time.perf_counter() - start)
        return min(times), result

    print("| workload | switches | groups | components | search | MILP build + solve | route |")
    print("|---|---|---|---|---|---|---|")
    for name in WORKLOADS:
        w = workload(name)
        controller = SnapController(w.topology, w.program())
        cold = controller.submit()
        controller.close()
        args = (w.topology, dict(controller.demands), cold.mapping, cold.dependencies)
        search_s, walk = best(5, lambda: WalkSearch(*args).run())
        milp_s, _ = best(3, lambda: build_placement_model(*args).solve())
        known = cold.mapping.all_state_vars() | set(cold.dependencies.order)
        tied = list(cold.dependencies.tied)
        together = [sorted(needed)[i:i + 2] for _, needed in cold.mapping.items()
                    for i in range(len(needed) - 1)]
        print(
            f"| `{name}` | {len(w.topology.switches())} "
            f"| {len(st_walk._closure(known, tied))} "
            f"| {len(st_walk._closure(known, tied + together))} "
            f"| {search_s * 1e3:.1f} ms | {milp_s:.3f} s "
            f"| {walk if isinstance(walk, str) else 'walk'} |"
        )


if __name__ == "__main__":
    main()
