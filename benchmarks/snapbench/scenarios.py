"""The four snapbench workloads: topology, program, single-arm edits, trace.

Each workload's program is assembled from a list of *arms* so that the
``update_policy`` events can edit exactly one of them: arm ``k`` gains a
``!srcport = 40000+k`` guard.  The guard touches no state read or write,
so S_uv and the dependency constraints — everything the MILP sees — are
unchanged and the controller's solve memo must hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import networkx as nx

from repro.analysis.transform import namespace_state_vars
from repro.apps import ALL_APPS, assign_egress, default_subnets, port_assumption
from repro.apps.chimera import dns_tunnel_detect
from repro.core.program import Program
from repro.lang import ast, parse, pretty
from repro.topology import campus_topology, igen_topology

import traffic


@dataclass
class Workload:
    """Everything a round needs, built once in set-up."""

    name: str
    topology: object
    #: ``pretty(assumption ; policy)`` — what a cold start parses.
    text: str
    state_defaults: dict
    #: ``edits[k]``: the program with only arm ``k`` guarded.
    edits: list
    #: The switch-switch link the TE event fails and restores.
    link: tuple
    trace: object
    traffic_properties: dict
    tracegen_s: float
    rounds: int
    traced_rounds: int

    def program(self) -> Program:
        """Policy text -> program, as a cold start does it."""
        return Program(
            parse(self.text), state_defaults=self.state_defaults, name=self.name
        )


def composed_arms(num_apps: int, subnets: dict):
    """Figure 11's workload: the first ``num_apps`` Table-3 policies, app
    ``i`` guarded to traffic egressing at port ``i`` and its state
    variables namespaced ``p<i>.``, composed in parallel."""
    arms = []
    defaults: dict = {}
    for i, name in enumerate(list(ALL_APPS)[:num_apps], start=1):
        app = ALL_APPS[name]()
        body = namespace_state_vars(app.policy, f"p{i}.")
        arms.append(ast.If(ast.Test("dstip", subnets[i]), body, ast.Id()))
        defaults.update(
            {f"p{i}.{var}": value for var, value in app.state_defaults.items()}
        )
    egress = assign_egress(subnets)
    return arms, lambda arms: ast.Seq(ast.par_all(arms), egress), defaults


def dns_tunnel_arms(subnets: dict):
    """Figure 1's detector; its three branches are the arms."""
    app = dns_tunnel_detect()
    outer = app.policy
    inner = outer.orelse
    egress = assign_egress(subnets)

    def assemble(arms):
        detect = ast.If(
            outer.pred, arms[0], ast.If(inner.pred, arms[1], arms[2])
        )
        return ast.Seq(detect, egress)

    return [outer.then, inner.then, inner.orelse], assemble, app.state_defaults


def monitor_arms(subnets: dict):
    """The §7.3 / App. C sharded monitor: ``count[inport]++`` split into
    one counter per ingress port, written out as an if-chain."""
    ports = sorted(subnets)
    egress = assign_egress(subnets)
    arms = [
        ast.Seq(ast.StateIncr(f"count-{p}", ast.Field("inport")), egress)
        for p in ports
    ]

    def assemble(arms):
        policy: ast.Policy = ast.Drop()
        for port, arm in reversed(list(zip(ports, arms))):
            policy = ast.If(ast.Test("inport", port), arm, policy)
        return policy

    return arms, assemble, {f"count-{p}": 0 for p in ports}


def first_redundant_link(topology) -> tuple:
    """The lexicographically first switch-switch link whose failure
    leaves the topology connected."""
    graph = topology.graph.to_undirected()
    bridges = {frozenset(edge) for edge in nx.bridges(graph)}
    return min(
        tuple(sorted(edge))
        for edge in graph.edges
        if frozenset(edge) not in bridges
    )


#: name -> (full sizes, smoke sizes).  ``packets`` is the trace length,
#: ``rounds`` the timed rounds of a 15 s run (``run.RUN_SECONDS``), ``edits`` E.
SIZES = {
    "campus-ops": (
        dict(packets=40_000, rounds=8, edits=6, traced_rounds=2),
        dict(packets=300, rounds=2, edits=2, traced_rounds=1),
    ),
    "isp-compile": (
        dict(switches=120, packets=10_000, rounds=3, edits=3, traced_rounds=1),
        dict(switches=14, packets=300, rounds=2, edits=1, traced_rounds=1),
    ),
    "policy-churn": (
        dict(switches=20, apps=12, packets=10_000, rounds=4, edits=12,
             traced_rounds=2),
        dict(switches=12, apps=3, packets=300, rounds=2, edits=2,
             traced_rounds=1),
    ),
    "monitor-replay": (
        dict(packets=100_000, rounds=3, edits=3, traced_rounds=1),
        dict(packets=600, rounds=2, edits=2, traced_rounds=1),
    ),
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Construct one workload; ``seed`` drives the trace only."""
    size = SIZES[name][1 if smoke else 0]
    if name == "campus-ops":
        topology = campus_topology()
        subnets = default_subnets(6)
        arms, assemble, defaults = composed_arms(6, subnets)
        make_traffic = traffic.mixed
    elif name == "isp-compile":
        topology = igen_topology(size["switches"], num_ports=12, seed=0)
        subnets = default_subnets(12)
        arms, assemble, defaults = dns_tunnel_arms(subnets)
        make_traffic = traffic.mixed
    elif name == "policy-churn":
        topology = igen_topology(size["switches"], num_ports=12, seed=0)
        subnets = default_subnets(12)
        arms, assemble, defaults = composed_arms(size["apps"], subnets)
        make_traffic = traffic.mixed
    elif name == "monitor-replay":
        topology = campus_topology()
        subnets = default_subnets(6)
        arms, assemble, defaults = monitor_arms(subnets)
        make_traffic = traffic.background_only
    else:
        raise ValueError(f"unknown workload {name!r}")

    assumption = port_assumption(subnets)

    def full(arms):
        return ast.Seq(assumption, assemble(arms))

    text = pretty(full(arms))
    if parse(text) != full(arms):
        raise AssertionError(f"{name}: parse(pretty(policy)) != policy")

    edits = []
    for k in range(size["edits"]):
        edited = list(arms)
        edited[k] = ast.Seq(ast.Not(ast.Test("srcport", 40000 + k)), arms[k])
        edits.append(Program(full(edited), state_defaults=defaults, name=name))

    start = time.perf_counter()
    made = make_traffic(subnets, size["packets"], seed)
    tracegen_s = time.perf_counter() - start
    return Workload(
        name=name,
        topology=topology,
        text=text,
        state_defaults=defaults,
        edits=edits,
        link=first_redundant_link(topology),
        trace=made.trace,
        traffic_properties=made.properties,
        tracegen_s=tracegen_s,
        rounds=size["rounds"],
        traced_rounds=size["traced_rounds"],
    )
