#!/usr/bin/env python3
"""Network transactions: the §2.1 honeypot race, live.

Two state variables record, per ingress port, the source IP and the dst
port of the last packet sent to a honeypot.  When the compiler is free to
place them on different switches and two packets race through the network,
the pair can end up describing *different* packets.  Wrapping the updates
in ``atomic(...)`` makes the dependency analysis tie the variables
together, the MILP co-locates them, and the pair is updated atomically.
The epilogue compiles the atomic policy through a ``SnapController``
session to show the compiler choosing such a co-located placement itself.

Run:  python examples/network_transactions.py
"""

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import packet_state_mapping
from repro.dataplane.network import Network
from repro.lang import ast, make_packet
from repro.milp.results import RoutingPaths
from repro.topology.graph import Topology
from repro.topology.traffic import uniform_traffic_matrix
from repro.util.ipaddr import IPPrefix
from repro.xfdd.build import build_xfdd

HONEYPOT = IPPrefix("10.0.3.0/25")


def honeypot_policy(atomic: bool) -> ast.Policy:
    body = ast.Seq(
        ast.StateMod("hon-ip", ast.Field("inport"), ast.Field("srcip")),
        ast.StateMod("hon-dstport", ast.Field("inport"), ast.Field("dstport")),
    )
    if atomic:
        body = ast.Atomic(body)
    return ast.Seq(
        ast.If(ast.Test("dstip", HONEYPOT), body, ast.Id()),
        ast.Mod("outport", 2),
    )


def line_network(policy, placement):
    topo = Topology("line")
    for name in ("a", "b", "c"):
        topo.add_switch(name)
    topo.add_link("a", "b", 100.0)
    topo.add_link("b", "c", 100.0)
    topo.attach_port(1, "a")
    topo.attach_port(2, "c")
    deps = analyze_dependencies(policy)
    xfdd = build_xfdd(policy, state_rank=deps.state_rank)
    mapping = packet_state_mapping(xfdd, (1, 2), (1, 2))
    routing = RoutingPaths({(1, 2): ("a", "b", "c"), (2, 1): ("c", "b", "a")},
                           placement)
    return Network(topo, xfdd, placement, routing, mapping,
                   uniform_traffic_matrix((1, 2), 1.0), {})


def race(network):
    """Inject two honeypot probes with an adversarial interleaving."""
    p1 = make_packet(srcip=111, dstip=HONEYPOT.host(1), dstport=1111)
    p2 = make_packet(srcip=222, dstip=HONEYPOT.host(2), dstport=2222)
    picks = iter([0, 0, 1, 0])  # p2 overtakes p1 between the two switches
    network.inject_concurrent([(p1, 1), (p2, 1)],
                              scheduler=lambda pending: next(picks, 0))
    store = network.global_store()
    return store.read("hon-ip", (1,)), store.read("hon-dstport", (1,))


def programs():
    """Lint hook: the racy variant carries the §2.1 transaction hazard
    (SNAP-W103); the ``atomic()`` variant lints clean."""
    from repro.core.program import Program

    return [
        Program(honeypot_policy(atomic=True), name="honeypot-atomic"),
        Program(honeypot_policy(atomic=False), name="honeypot-racy"),
    ]


def main():
    print("== Without atomic(): variables split across switches ==")
    deps = analyze_dependencies(honeypot_policy(atomic=False))
    print(f"tied groups: {[sorted(g) for g in deps.groups] or 'none'}")
    net = line_network(honeypot_policy(atomic=False),
                       {"hon-ip": "a", "hon-dstport": "b"})
    ip_val, port_val = race(net)
    print(f"hon-ip[1] = {ip_val}, hon-dstport[1] = {port_val}")
    if (ip_val, port_val) in ((111, 1111), (222, 2222)):
        print("=> the pair describes one packet (got lucky this run)")
    else:
        print("=> MIXED: the pair describes two different packets!")

    print("\n== With atomic(): compiler ties and co-locates the pair ==")
    deps = analyze_dependencies(honeypot_policy(atomic=True))
    print(f"tied groups: {[sorted(g) for g in deps.groups]}")
    net = line_network(honeypot_policy(atomic=True),
                       {"hon-ip": "b", "hon-dstport": "b"})
    ip_val, port_val = race(net)
    print(f"hon-ip[1] = {ip_val}, hon-dstport[1] = {port_val}")
    assert (ip_val, port_val) in ((111, 1111), (222, 2222))
    print("=> consistent under the same adversarial schedule.")

    print("\n== Compiled end to end: the controller co-locates the pair ==")
    from repro import Program, SnapController

    topo = Topology("line")
    for name in ("a", "b", "c"):
        topo.add_switch(name)
    topo.add_link("a", "b", 100.0)
    topo.add_link("b", "c", 100.0)
    topo.attach_port(1, "a")
    topo.attach_port(2, "c")
    controller = SnapController(
        topo,
        Program(honeypot_policy(atomic=True), name="honeypot-atomic"),
        demands=uniform_traffic_matrix((1, 2), 1.0),
    )
    snap = controller.submit()
    owners = {snap.placement["hon-ip"], snap.placement["hon-dstport"]}
    print(f"placement: {dict(snap.placement)} (generation {snap.generation})")
    assert len(owners) == 1, "tied variables must share a switch"
    print("=> the placement MILP honoured the atomic() tie on its own.")


if __name__ == "__main__":
    main()
