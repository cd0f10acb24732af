"""Seeded traffic for snapbench, built only from public ``repro.workloads``
generators.

The seed resamples the individual packets; the properties the system's
behaviour depends on — how many packets cross each (ingress, egress)
pair, what share of the trace drives state, how many distinct clients
hold state — are the same for every seed, so a run on seed 8 measures
the same workload as a run on seed 7.  ``background_traffic`` on its own
does not do that: it draws one set of gravity weights per call, so the
traffic matrix (and with it hops and cost per packet) swings with the
seed.  :func:`steady_background` draws many short chunks and keeps a
fixed quota per port pair.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.util.rng import make_rng
from repro.workloads import (
    Trace,
    background_traffic,
    benign_dns_usage,
    dns_tunnel_attack,
)

#: Packets per ``background_traffic`` call: short enough that the
#: per-call gravity weights average out and every pair's quota fills
#: after ~1.3x oversampling, long enough that per-call cost is noise.
CHUNK = 500

#: Hosts a client or resolver is drawn from in each /24.
HOSTS = 250


class Traffic(NamedTuple):
    """A trace plus the properties behaviour depends on."""

    trace: Trace
    #: ``packets``, ``stateful_share`` (packets from the DNS session
    #: generators / packets), ``distinct_clients`` (state working set).
    properties: dict


def steady_background(subnets: dict, count: int, seed) -> Trace:
    """``count`` background packets, the same number on every ordered
    pair of distinct ports whatever the seed, in seeded random order.

    Hairpin packets (egress = ingress) are left out, as they are from
    the traffic matrix the placement is solved for: S_uu is not part of
    the packet-state mapping, and a hairpin packet that needs state held
    on another switch has no flow to ride there (``DataPlaneError``).
    """
    ports = sorted(subnets)
    pairs = [(u, v) for u in ports for v in ports if u != v]
    quota = dict.fromkeys(pairs, count // len(pairs))
    for pair in pairs[: count % len(pairs)]:
        quota[pair] += 1
    egress_of: dict = {}
    picked = []
    chunk = 0
    while len(picked) < count:
        for packet, port in background_traffic(
            subnets, count=CHUNK, seed=(seed, 1, chunk)
        ):
            dstip = packet.get("dstip")
            egress = egress_of.get(dstip)
            if egress is None:
                egress = egress_of[dstip] = next(
                    p for p in ports if subnets[p].contains(dstip)
                )
            if quota.get((port, egress)):
                quota[port, egress] -= 1
                picked.append((packet, port))
        chunk += 1
    # Quotas fill unevenly, so generation order front-loads the common
    # pairs; a seeded permutation spreads every pair over the trace.
    order = make_rng((seed, 2)).permutation(count)
    return Trace("background-steady", [picked[i] for i in order])


def dns_sessions(subnets: dict, count: int, seed) -> tuple:
    """At least ``count`` packets of DNS behaviour, as ``(trace, clients)``.

    Sessions alternate at random between three lookup-then-connect pairs
    (``benign_dns_usage``) and a five-response tunnel burst
    (``dns_tunnel_attack``), each with a random client, resolver and
    server subnet (never the client's own: no hairpins, see
    :func:`steady_background`); order inside a session is the generator's.
    """
    rng = make_rng((seed, 3))
    ports = sorted(subnets)
    arrivals: list = []
    clients = set()

    def host(avoid=None):
        port = int(rng.choice([p for p in ports if p != avoid]))
        return subnets[port].host(int(rng.integers(1, HOSTS))), port

    session = 0
    while len(arrivals) < count:
        client_ip, client_port = host()
        resolver_ip, resolver_port = host(avoid=client_port)
        clients.add(client_ip)
        if rng.random() < 0.5:
            servers, server_port = zip(
                *(host(avoid=client_port) for _ in range(3))
            )
            part = benign_dns_usage(
                client_ip, client_port, resolver_ip, resolver_port,
                servers, server_port[0], seed=(seed, 4, session),
            )
        else:
            part = dns_tunnel_attack(
                client_ip, client_port, resolver_ip, resolver_port,
                num_responses=5, seed=(seed, 4, session),
            )
        arrivals.extend(part.arrivals)
        session += 1
    return Trace("dns-sessions", arrivals[:count]), clients


def background_only(subnets: dict, count: int, seed) -> Traffic:
    """Stateless-looking transit chatter only (``monitor-replay``)."""
    trace = steady_background(subnets, count, seed)
    return Traffic(
        trace,
        {"packets": len(trace), "stateful_share": 0.0, "distinct_clients": 0},
    )


def mixed(subnets: dict, count: int, seed, stateful_share: float = 0.5) -> Traffic:
    """DNS sessions shuffled, order-preservingly, into steady background."""
    stateful = int(count * stateful_share)
    sessions, clients = dns_sessions(subnets, stateful, seed)
    background = steady_background(subnets, count - stateful, seed)
    trace = background.interleaved_with(sessions, seed=make_rng((seed, 5)))
    return Traffic(
        trace,
        {
            "packets": len(trace),
            "stateful_share": len(sessions) / len(trace),
            "distinct_clients": len(clients),
        },
    )
