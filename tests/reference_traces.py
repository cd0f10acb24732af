"""Reference trace generators: the scalar-draw versions as they were written.

``repro.workloads.traces`` draws the same random streams with array
calls (one ``Generator.integers`` / ``random`` call per block instead of
one scalar call per value, packets built without ``make_packet``'s
checks).  These are the generators it replaced, kept as the oracles
``tests/test_workloads.py`` compares it against, arrival by arrival and
in the state a passed-in ``Generator`` is left in.
"""

from __future__ import annotations

from repro.lang.packet import make_packet
from repro.lang.values import Symbol
from repro.util.rng import make_rng
from repro.workloads.traces import Trace


def background_traffic(subnets: dict, count: int = 100, seed=0) -> Trace:
    """Gravity-weighted random transit chatter between all subnets."""
    rng = make_rng(seed)
    ports = sorted(subnets)
    weights = rng.exponential(1.0, len(ports))
    weights = weights / weights.sum()
    arrivals = []
    for _ in range(count):
        src_port, dst_port = rng.choice(ports, size=2, p=weights, replace=True)
        src_port, dst_port = int(src_port), int(dst_port)
        packet = make_packet(
            srcip=subnets[src_port].host(int(rng.integers(1, 100))),
            dstip=subnets[dst_port].host(int(rng.integers(1, 100))),
            srcport=int(rng.integers(1024, 65000)),
            dstport=int(rng.choice([80, 443, 22, 8080])),
            proto=6,
        )
        arrivals.append((packet, src_port))
    return Trace("background", arrivals)


def interleaved_with(first: Trace, other: Trace, seed=0) -> Trace:
    """``Trace.interleaved_with``: one coin per step while both traces
    still have arrivals."""
    rng = make_rng(seed)
    a, b = first.arrivals, other.arrivals
    i = j = 0
    merged = []
    while i < len(a) or j < len(b):
        remaining_a = len(a) - i
        remaining_b = len(b) - j
        take_a = remaining_a > 0 and (
            remaining_b == 0
            or rng.random() < remaining_a / (remaining_a + remaining_b)
        )
        if take_a:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
    return Trace(f"{first.name}|{other.name}", merged)


def dns_tunnel_attack(
    client_ip, client_port, resolver_ip, resolver_port, num_responses=5, seed=0
) -> Trace:
    rng = make_rng(seed)
    arrivals = []
    for k in range(num_responses):
        covert = int(rng.integers(1, 2 ** 31))
        arrivals.append(
            (
                make_packet(
                    srcip=resolver_ip, dstip=client_ip, srcport=53,
                    dstport=int(rng.integers(1024, 65000)),
                    **{"dns.rdata": covert},
                ),
                resolver_port,
            )
        )
    return Trace("dns-tunnel-attack", arrivals)


def benign_dns_usage(
    client_ip, client_port, resolver_ip, resolver_port, servers, server_port,
    seed=0,
) -> Trace:
    rng = make_rng(seed)
    arrivals = []
    for server_ip in servers:
        arrivals.append(
            (
                make_packet(
                    srcip=resolver_ip, dstip=client_ip, srcport=53,
                    dstport=int(rng.integers(1024, 65000)),
                    **{"dns.rdata": server_ip},
                ),
                resolver_port,
            )
        )
        arrivals.append(
            (
                make_packet(
                    srcip=client_ip, dstip=server_ip,
                    srcport=int(rng.integers(1024, 65000)), dstport=80,
                ),
                client_port,
            )
        )
    return Trace("benign-dns-usage", arrivals)


def dns_amplification_attack(
    victim_ip, resolver_ip, resolver_port, count=10, seed=0
) -> Trace:
    rng = make_rng(seed)
    arrivals = [
        (
            make_packet(
                srcip=resolver_ip, dstip=victim_ip, srcport=53,
                dstport=int(rng.integers(1024, 65000)),
            ),
            resolver_port,
        )
        for _ in range(count)
    ]
    return Trace("dns-amplification", arrivals)


def syn_flood(attacker_ip, attacker_port, victim_ip, count=50, seed=0) -> Trace:
    rng = make_rng(seed)
    arrivals = [
        (
            make_packet(
                srcip=attacker_ip, dstip=victim_ip,
                srcport=int(rng.integers(1024, 65000)), dstport=80, proto=6,
                **{"tcp.flags": Symbol("SYN")},
            ),
            attacker_port,
        )
        for _ in range(count)
    ]
    return Trace("syn-flood", arrivals)


def udp_flood(attacker_ip, attacker_port, victim_ip, count=30, seed=0) -> Trace:
    rng = make_rng(seed)
    arrivals = [
        (
            make_packet(
                srcip=attacker_ip, dstip=victim_ip, proto=Symbol("UDP"),
                srcport=int(rng.integers(1024, 65000)), dstport=53,
            ),
            attacker_port,
        )
        for _ in range(count)
    ]
    return Trace("udp-flood", arrivals)
