"""Synthetic packet traces for the Table 3 applications.

The paper evaluates compilation, not detection quality; a downstream user
of a stateful-policy compiler immediately wants to *drive traffic* through
the compiled network.  This module synthesizes the relevant behaviours —
DNS tunnels, SYN floods, FTP sessions, TCP handshakes, MPEG streams,
gravity-weighted background chatter — as ``(packet, ingress port)``
sequences ready for :meth:`repro.dataplane.network.Network.inject` or the
OBS reference semantics.

All generators are deterministic given a seed.
"""

from __future__ import annotations

from repro.lang.packet import Packet, make_packet
from repro.lang.values import Symbol
from repro.util.rng import make_rng


class Trace:
    """A sequence of (packet, ingress-port) arrivals with a label."""

    def __init__(self, name: str, arrivals):
        self.name = name
        self.arrivals = list(arrivals)

    def __iter__(self):
        return iter(self.arrivals)

    def __len__(self):
        return len(self.arrivals)

    def __add__(self, other: "Trace") -> "Trace":
        return Trace(f"{self.name}+{other.name}", self.arrivals + other.arrivals)

    def interleaved_with(self, other: "Trace", seed=0) -> "Trace":
        """Random stable interleaving of two traces (per-trace order kept).

        Deterministic for a given seed.  Index pointers, not ``pop(0)``:
        the merge is O(n), which matters for the long replay traces the
        data-plane engine benchmarks interleave.
        """
        rng = make_rng(seed)
        a, b = self.arrivals, other.arrivals
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
        return Trace(f"{self.name}|{other.name}", merged)

    def __repr__(self):
        return f"Trace({self.name!r}, {len(self.arrivals)} packets)"


# ---------------------------------------------------------------------------
# DNS behaviours
# ---------------------------------------------------------------------------


def dns_tunnel_attack(
    client_ip: int,
    client_port: int,
    resolver_ip: int,
    resolver_port: int,
    num_responses: int = 5,
    seed=0,
) -> Trace:
    """A tunnel: many DNS responses whose resolved IPs are never used."""
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
    client_ip: int,
    client_port: int,
    resolver_ip: int,
    resolver_port: int,
    servers,
    server_port: int,
    seed=0,
) -> Trace:
    """Lookup-then-connect pairs: every resolved address gets used."""
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
    victim_ip: int, resolver_ip: int, resolver_port: int, count: int = 10, seed=0
) -> Trace:
    """Spoofed-query reflections: responses the victim never asked for."""
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


# ---------------------------------------------------------------------------
# TCP behaviours
# ---------------------------------------------------------------------------


def tcp_session(
    client_ip: int,
    server_ip: int,
    client_port: int,
    server_port: int,
    sport: int = 40000,
    dport: int = 80,
    data_packets: int = 3,
    teardown: bool = True,
) -> Trace:
    """A full TCP session: handshake, data, orderly teardown."""
    fwd = dict(srcip=client_ip, dstip=server_ip, srcport=sport, dstport=dport,
               proto=6)
    rev = dict(srcip=server_ip, dstip=client_ip, srcport=dport, dstport=sport,
               proto=6)
    arrivals = [
        (make_packet(**fwd, **{"tcp.flags": Symbol("SYN")}), client_port),
        (make_packet(**rev, **{"tcp.flags": Symbol("SYN-ACK")}), server_port),
        (make_packet(**fwd, **{"tcp.flags": Symbol("ACK")}), client_port),
    ]
    for k in range(data_packets):
        side = fwd if k % 2 == 0 else rev
        port = client_port if k % 2 == 0 else server_port
        arrivals.append(
            (make_packet(**side, **{"tcp.flags": Symbol("PSH")}), port)
        )
    if teardown:
        arrivals.extend(
            [
                (make_packet(**fwd, **{"tcp.flags": Symbol("FIN")}), client_port),
                (make_packet(**rev, **{"tcp.flags": Symbol("FIN-ACK")}), server_port),
                (make_packet(**fwd, **{"tcp.flags": Symbol("ACK")}), client_port),
            ]
        )
    return Trace("tcp-session", arrivals)


def syn_flood(
    attacker_ip: int,
    attacker_port: int,
    victim_ip: int,
    count: int = 50,
    seed=0,
) -> Trace:
    """SYNs without ACKs, cycling source ports."""
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


# ---------------------------------------------------------------------------
# Other application behaviours
# ---------------------------------------------------------------------------


def ftp_session(
    client_ip: int,
    server_ip: int,
    client_port: int,
    server_port: int,
    data_port: int = 5050,
    data_packets: int = 3,
) -> Trace:
    """Standard-mode FTP: PORT announcement then a server data burst."""
    arrivals = [
        (
            make_packet(
                srcip=client_ip, dstip=server_ip, srcport=41000, dstport=21,
                **{"ftp.port": data_port},
            ),
            client_port,
        )
    ]
    for _ in range(data_packets):
        arrivals.append(
            (
                make_packet(
                    srcip=server_ip, dstip=client_ip, srcport=20,
                    dstport=data_port, **{"ftp.port": data_port},
                ),
                server_port,
            )
        )
    return Trace("ftp-session", arrivals)


def mpeg_stream(
    src_ip: int,
    dst_ip: int,
    src_port: int,
    gop: int = 14,
    groups: int = 3,
    lose_iframe_group: int | None = None,
) -> Trace:
    """I-frame then ``gop`` dependent B-frames per group; optionally drop
    the I-frame of one group (simulating upstream loss)."""
    flow = dict(srcip=src_ip, dstip=dst_ip, srcport=7000, dstport=7001)
    arrivals = []
    for g in range(groups):
        if g != lose_iframe_group:
            arrivals.append(
                (make_packet(**flow, **{"mpeg.frame-type": Symbol("Iframe")}),
                 src_port)
            )
        for _ in range(gop):
            arrivals.append(
                (make_packet(**flow, **{"mpeg.frame-type": Symbol("Bframe")}),
                 src_port)
            )
    return Trace("mpeg-stream", arrivals)


def udp_flood(
    attacker_ip: int, attacker_port: int, victim_ip: int, count: int = 30, seed=0
) -> Trace:
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


def background_traffic(
    subnets: dict,
    count: int = 100,
    seed=0,
) -> Trace:
    """Gravity-weighted random transit chatter between all subnets.

    ``subnets`` maps OBS port -> :class:`IPPrefix`.
    """
    rng = make_rng(seed)
    ports = sorted(subnets)
    weights = rng.exponential(1.0, len(ports))
    # The weighted draw is ``rng.choice(ports, size=2, p=weights)`` done
    # by hand — the inverse CDF over two uniforms, as NumPy computes it —
    # and the unweighted one ``rng.choice(dports)``: same stream, same
    # packets, without the per-call argument checks.
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    dports = (80, 443, 22, 8080)
    random, integers, pick = rng.random, rng.integers, cdf.searchsorted
    arrivals = []
    for _ in range(count):
        src, dst = pick(random(2), side="right").tolist()
        src_port, dst_port = ports[src], ports[dst]
        fields = {
            "srcip": subnets[src_port].host(int(integers(1, 100))),
            "dstip": subnets[dst_port].host(int(integers(1, 100))),
            "srcport": int(integers(1024, 65000)),
            "dstport": dports[int(integers(0, 4))],
            "proto": 6,
        }
        arrivals.append((Packet._wrap(fields), src_port))
    return Trace("background", arrivals)
