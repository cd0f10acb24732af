"""Synthetic packet traces for the Table 3 applications.

The paper evaluates compilation, not detection quality; a downstream user
of a stateful-policy compiler immediately wants to *drive traffic* through
the compiled network.  This module synthesizes the relevant behaviours —
DNS tunnels, SYN floods, FTP sessions, TCP handshakes, MPEG streams,
gravity-weighted background chatter — as ``(packet, ingress port)``
sequences ready for :meth:`repro.dataplane.network.Network.inject` or the
OBS reference semantics.

All generators are deterministic given a seed.  The stream contract: a
generator draws exactly the values, in the order, that one scalar
``Generator`` call per value would (so a passed-in ``Generator`` ends in
that state), but in array calls — ``integers(lows, highs)`` with
per-element bounds runs the scalar bounded-integer routine element by
element, Lemire rejections included, and on PCG64 (every ``make_rng``
seed) ``random()`` is ``integers(0, 2**53) / 2**53``.  A ``Generator`` on
another bit generator (MT19937, say) gets a deterministic stream that
differs from the scalar-call one.
"""

from __future__ import annotations

import numpy as np

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

        Deterministic for a given seed: one coin per step while both
        traces have arrivals left, drawn in blocks no longer than the
        shorter remainder, so exactly the coins a per-step draw takes.
        """
        rng = make_rng(seed)
        a, b = self.arrivals, other.arrivals
        i = j = 0
        merged = []
        while i < len(a) and j < len(b):
            for coin in rng.random(min(len(a) - i, len(b) - j)).tolist():
                remaining_a = len(a) - i
                if coin < remaining_a / (remaining_a + len(b) - j):
                    merged.append(a[i])
                    i += 1
                else:
                    merged.append(b[j])
                    j += 1
        merged += a[i:] + b[j:]
        return Trace(f"{self.name}|{other.name}", merged)

    def __repr__(self):
        return f"Trace({self.name!r}, {len(self.arrivals)} packets)"


def _source_ports(count: int, seed) -> list:
    """``count`` ephemeral ports, one ``integers(1024, 65000)`` draw each."""
    return make_rng(seed).integers(1024, 65000, size=max(count, 0)).tolist()


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
    # Per response, the covert address then the destination port.
    draws = make_rng(seed).integers(
        [1, 1024] * num_responses, [2 ** 31, 65000] * num_responses
    ).tolist()
    arrivals = [
        (Packet._wrap({"srcip": resolver_ip, "dstip": client_ip, "srcport": 53,
                       "dstport": dstport, "dns.rdata": covert}), resolver_port)
        for covert, dstport in zip(draws[::2], draws[1::2])
    ]
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
    servers = list(servers)
    # Per server, the response's destination port, the connection's source.
    draws = make_rng(seed).integers(1024, 65000, size=2 * len(servers)).tolist()
    arrivals = []
    for server_ip, dstport, srcport in zip(servers, draws[::2], draws[1::2]):
        response = {"srcip": resolver_ip, "dstip": client_ip, "srcport": 53,
                    "dstport": dstport, "dns.rdata": server_ip}
        connect = {"srcip": client_ip, "dstip": server_ip, "srcport": srcport,
                   "dstport": 80}
        arrivals += [(Packet._wrap(response), resolver_port),
                     (Packet._wrap(connect), client_port)]
    return Trace("benign-dns-usage", arrivals)


def dns_amplification_attack(
    victim_ip: int, resolver_ip: int, resolver_port: int, count: int = 10, seed=0
) -> Trace:
    """Spoofed-query reflections: responses the victim never asked for."""
    arrivals = [
        (Packet._wrap({"srcip": resolver_ip, "dstip": victim_ip, "srcport": 53,
                       "dstport": dstport}), resolver_port)
        for dstport in _source_ports(count, seed)
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
    syn = Symbol("SYN")
    arrivals = [
        (Packet._wrap({"srcip": attacker_ip, "dstip": victim_ip, "srcport": srcport,
                       "dstport": 80, "proto": 6, "tcp.flags": syn}), attacker_port)
        for srcport in _source_ports(count, seed)
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
    udp = Symbol("UDP")
    arrivals = [
        (Packet._wrap({"srcip": attacker_ip, "dstip": victim_ip, "proto": udp,
                       "srcport": srcport, "dstport": 53}), attacker_port)
        for srcport in _source_ports(count, seed)
    ]
    return Trace("udp-flood", arrivals)


#: Packets per ``integers`` call in :func:`background_traffic`, and the
#: bounds of one packet's six draws: two 53-bit uniforms (source and
#: destination port), two host offsets, a source port, a ``dports`` index.
_BLOCK = 4096
_LOWS = np.tile([0, 0, 1, 1, 1024, 0], _BLOCK)
_HIGHS = np.tile([2 ** 53, 2 ** 53, 100, 100, 65000, 4], _BLOCK)


def background_traffic(subnets: dict, count: int = 100, seed=0) -> Trace:
    """Gravity-weighted random transit chatter between all subnets.

    ``subnets`` maps OBS port -> :class:`IPPrefix`.  The stream is the
    scalar one — ``rng.choice(ports, size=2, p=weights)`` (the inverse
    CDF over two uniforms), two ``integers(1, 100)`` host offsets,
    ``integers(1024, 65000)``, ``rng.choice(dports)`` per packet — drawn
    ``_BLOCK`` packets per ``integers`` call (see the module docstring).
    """
    rng = make_rng(seed)
    ports = sorted(subnets)
    weights = rng.exponential(1.0, len(ports))
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    prefixes = [subnets[port] for port in ports]
    dports = (80, 443, 22, 8080)
    arrivals = []
    for start in range(0, count, _BLOCK):
        size = 6 * min(_BLOCK, count - start)
        draws = rng.integers(_LOWS[:size], _HIGHS[:size])
        uniforms = draws.reshape(-1, 6)[:, :2] / 2.0 ** 53
        ends = cdf.searchsorted(uniforms, side="right").ravel().tolist()
        values = draws.tolist()
        arrivals += [
            (Packet._wrap({"srcip": prefixes[src].host(src_host),
                           "dstip": prefixes[dst].host(dst_host),
                           "srcport": srcport, "dstport": dports[dport],
                           "proto": 6}), ports[src])
            for src, dst, src_host, dst_host, srcport, dport in zip(
                ends[::2], ends[1::2], values[2::6], values[3::6], values[4::6],
                values[5::6],
            )
        ]
    return Trace("background", arrivals)
