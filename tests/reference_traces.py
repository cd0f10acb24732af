"""Reference trace generator: ``background_traffic`` as it was written.

``repro.workloads.traces.background_traffic`` draws the same random
stream with cheaper calls (``Generator.choice`` unrolled to the inverse
CDF it computes, packets built without ``make_packet``'s checks).  This
is the generator it replaced, kept as the oracle
``tests/test_workloads.py`` compares it against, arrival by arrival.
"""

from __future__ import annotations

from repro.lang.packet import make_packet
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
