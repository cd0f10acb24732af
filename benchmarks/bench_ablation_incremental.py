"""Ablation — what a link failure solves (§6.2.2, Table 4).

SNAP re-optimises routing only on a topology event, with the placement
fixed.  The controller first tries certified shortest walks
(:func:`~repro.milp.te.shortest_walk_routing`) and builds the pinned TE
LP fresh (``build_te_model(...).solve()``) only when they do not certify.
Per topology this times both on the degraded graph, checks that a
certified walk is the LP's optimum, and prints the walk's reason when it
does not certify.
"""

import time

import pytest

from repro.core.controller import SnapController
from repro.milp.te import build_te_model, shortest_walk_routing
from repro.topology.synthetic import table5_topology

from workloads import DEFAULT_PORTS, dns_tunnel_program, print_table

TOPOLOGIES = ("AS1755", "AS3257")

_RESULTS = []


def _some_core_link(topology, placement):
    """A failable link not incident to any port or state switch."""
    protected = set(topology.ports.values()) | set(placement.values())
    for a, b, _cap in topology.links():
        if a not in protected and b not in protected:
            degraded = topology.without_link(a, b)
            try:
                degraded.validate()
            except Exception:
                continue
            return (a, b)
    raise RuntimeError("no failable link found")


@pytest.mark.parametrize("name", TOPOLOGIES)
def test_walk_vs_fresh_lp(benchmark, name):
    topology = table5_topology(name, num_ports=DEFAULT_PORTS, seed=0)
    program = dns_tunnel_program(DEFAULT_PORTS)
    controller = SnapController(topology, program)
    cold = controller.submit()
    link = _some_core_link(topology, cold.placement)
    inputs = (
        topology.without_link(*link), dict(controller.demands), cold.mapping,
        cold.dependencies, dict(cold.placement),
    )

    def measure():
        start = time.perf_counter()
        walk = shortest_walk_routing(*inputs)
        walk_time = time.perf_counter() - start
        start = time.perf_counter()
        lp = build_te_model(*inputs).solve()
        lp_time = time.perf_counter() - start
        return walk_time, lp_time, walk, lp

    walk_time, lp_time, walk, lp = benchmark.pedantic(
        measure, iterations=1, rounds=1
    )
    if isinstance(walk, str):
        verdict = f"LP only: {walk}"
        print(f"{name}: the walk does not certify ({walk})")
    else:
        assert walk[0].objective == pytest.approx(lp.objective, rel=1e-6)
        verdict = "certified"
    _RESULTS.append(
        (name, str(link), verdict, f"{walk_time * 1e3:.1f}ms",
         f"{lp_time * 1e3:.1f}ms", f"{lp_time / walk_time:.0f}x")
    )


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    assert len(_RESULTS) == len(TOPOLOGIES)
    print_table(
        "Ablation: TE after link failure — certified walk vs fresh LP",
        ("topology", "failed link", "walk", "walk time", "build+solve LP",
         "LP/walk"),
        _RESULTS,
    )
