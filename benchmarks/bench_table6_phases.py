"""Table 6 — runtime of compiler phases when compiling DNS-tunnel-detect
with routing on the seven enterprise/ISP topologies.

The paper's columns: P1-P2-P3 (analysis), P5 ST, P5 TE, P6, P4.  Absolute
numbers differ from the paper (Gurobi/PyPy vs HiGHS/CPython, and the
scaled-down demand count); the shape to check is ST > TE, analysis and
rule generation negligible, and the larger ISP topologies costing the
most (AS6461/AS3257 > AS1755/AS1221; Purdue > Stanford/Berkeley).

The controller's P5 ST is the certified shortest-walk search, which
finishes in about 0.01 s on every topology.  The paper's ST column is a
MILP solve, so ``ST MILP`` builds and solves the Table 2 MILP on the cold
snapshot's inputs (``build_placement_model(...).solve(mip_rel_gap=0.0)``); the shape
checks read that column, and its objective must equal the walk's.
"""

import time

import pytest

from repro.core.controller import SnapController
from repro.milp.placement import build_placement_model
from repro.topology.synthetic import TABLE5, table5_topology

from workloads import DEFAULT_PORTS, dns_tunnel_program, print_table

_RESULTS = []


@pytest.mark.parametrize("name", list(TABLE5))
def test_phase_runtimes(benchmark, name):
    topology = table5_topology(name, num_ports=DEFAULT_PORTS, seed=0)
    program = dns_tunnel_program(DEFAULT_PORTS)

    def compile_both():
        controller = SnapController(topology, program)
        cold = controller.submit()
        te = controller.reroute()
        return cold, te

    cold, te = benchmark.pedantic(compile_both, iterations=1, rounds=1)
    start = time.perf_counter()
    milp = build_placement_model(
        cold.topology, dict(cold.demands), cold.mapping, cold.dependencies,
    ).solve(mip_rel_gap=0.0)  # solved to optimality, so equal objectives
    milp_s = time.perf_counter() - start
    assert milp.objective == pytest.approx(cold.objective, rel=1e-6)
    durations = cold.timer.durations
    analysis = durations["P1"] + durations["P2"] + durations["P3"]
    row = (
        name,
        f"{analysis:.2f}",
        f"{durations['P5']:.2f}",
        f"{milp_s:.2f}",
        f"{te.timer.durations['P5']:.2f}",
        f"{durations['P6']:.3f}",
        f"{durations['P4']:.2f}",
    )
    for key, value in zip(
        ("P1-P2-P3", "P5_ST", "ST_MILP", "P5_TE", "P6", "P4"), row[1:]
    ):
        benchmark.extra_info[key] = value
    _RESULTS.append(row)


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    assert len(_RESULTS) == len(TABLE5)
    print_table(
        f"Table 6: phase runtimes (s), DNS-tunnel + routing, "
        f"{DEFAULT_PORTS} OBS ports",
        ("topology", "P1-P2-P3", "P5 ST", "ST MILP", "P5 TE", "P6", "P4"),
        _RESULTS,
    )
    # Shape checks mirroring the paper's observations.
    by_name = {row[0]: row for row in _RESULTS}
    st = {name: float(row[3]) for name, row in by_name.items()}
    # The large ISPs dominate the small ones.
    assert max(st["AS6461"], st["AS3257"]) > min(st["AS1755"], st["AS1221"])
    # Analysis phases are cheap relative to solving on the big ISPs.
    assert float(by_name["AS3257"][1]) < st["AS3257"]
