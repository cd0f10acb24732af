#!/usr/bin/env python3
"""Failure recovery as controller events (§6.2 "Topology/TM Changes").

A long-lived ``SnapController`` session handles a stream of network
events.  After the cold start, a link no installed path uses fails: the
routing in force is still optimal, so the controller keeps it and solves
nothing.  Then a core link fails: instead of re-solving the joint
placement problem, the session re-optimizes only the routing — the
P5-TE + P6 path of Table 4 — by each flow's cheapest walk through its
state switches, which is optimal while the walks fit the links (when
they do not, it builds the routing LP on the degraded topology and
solves it).  Its repair hands back the cold-start
routing, again without a solve.  Each event yields an immutable,
generation-numbered snapshot; the rerouted paths still respect every
state constraint.

Run:  python examples/failure_recovery.py
"""

from repro import Program, SnapController, campus_topology
from repro.apps import assign_egress, default_subnets, dns_tunnel_detect, port_assumption
from repro.lang import ast
from repro.milp.results import validate_solution


def build_program():
    subnets = default_subnets(6)
    detect = dns_tunnel_detect(threshold=3)
    return Program(
        ast.Seq(detect.policy, assign_egress(subnets)),
        assumption=port_assumption(subnets),
        state_defaults=detect.state_defaults,
        name="dns-tunnel+egress",
    )


def programs():
    """Lint hook: ``python -m repro.analysis.lint failure_recovery``."""
    return [build_program()]


def main():
    program = build_program()
    controller = SnapController(campus_topology(), program)

    cold = controller.submit()
    st_time = cold.timer.durations["P5"]
    print("== Cold start (generation 0) ==")
    print(f"placement: {dict(cold.placement)}")
    print(f"path 1->6: {' -> '.join(cold.routing.path(1, 6))}")
    print(f"ST solve:  {st_time * 1000:.1f} ms")

    print("\n== Event: link C3-C5 fails (no installed path uses it) ==")
    idle = controller.fail_link("C3", "C5")
    # A routing optimal with fewer links down, which avoids this one, is
    # still optimal: the controller keeps it instead of re-solving.
    assert idle.model_stats["solve_reused"] and idle.routing is cold.routing
    print(f"routing kept, no solve (generation {idle.generation}, "
          f"TE solves so far: {controller.backend.calls['te_solves']})")

    print("\n== Event: link C1-C5 fails (routing re-optimized, §6.2) ==")
    recovered = controller.fail_link("C1", "C5")
    te_time = recovered.timer.durations["P5"]
    print(f"snapshot:  generation {recovered.generation}, "
          f"event {recovered.event!r}")
    # "walk": every flow's cheapest walk through its state switches fits
    # the links, so it is optimal and no LP is built; otherwise the
    # reason, and the routing LP is built on the degraded topology and solved.
    print(f"TE re-optimization: {te_time * 1000:.1f} ms "
          f"(route: {recovered.model_stats['te_route']}; "
          f"placement untouched: {recovered.placement == cold.placement})")
    new_path = recovered.routing.path(1, 6)
    print(f"new path 1->6: {' -> '.join(new_path)}")
    assert ("C1", "C5") not in list(zip(new_path, new_path[1:]))
    # The snapshot's topology IS the degraded one the solve ran against.
    validate_solution(recovered.routing, recovered.topology,
                      recovered.mapping, recovered.dependencies)
    print("state-ordering constraints still hold on every installed path.")

    print("\n== Event: link C1-C5 repaired ==")
    repaired = controller.restore_link("C1", "C5")
    how = (
        "cold-start routing reused, no solve"
        if repaired.model_stats["solve_reused"] else "re-solved"
    )
    print(f"path 1->6 back to: {' -> '.join(repaired.routing.path(1, 6))} "
          f"in {repaired.timer.durations['P5'] * 1000:.1f} ms "
          f"({how}; generation {repaired.generation})")

    print("\n== Event: traffic shift (hotspot toward port 6) ==")
    demands = dict(controller.demands)
    for u in range(1, 6):
        demands[(u, 6)] = demands.get((u, 6), 0.0) * 5
    shifted = controller.set_demands(demands)
    print(f"TE under shifted matrix: objective {shifted.objective:.3f} "
          f"(was {recovered.objective:.3f})")
    print(f"path 2->6: {' -> '.join(shifted.routing.path(2, 6))}")

    calls = controller.backend.calls
    reuses = sum(
        bool(s.model_stats.get("solve_reused")) for s in controller.history()[1:]
    )
    print(f"\nTE events: {calls['te_walks']} tried certified walks, "
          f"{calls['te_solves']} fell back to the routing LP, a certified "
          f"routing reused {reuses} times across {controller.generation} events")
    print("snapshots:", ", ".join(
        f"gen {s.generation}={s.event}" for s in controller.history()
    ))


if __name__ == "__main__":
    main()
