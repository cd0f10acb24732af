"""Human-readable compilation reports.

§4.5/§5: the compiler's output per switch is a NetASM program plus
match-action routing rules.  :func:`compilation_report` summarizes what
was installed where — useful for examples, docs, and operators sanity-
checking a deployment.
"""

from __future__ import annotations

from repro.core.result import Snapshot
from repro.dataplane.network import Network
from repro.xfdd.diagram import size


def compilation_report(result: Snapshot, network: Network | None = None) -> str:
    """A multi-line summary of one compilation snapshot."""
    lines = []
    lines.append(f"program:   {result.program.name}")
    lines.append(f"topology:  {result.topology.name} "
                 f"({result.topology.num_switches()} switches, "
                 f"{len(result.topology.ports)} OBS ports)")
    lines.append(f"scenario:  {result.scenario} "
                 f"(generation {result.generation}, event {result.event})")
    lines.append(f"xFDD size: {size(result.xfdd)}")
    lines.append(f"objective: {result.objective:.4f} (sum of link utilization)")
    lines.append("state placement:")
    by_switch: dict = {}
    for var, switch in sorted(result.placement.items()):
        by_switch.setdefault(switch, []).append(var)
    for switch, vars_ in sorted(by_switch.items()):
        lines.append(f"  {switch}: {', '.join(vars_)}")
    if result.dependencies.groups:
        groups = ", ".join(
            "{" + ", ".join(sorted(g)) + "}" for g in result.dependencies.groups
        )
        lines.append(f"co-located groups: {groups}")
    lines.append("phase timings:")
    for phase in ("P1", "P2", "P3", "P4", "P5", "P6"):
        if phase in result.timer.durations:
            lines.append(f"  {phase}: {result.timer.durations[phase] * 1000:9.2f} ms")
    if network is not None:
        lines.append("per-switch data plane:")
        rule_counts = network.rules.rule_counts()
        instr_counts = network.instruction_counts()
        for switch in sorted(network.switches):
            rules = rule_counts.get(switch, 0)
            instrs = instr_counts.get(switch, 0)
            entries = len(network.switches[switch].entries)
            lines.append(
                f"  {switch}: {rules} routing rules, {instrs} NetASM "
                f"instructions, {entries} xFDD entry points"
            )
    return "\n".join(lines)
