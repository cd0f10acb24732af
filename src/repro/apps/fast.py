"""FAST [21] applications (Table 3, Appendix F policies 3, 5, 7, 9-16)."""

from __future__ import annotations

from repro.core.program import Program
from repro.lang.parser import parse
from repro.lang.values import Symbol

#: The 5-tuple flow index used throughout Appendix F.
FLOW_IND = "[srcip][dstip][srcport][dstport][proto]"
#: The reverse-direction flow index.
FLOW_IND_REV = "[dstip][srcip][dstport][srcport][proto]"


def stateful_firewall(subnet: str = "10.0.6.0/24") -> Program:
    """Policy 3: allow only connections initiated from inside ``subnet``."""
    source = """
    if srcip = {subnet} then
      established[srcip][dstip] <- True
    else
      if dstip = {subnet} then established[dstip][srcip]
      else id
    """.replace("{subnet}", subnet)
    return Program.from_source(source, name="stateful-firewall")


def ftp_monitoring() -> Program:
    """Policy 5: admit FTP data connections only after a control-channel
    PORT announcement (standard mode)."""
    source = """
    if dstport = 21 then
      ftp-data-chan[srcip][dstip][ftp.PORT] <- True
    else
      if srcport = 20 then ftp-data-chan[dstip][srcip][ftp.PORT]
      else id
    """
    return Program.from_source(source, name="ftp-monitoring")


def heavy_hitter_detect(threshold: int = 100) -> Program:
    """Policy 7: count SYNs per source; flag heavy hitters."""
    source = """
    if tcp.flags = SYN & !heavy-hitter[srcip] then
      hh-counter[srcip]++;
      if hh-counter[srcip] = threshold then
        heavy-hitter[srcip] <- True
      else id
    else id
    """
    return Program.from_source(
        source, params={"threshold": threshold}, name="heavy-hitter"
    )


def global_heavy_hitter(subnet: str = "10.0.6.0/24") -> Program:
    """A deliberately *unshardable* heavy-hitter: one network-wide
    per-source packet counter that every ingress port updates.

    The §7.3 shard planner collapses all of ``global-hh``'s ingress
    ports into a single owner lane (SNAP-W104), so this is the
    worst-case shape for lane parallelism: every packet it counts runs
    on that one lane, whichever port it entered.  The ``dstip`` guard
    keeps the single-variable placement feasible on the campus topology
    (an unguarded network-wide write has no valid egress assignment).
    """
    source = """
    if dstip = {subnet} then global-hh[srcip]++ else id
    """.replace("{subnet}", subnet)
    return Program.from_source(source, name="global-heavy-hitter")


def heavy_hitter_block(threshold: int = 100) -> Program:
    """§F: detection composed with blocking —
    ``heavy-hitter-detection; (heavy-hitter[srcip] = False)``."""
    detect = heavy_hitter_detect(threshold)
    block = parse("heavy-hitter[srcip] = False")
    program = Program(
        parse("id"), name="heavy-hitter-block", state_defaults=detect.state_defaults
    )
    from repro.lang import ast

    program.policy = ast.Seq(detect.policy, block)
    return program


def super_spreader_detect(threshold: int = 100) -> Program:
    """Policy 9: sources opening many connections without closing them."""
    source = """
    if tcp.flags = SYN then
      spreader[srcip]++;
      if spreader[srcip] = threshold then
        super-spreader[srcip] <- True
      else id
    else
      if tcp.flags = FIN then spreader[srcip]--
      else id
    """
    return Program.from_source(
        source, params={"threshold": threshold}, name="super-spreader"
    )


def flow_size_detect() -> Program:
    """Policy 10: classify flows as SMALL / MEDIUM / LARGE by packet count."""
    source = """
    flow-size{fi}++;
    if flow-size{fi} = 1 then flow-type{fi} <- SMALL
    else
      if flow-size{fi} = 100 then flow-type{fi} <- MEDIUM
      else
        if flow-size{fi} = 1000 then flow-type{fi} <- LARGE
        else id
    """.replace("{fi}", FLOW_IND)
    return Program.from_source(source, name="flow-size-detect")


def _sampler(name: str, period: int) -> str:
    return """
    {name}-sampler{fi}++;
    if {name}-sampler{fi} = {period} then {name}-sampler{fi} <- 0
    else drop
    """.replace("{name}", name).replace("{fi}", FLOW_IND).replace(
        "{period}", str(period)
    )


def sample_small(period: int = 5) -> Program:
    """Policy 12: pass one in ``period`` packets of small flows."""
    return Program.from_source(_sampler("small", period), name="sample-small")


def sample_medium(period: int = 50) -> Program:
    """Policy 13."""
    return Program.from_source(_sampler("medium", period), name="sample-medium")


def sample_large(period: int = 500) -> Program:
    """Policy 14."""
    return Program.from_source(_sampler("large", period), name="sample-large")


def sampling_by_flow_size(
    small_period: int = 5, medium_period: int = 50, large_period: int = 500
) -> Program:
    """Policy 11: flow-size detection steering three samplers."""
    source = """
    flow-size-detect;
    if flow-type{fi} = SMALL then sample-small
    else
      if flow-type{fi} = MEDIUM then sample-medium
      else sample-large
    """.replace("{fi}", FLOW_IND)
    definitions = {
        "flow-size-detect": flow_size_detect().policy,
        "sample-small": sample_small(small_period).policy,
        "sample-medium": sample_medium(medium_period).policy,
        "sample-large": sample_large(large_period).policy,
    }
    return Program.from_source(
        source, definitions=definitions, name="sampling-by-flow-size"
    )


def selective_packet_dropping(gop: int = 14) -> Program:
    """Policy 15: drop dependent MPEG B-frames once their I-frame is lost."""
    source = """
    if mpeg.frame-type = Iframe then
      dep-count[srcip][dstip][srcport][dstport] <- {gop}
    else
      if dep-count[srcip][dstip][srcport][dstport] = 0 then drop
      else dep-count[srcip][dstip][srcport][dstport]--
    """.replace("{gop}", str(gop))
    return Program.from_source(source, name="selective-packet-dropping")


def connection_affinity(lb_policy=None) -> Program:
    """Policy 16: established connections bypass the load balancer ``lb``.

    The default ``lb`` pins established connections to outport 1 — pass a
    real load-balancing policy to replace it.
    """
    source = """
    if tcp-state{rev} = ESTABLISHED | tcp-state{fwd} = ESTABLISHED then lb
    else id
    """.replace("{rev}", FLOW_IND_REV).replace("{fwd}", FLOW_IND)
    definitions = {"lb": lb_policy if lb_policy is not None else parse("outport <- 1")}
    return Program.from_source(
        source,
        definitions=definitions,
        state_defaults={"tcp-state": Symbol("CLOSED")},
        name="connection-affinity",
    )
