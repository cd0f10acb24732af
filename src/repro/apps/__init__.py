"""The Table 3 application suite (Chimera, FAST, Bohatei, others).

``ALL_APPS`` maps application name -> zero-argument constructor, in the
order Table 3 lists them; Figure 11's experiment composes them one by one.
"""

from repro.apps.bohatei import (
    dns_amplification_mitigation,
    elephant_flow_detect,
    syn_flood_detect,
    udp_flood_mitigation,
)
from repro.apps.chimera import (
    dns_ttl_change,
    dns_tunnel_detect,
    many_domain_ips,
    many_ip_domains,
    sidejack_detect,
    spam_detect,
)
from repro.apps.fast import (
    connection_affinity,
    flow_size_detect,
    ftp_monitoring,
    global_heavy_hitter,
    heavy_hitter_block,
    heavy_hitter_detect,
    sample_large,
    sample_medium,
    sample_small,
    sampling_by_flow_size,
    selective_packet_dropping,
    stateful_firewall,
    super_spreader_detect,
)
from repro.apps.other import snort_flowbits, tcp_state_machine
from repro.apps.routing import assign_egress, default_subnets, port_assumption

#: Table 3, in paper order, plus the deliberately-unshardable
#: ``global-heavy-hitter`` (the unshardable owner-lane worst case).
#: 21 applications.
ALL_APPS = {
    # Chimera [5]
    "many-ip-domains": many_ip_domains,
    "many-domain-ips": many_domain_ips,
    "dns-ttl-change": dns_ttl_change,
    "dns-tunnel-detect": dns_tunnel_detect,
    "sidejack-detect": sidejack_detect,
    "spam-detect": spam_detect,
    # FAST [21]
    "stateful-firewall": stateful_firewall,
    "ftp-monitoring": ftp_monitoring,
    "heavy-hitter": heavy_hitter_detect,
    "super-spreader": super_spreader_detect,
    "sampling-by-flow-size": sampling_by_flow_size,
    "selective-packet-dropping": selective_packet_dropping,
    "connection-affinity": connection_affinity,
    # Bohatei [8]
    "syn-flood": syn_flood_detect,
    "dns-amplification": dns_amplification_mitigation,
    "udp-flood": udp_flood_mitigation,
    "elephant-flows": elephant_flow_detect,
    # Others
    "tcp-state-machine": tcp_state_machine,
    "snort-flowbits": snort_flowbits,
    "flow-size-detect": flow_size_detect,
    # Not in Table 3: the one-global-counter worst case every ingress
    # updates — §7.3 sharding serializes it on one owner lane.
    "global-heavy-hitter": global_heavy_hitter,
}

__all__ = [
    "ALL_APPS",
    "assign_egress", "default_subnets", "port_assumption",
    "dns_amplification_mitigation", "elephant_flow_detect",
    "syn_flood_detect", "udp_flood_mitigation",
    "dns_ttl_change", "dns_tunnel_detect", "many_domain_ips",
    "many_ip_domains", "sidejack_detect", "spam_detect",
    "connection_affinity", "flow_size_detect", "ftp_monitoring",
    "global_heavy_hitter", "heavy_hitter_block", "heavy_hitter_detect",
    "sample_large", "sample_medium", "sample_small",
    "sampling_by_flow_size", "selective_packet_dropping",
    "stateful_firewall", "super_spreader_detect",
    "snort_flowbits", "tcp_state_machine",
]
