"""Synthetic traffic workloads and replay helpers."""

from repro.workloads.replay import ReplayStats, replay, replay_obs
from repro.workloads.traces import (
    Trace,
    background_traffic,
    benign_dns_usage,
    dns_amplification_attack,
    dns_tunnel_attack,
    ftp_session,
    mpeg_stream,
    syn_flood,
    tcp_session,
    udp_flood,
)

__all__ = [
    "ReplayStats", "replay", "replay_obs",
    "Trace", "background_traffic", "benign_dns_usage",
    "dns_amplification_attack", "dns_tunnel_attack", "ftp_session",
    "mpeg_stream", "syn_flood", "tcp_session", "udp_flood",
]
