"""Program analyses: state dependencies (§4.1), packet-state mapping
(§4.3), and the static state-effect / race analysis (``effects``)."""

from repro.analysis.dependency import DependencyInfo, analyze_dependencies
from repro.analysis.effects import (
    EffectKind,
    EffectReport,
    RaceFinding,
    VariableEffect,
    WriteSite,
    analyze_effects,
    xfdd_effects,
)
from repro.analysis.packet_state import PacketStateMapping, packet_state_mapping

__all__ = [
    "DependencyInfo",
    "analyze_dependencies",
    "PacketStateMapping",
    "packet_state_mapping",
    "EffectKind",
    "EffectReport",
    "RaceFinding",
    "VariableEffect",
    "WriteSite",
    "analyze_effects",
    "xfdd_effects",
]
