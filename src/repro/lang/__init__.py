"""The SNAP language: AST, parser, packets, state, and reference semantics."""

from repro.lang.ast import (
    And,
    Atomic,
    Drop,
    Field,
    If,
    Id,
    Mod,
    Not,
    Or,
    Parallel,
    Policy,
    Predicate,
    Seq,
    StateDecr,
    StateIncr,
    StateMod,
    StateTest,
    Test,
    Value,
    Vector,
    infer_state_defaults,
    par_all,
    seq_all,
    state_reads,
    state_variables,
    state_writes,
)
from repro.lang.errors import (
    CompileError,
    InconsistentStateError,
    ParseError,
    RaceConditionError,
    SnapError,
)
from repro.lang.fields import DEFAULT_REGISTRY, FieldRegistry
from repro.lang.packet import Packet, make_packet
from repro.lang.parser import parse, parse_predicate
from repro.lang.pretty import pretty
from repro.lang.semantics import Log, eval_policy, run, run_sequence
from repro.lang.state import StateVariable, Store
from repro.lang.values import Symbol

__all__ = [
    "And", "Atomic", "Drop", "Field", "If", "Id", "Mod", "Not", "Or",
    "Parallel", "Policy", "Predicate", "Seq", "StateDecr", "StateIncr",
    "StateMod", "StateTest", "Test", "Value", "Vector",
    "infer_state_defaults", "par_all", "seq_all",
    "state_reads", "state_variables", "state_writes",
    "CompileError", "InconsistentStateError", "ParseError",
    "RaceConditionError", "SnapError",
    "DEFAULT_REGISTRY", "FieldRegistry",
    "Packet", "make_packet", "parse", "parse_predicate", "pretty",
    "Log", "eval_policy", "run", "run_sequence",
    "StateVariable", "Store", "Symbol",
]
