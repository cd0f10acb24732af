"""Reference NetASM interpreter: the opcode-dispatch loop over lowered closures.

This is the interpreter ``repro.dataplane.netasm`` ran until the switch
programs were compiled to generated Python (``SwitchProgram.functions``).
It is kept, unchanged in behaviour, as the oracle
``tests/test_netasm_codegen.py`` differentially tests the generated
executor against: instruction objects are lowered to flat opcode tuples
whose operands are precompiled closures, and one loop dispatches on the
opcode, building a fresh :class:`Packet` per update.
"""

from __future__ import annotations

from repro.dataplane.header import SNAP_NODE
from repro.dataplane.netasm import (
    OP_BRANCH,
    OP_DROP,
    OP_EMIT,
    OP_FORK,
    OP_JUMP,
    OP_PAUSE,
    OP_SET,
    OP_STDELTA,
    OP_STWRITE,
    IBranch,
    IDrop,
    IEmit,
    IFork,
    IJump,
    IPause,
    ISet,
    IStateDelta,
    IStateWrite,
)
from repro.lang import ast
from repro.lang.errors import DataPlaneError
from repro.lang.packet import Packet
from repro.lang.state import Store
from repro.lang.values import matches
from repro.util.ipaddr import IPPrefix
from repro.xfdd.tests import FieldFieldTest, FieldValueTest, StateVarTest


#: A BRANCH whose test reads a local state table.  Same effect as
#: OP_BRANCH; lowered apart so that only these branches (never the
#: field tests that dominate a program) pay the recorder check.
OP_STTEST = 9


def _compile_getter(expr):
    """One scalar expression -> ``f(pkt) -> value``."""
    if isinstance(expr, ast.Field):
        name = expr.name
        return lambda pkt: pkt._fields.get(name)
    value = expr.value
    return lambda pkt: value


def _compile_exprs(exprs: tuple):
    """An expression tuple -> ``f(pkt) -> tuple`` (state-table key)."""
    getters = tuple(_compile_getter(e) for e in exprs)
    if len(getters) == 1:
        g = getters[0]
        return lambda pkt: (g(pkt),)
    return lambda pkt: tuple(g(pkt) for g in getters)


def _compile_packed(exprs: tuple):
    """An expression tuple -> ``f(pkt) -> packed value`` (see pack_value)."""
    if len(exprs) == 1:
        return _compile_getter(exprs[0])
    return _compile_exprs(exprs)


def _compile_test(test, store: Store):
    """Lower one xFDD test to a ``f(pkt) -> bool`` closure.

    Must agree exactly with :func:`repro.xfdd.diagram.eval_test`.
    """
    if isinstance(test, FieldValueTest):
        field, value = test.field, test.value
        if isinstance(value, IPPrefix):
            network, mask = value.network, value.mask

            def prefix_test(pkt):
                v = pkt._fields.get(field)
                if type(v) is int:  # exact: bool is not an address
                    return (v & mask) == network
                return matches(v, value)

            return prefix_test
        # For non-prefix values `matches` is plain equality.
        return lambda pkt: pkt._fields.get(field) == value
    if isinstance(test, FieldFieldTest):
        f1, f2 = test.field1, test.field2
        return lambda pkt: pkt._fields.get(f1) == pkt._fields.get(f2)
    if isinstance(test, StateVarTest):
        variable = store.variable(test.var)
        key_fn = _compile_exprs(test.index)
        want_fn = _compile_packed(test.value)
        return lambda pkt: variable.get(key_fn(pkt)) == want_fn(pkt)
    raise DataPlaneError(f"cannot compile test {test!r}")


def lower(instructions, store: Store) -> list:
    """Lower Instr objects to flat opcode tuples (same indices), bound
    to ``store``'s state tables."""
    ops = []
    for instr in instructions:
        if isinstance(instr, IBranch):
            test = instr.test
            branch = (_compile_test(test, store), instr.on_true, instr.on_false)
            if isinstance(test, StateVarTest):
                ops.append(
                    (OP_STTEST, *branch, test.var,
                     _compile_exprs(test.index), store.variable(test.var))
                )
            else:
                ops.append((OP_BRANCH, *branch))
        elif isinstance(instr, IPause):
            ops.append((OP_PAUSE, instr.tag, instr.var))
        elif isinstance(instr, IFork):
            ops.append((OP_FORK, instr.targets))
        elif isinstance(instr, IJump):
            ops.append((OP_JUMP, instr.target))
        elif isinstance(instr, ISet):
            ops.append((OP_SET, instr.field, instr.value))
        elif isinstance(instr, IStateWrite):
            ops.append(
                (OP_STWRITE, store.variable(instr.var),
                 _compile_exprs(instr.index), _compile_packed(instr.value))
            )
        elif isinstance(instr, IStateDelta):
            ops.append(
                (OP_STDELTA, store.variable(instr.var),
                 _compile_exprs(instr.index), instr.delta)
            )
        elif isinstance(instr, IDrop):
            ops.append((OP_DROP,))
        elif isinstance(instr, IEmit):
            ops.append((OP_EMIT,))
        else:
            raise DataPlaneError(f"unknown instruction {instr!r}")
    return ops


class ReferenceProgram:
    """The opcode loop over one :class:`SwitchProgram`'s instructions.

    ``store`` (default: the program's own) is the store the state
    instructions read and write, so the oracle can run beside the
    generated executor on a copy.
    """

    def __init__(self, program, store: Store | None = None):
        self.switch = program.switch
        self.entries = program.entries
        self.store = program.store if store is None else store
        self._ops = lower(program.instructions, self.store)

    def process(self, packet: Packet, entry: int | None = None,
                recorder=None) -> list:
        """Run ``packet`` (and its forked copies) to pause/emit/drop.

        Returns the outcomes as ``(kind, packet, var)`` tuples in
        emission order.  ``recorder`` sees the switch, every state
        test/write/delta and each copy's outcome.
        """
        if entry is None:
            tag = packet.get(SNAP_NODE)
            entry = self.entries.get(tag)
            if entry is None:
                raise DataPlaneError(
                    f"switch {self.switch} cannot process tag {tag!r}"
                )
        if recorder is not None:
            recorder.process(self.switch)
        ops = self._ops
        outcomes: list = []
        stack = [(entry, packet)]
        while stack:
            idx, pkt = stack.pop()
            while True:
                op = ops[idx]
                code = op[0]
                if code == OP_BRANCH:
                    idx = op[2] if op[1](pkt) else op[3]
                elif code == OP_SET:
                    pkt = pkt.modify(op[1], op[2])
                    idx += 1
                elif code == OP_STTEST:
                    result = op[1](pkt)
                    if recorder is not None:
                        key = op[5](pkt)
                        recorder.state_test(op[4], key, op[6].get(key), result)
                    idx = op[2] if result else op[3]
                elif code == OP_STWRITE:
                    key, value = op[2](pkt), op[3](pkt)
                    if recorder is not None:
                        recorder.state_write(op[1].name, key, value)
                    op[1].set(key, value)
                    idx += 1
                elif code == OP_STDELTA:
                    key = op[2](pkt)
                    if recorder is not None:
                        recorder.state_delta(op[1].name, key, op[3])
                    op[1].increment(key, op[3])
                    idx += 1
                elif code == OP_JUMP:
                    idx = op[1]
                elif code == OP_EMIT:
                    outcomes.append(("emit", pkt, None))
                    break
                elif code == OP_PAUSE:
                    outcomes.append(
                        ("pause", pkt.modify(SNAP_NODE, op[1]), op[2])
                    )
                    break
                elif code == OP_FORK:
                    # Reversed push: the LIFO stack then explores targets
                    # in order, so outcomes come out in the leaf's
                    # deterministic trie (emission) order.
                    for target in reversed(op[1]):
                        stack.append((target, pkt))
                    break
                else:  # OP_DROP
                    outcomes.append(("drop", pkt, None))
                    break
            if recorder is not None and code != OP_FORK:
                recorder.outcome(outcomes[-1][0], var=outcomes[-1][2])
        return outcomes
