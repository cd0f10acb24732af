"""A NetASM-like switch backend (§5).

"The compiler's output for each switch is a set of switch-level
instructions in a low-level language called NetASM ... we traverse the
xFDD and generate a branch instruction for each test node ... we generate
instructions to create two tables for each state variable, one for the
indices and one for the values ... we generate store instructions that
modify the packet fields and state tables ... we use NetASM support for
atomic execution."

Instruction set (one list per switch, entry points by xFDD tag):

    BRANCH  test, true_target, false_target    -- stateless or local-state test
    PAUSE   tag, var                           -- tag packet, await var's switch
    FORK    targets...                         -- copy packet per leaf sequence
    SET     field, value
    STWRITE var, index_exprs, value_exprs      -- local state table write
    STDELTA var, index_exprs, delta            -- local increment/decrement
    DROP
    EMIT

The interpreter (:meth:`SwitchProgram.process`) executes a packet's run
atomically with respect to the switch's state tables, mirroring NetASM's
atomic table updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataplane.header import SNAP_NODE
from repro.dataplane.split import NodeIndex, _ordered_seqs, leaf_groups, state_owner
from repro.lang import ast
from repro.lang.errors import DataPlaneError
from repro.lang.packet import Packet
from repro.lang.state import Store
from repro.lang.values import matches
from repro.util.ipaddr import IPPrefix
from repro.xfdd.actions import DropAction, FieldAssign, StateAssign, StateDelta
from repro.xfdd.diagram import Branch, Leaf, XFDD
from repro.xfdd.tests import FieldFieldTest, FieldValueTest, StateVarTest

# -- instructions -------------------------------------------------------------


class Instr:
    __slots__ = ()


class IBranch(Instr):
    __slots__ = ("test", "on_true", "on_false")

    def __init__(self, test, on_true: int, on_false: int):
        self.test = test
        self.on_true = on_true
        self.on_false = on_false

    def __repr__(self):
        return f"BRANCH {self.test!r} ? @{self.on_true} : @{self.on_false}"


class IPause(Instr):
    __slots__ = ("tag", "var")

    def __init__(self, tag: int, var: str):
        self.tag = tag
        self.var = var

    def __repr__(self):
        return f"PAUSE tag={self.tag} var={self.var}"


class IFork(Instr):
    __slots__ = ("targets",)

    def __init__(self, targets):
        self.targets = tuple(targets)

    def __repr__(self):
        return "FORK " + ", ".join(f"@{t}" for t in self.targets)


class IJump(Instr):
    __slots__ = ("target",)

    def __init__(self, target: int):
        self.target = target

    def __repr__(self):
        return f"JUMP @{self.target}"


class ISet(Instr):
    __slots__ = ("field", "value")

    def __init__(self, field: str, value):
        self.field = field
        self.value = value

    def __repr__(self):
        return f"SET {self.field} <- {self.value!r}"


class IStateWrite(Instr):
    __slots__ = ("var", "index", "value")

    def __init__(self, var, index, value):
        self.var = var
        self.index = index
        self.value = value

    def __repr__(self):
        return f"STWRITE {self.var}[{self.index}] <- {self.value}"


class IStateDelta(Instr):
    __slots__ = ("var", "index", "delta")

    def __init__(self, var, index, delta):
        self.var = var
        self.index = index
        self.delta = delta

    def __repr__(self):
        return f"STDELTA {self.var}[{self.index}] {'+' if self.delta > 0 else ''}{self.delta}"


class IDrop(Instr):
    __slots__ = ()

    def __repr__(self):
        return "DROP"


class IEmit(Instr):
    __slots__ = ()

    def __repr__(self):
        return "EMIT"


# -- fast-path lowering --------------------------------------------------------
#
# The instruction objects above are the readable, reportable program.  For
# execution we lower them once, at program build time, into flat opcode
# tuples whose operands are *precompiled closures*: test nodes become
# predicate functions with their fields/values/state tables already bound,
# and expression tuples become getter functions.  The interpreter then runs
# a tight integer-dispatch loop with no isinstance chains and no
# per-packet expression re-interpretation — the table-driven discipline of
# a real switch pipeline.

OP_BRANCH = 0
OP_PAUSE = 1
OP_FORK = 2
OP_JUMP = 3
OP_SET = 4
OP_STWRITE = 5
OP_STDELTA = 6
OP_DROP = 7
OP_EMIT = 8
#: A BRANCH whose test reads a local state table.  Same effect as
#: OP_BRANCH; lowered apart so that only these branches (never the
#: field tests that dominate a program) pay the recorder check.
OP_STTEST = 9


def _compile_getter(expr):
    """One scalar expression -> ``f(pkt) -> value``."""
    if isinstance(expr, ast.Field):
        name = expr.name
        # Reach into the packet's field dict directly: this closure runs
        # per packet per instruction and Packet.get is pure indirection.
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


def _lower(instructions, store: Store) -> list:
    """Lower Instr objects to flat opcode tuples (same indices)."""
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


# -- outcomes ------------------------------------------------------------------


class Outcome:
    """Result of running one packet copy through a switch program."""

    __slots__ = ("kind", "packet", "var")

    def __init__(self, kind: str, packet: Packet, var: str | None = None):
        self.kind = kind  # "emit" | "pause" | "drop"
        self.packet = packet
        self.var = var

    def __repr__(self):
        return f"Outcome({self.kind}, var={self.var})"


# -- compilation ----------------------------------------------------------------


class SwitchProgram:
    """The NetASM program and state tables of one switch."""

    def __init__(self, switch: str, instructions, entries: dict, store: Store):
        self.switch = switch
        self.instructions = instructions
        self.entries = entries  # xFDD tag -> instruction index
        self.store = store
        # Lowered once; `process` only ever touches the flat form.
        self._ops = _lower(instructions, store)
        # (tag, inport) -> pre-resolved entry, see resolve_inport_entry.
        self._inport_entries: dict = {}

    def can_process(self, tag: int) -> bool:
        return tag in self.entries

    def resolve_inport_entry(self, tag: int, packet: Packet, port: int) -> int:
        """Entry index with leading ``inport``-only branches pre-resolved.

        Packets of one ingress port all take the same side of every
        branch whose test reads only the ``inport`` field (the shape
        :func:`~repro.analysis.sharding.shard_by_inport` compiles to), so
        the resolution is computed once per (tag, port) — by running the
        *actual lowered test closures* on the first such packet — and
        cached.  Used by the sharded engine's per-shard lanes.
        """
        key = (tag, port)
        cached = self._inport_entries.get(key)
        if cached is not None:
            return cached
        idx = self.entries[tag]
        instructions, ops = self.instructions, self._ops
        while True:
            instr = instructions[idx]
            if not (
                type(instr) is IBranch
                and type(instr.test) is FieldValueTest
                and instr.test.field == "inport"
            ):
                break
            idx = instr.on_true if ops[idx][1](packet) else instr.on_false
        self._inport_entries[key] = idx
        return idx

    def process(
        self, packet: Packet, entry: int | None = None, recorder=None
    ) -> list:
        """Run the packet (and its forked copies) to pause/emit/drop.

        Executes the lowered opcode table (see ``_lower``); a packet's run
        is atomic with respect to the switch's state tables.  ``entry``
        overrides the tag-derived entry point (for pre-resolved entries
        from :meth:`resolve_inport_entry`).

        ``recorder`` is a :class:`repro.obs.postcards.PostcardRecorder`
        for a sampled packet: the same loop then also reports the switch,
        every state test/write/delta and each copy's outcome.  The hooks
        sit only on state and terminal opcodes and read values the opcode
        computes anyway (operand closures are pure), so a recorded run
        has exactly the effects of an unrecorded one.
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
        outcomes: list[Outcome] = []
        ops = self._ops
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
                    outcomes.append(Outcome("emit", pkt))
                    break
                elif code == OP_PAUSE:
                    outcomes.append(
                        Outcome("pause", pkt.modify(SNAP_NODE, op[1]), op[2])
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
                    outcomes.append(Outcome("drop", pkt))
                    break
            if recorder is not None and code != OP_FORK:
                recorder.outcome(outcomes[-1].kind, var=outcomes[-1].var)
        return outcomes

    def to_lowered(self) -> "LoweredProgram":
        """The pure-data serialization of this program (see
        :class:`LoweredProgram`)."""
        return LoweredProgram(
            switch=self.switch,
            ops=tuple(_serialize_instr(i) for i in self.instructions),
            entries=dict(self.entries),
            state_defaults=dict(self.store._defaults),
        )

    def to_text(self) -> str:
        """Readable assembly listing (for docs and debugging)."""
        entry_of = {}
        for tag, idx in self.entries.items():
            entry_of.setdefault(idx, []).append(tag)
        lines = [f"; NetASM program for switch {self.switch}"]
        for idx, instr in enumerate(self.instructions):
            marks = entry_of.get(idx)
            prefix = f"tag{sorted(marks)}" if marks else "        "
            lines.append(f"{prefix:>12}  @{idx:<4} {instr!r}")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"SwitchProgram({self.switch}, {len(self.instructions)} instrs, "
            f"{len(self.entries)} entries)"
        )


# -- the lowered, shippable program form ---------------------------------------
#
# The compiled fast path above holds precompiled closures, which do not
# pickle.  Following Open Packet Processor's observation that a lowered,
# platform-independent stateful program form is what makes shipping
# programs to independent execution units tractable, `LoweredProgram` is a
# *pure-data* twin of `SwitchProgram`: flat opcode tuples whose operands
# are constants (test/expression descriptors, literal values, jump
# targets) plus the local store's default table.  `from_lowered` rebuilds
# a behaviorally identical `SwitchProgram` — reconstructing the readable
# instruction objects and *re-closing* the test/expression closures — so a
# worker process can rehydrate a shipped program once and run the same
# tight dispatch loop the parent does.
#
# Descriptor grammar (every leaf is a picklable constant):
#
#     expr  ::= ("f", field_name) | ("v", literal)
#     test  ::= ("fv", field, value) | ("ff", f1, f2)
#             | ("sv", var, (expr, ...), (expr, ...))
#     op    ::= (OP_BRANCH, test, on_true, on_false) | (OP_PAUSE, tag, var)
#             | (OP_FORK, (target, ...)) | (OP_JUMP, target)
#             | (OP_SET, field, literal)
#             | (OP_STWRITE, var, (expr, ...), (expr, ...))
#             | (OP_STDELTA, var, (expr, ...), delta)
#             | (OP_DROP,) | (OP_EMIT,)


@dataclass(frozen=True)
class LoweredProgram:
    """Picklable pure-data form of one switch's NetASM program."""

    switch: str
    ops: tuple
    entries: dict = field(compare=True)
    state_defaults: dict = field(compare=True)


def _serialize_expr(expr) -> tuple:
    if isinstance(expr, ast.Field):
        return ("f", expr.name)
    return ("v", expr.value)


def _serialize_exprs(exprs) -> tuple:
    return tuple(_serialize_expr(e) for e in exprs)


def _serialize_test(test) -> tuple:
    if isinstance(test, FieldValueTest):
        return ("fv", test.field, test.value)
    if isinstance(test, FieldFieldTest):
        return ("ff", test.field1, test.field2)
    if isinstance(test, StateVarTest):
        return ("sv", test.var, _serialize_exprs(test.index),
                _serialize_exprs(test.value))
    raise DataPlaneError(f"cannot serialize test {test!r}")


def _serialize_instr(instr: Instr) -> tuple:
    if isinstance(instr, IBranch):
        return (OP_BRANCH, _serialize_test(instr.test),
                instr.on_true, instr.on_false)
    if isinstance(instr, IPause):
        return (OP_PAUSE, instr.tag, instr.var)
    if isinstance(instr, IFork):
        return (OP_FORK, instr.targets)
    if isinstance(instr, IJump):
        return (OP_JUMP, instr.target)
    if isinstance(instr, ISet):
        return (OP_SET, instr.field, instr.value)
    if isinstance(instr, IStateWrite):
        return (OP_STWRITE, instr.var, _serialize_exprs(instr.index),
                _serialize_exprs(instr.value))
    if isinstance(instr, IStateDelta):
        return (OP_STDELTA, instr.var, _serialize_exprs(instr.index),
                instr.delta)
    if isinstance(instr, IDrop):
        return (OP_DROP,)
    if isinstance(instr, IEmit):
        return (OP_EMIT,)
    raise DataPlaneError(f"cannot serialize instruction {instr!r}")


def _revive_expr(data: tuple):
    kind, payload = data
    return ast.Field(payload) if kind == "f" else ast.Value(payload)


def _revive_exprs(data: tuple) -> tuple:
    return tuple(_revive_expr(d) for d in data)


def _revive_test(data: tuple):
    kind = data[0]
    if kind == "fv":
        return FieldValueTest(data[1], data[2])
    if kind == "ff":
        return FieldFieldTest(data[1], data[2])
    return StateVarTest(data[1], _revive_exprs(data[2]), _revive_exprs(data[3]))


def _revive_instr(op: tuple) -> Instr:
    code = op[0]
    if code == OP_BRANCH:
        return IBranch(_revive_test(op[1]), op[2], op[3])
    if code == OP_PAUSE:
        return IPause(op[1], op[2])
    if code == OP_FORK:
        return IFork(op[1])
    if code == OP_JUMP:
        return IJump(op[1])
    if code == OP_SET:
        return ISet(op[1], op[2])
    if code == OP_STWRITE:
        return IStateWrite(op[1], _revive_exprs(op[2]), _revive_exprs(op[3]))
    if code == OP_STDELTA:
        return IStateDelta(op[1], _revive_exprs(op[2]), op[3])
    if code == OP_DROP:
        return IDrop()
    if code == OP_EMIT:
        return IEmit()
    raise DataPlaneError(f"unknown lowered opcode {op!r}")


def from_lowered(lowered: LoweredProgram) -> SwitchProgram:
    """Rehydrate a :class:`SwitchProgram` from its pure-data form.

    Rebuilds the instruction objects and a fresh local store (defaults
    only — shard state is installed separately), then lets
    ``SwitchProgram.__init__`` re-close the fast-path closures.  The
    result is behaviorally identical to the program ``to_lowered`` was
    called on, and ``to_lowered`` of the result round-trips equal.
    """
    instructions = [_revive_instr(op) for op in lowered.ops]
    store = Store(lowered.state_defaults)
    return SwitchProgram(
        lowered.switch, instructions, dict(lowered.entries), store
    )


def lower_programs(switches: dict) -> dict:
    """The pure-data form of a whole data plane: ``{switch: LoweredProgram}``.

    This is the byte-level unit the execution-spec serialization ships to
    worker processes and cluster daemons — pickle it once, key it by the
    network's ``_exec_program_key``, and every executor that already holds
    that key never needs the bytes again (a TE ``rewire`` keeps the key).
    """
    return {name: program.to_lowered() for name, program in switches.items()}


def revive_programs(lowered: dict) -> dict:
    """Rehydrate a whole data plane from :func:`lower_programs` output."""
    return {name: from_lowered(lp) for name, lp in lowered.items()}


def compile_switch(
    switch: str,
    xfdd: XFDD,
    index: NodeIndex,
    placement: dict,
    state_defaults: dict,
    has_ports: bool,
) -> SwitchProgram:
    """Compile the per-switch program.

    Entry points: the root (switches with attached OBS ports) and every
    node whose state variable lives on this switch.  Stateless tests and
    field writes compile anywhere; a remote state test or state action
    compiles to PAUSE with the node's tag.
    """
    instructions: list[Instr] = []
    entries: dict[int, int] = {}
    compiled: dict = {}  # memo: node-or-continuation key -> instruction index

    def emit(instr: Instr) -> int:
        instructions.append(instr)
        return len(instructions) - 1

    def compile_branch(node: Branch) -> int:
        key = ("b", id(node))
        if key in compiled:
            return compiled[key]
        test = node.test
        if isinstance(test, StateVarTest) and state_owner(placement, test.var) != switch:
            idx = emit(IPause(index.branch_tag(node), test.var))
            compiled[key] = idx
            return idx
        # Reserve the slot, then fill in children (handles shared subtrees).
        idx = emit(IBranch(test, -1, -1))
        compiled[key] = idx
        on_true = compile_node(node.hi)
        on_false = compile_node(node.lo)
        instructions[idx] = IBranch(test, on_true, on_false)
        return idx

    def compile_leaf(leaf: Leaf) -> int:
        """Compile the leaf's execution trie: shared prefixes run once,
        packet copies fork only at divergence points (see split.leaf_groups)."""
        key = ("l", id(leaf))
        if key in compiled:
            return compiled[key]
        seqs = _ordered_seqs(leaf)
        idx = compile_group(leaf, seqs, tuple(range(len(seqs))), 0)
        compiled[key] = idx
        return idx

    def compile_group(leaf: Leaf, seqs, members: tuple, depth: int) -> int:
        key = ("g", id(leaf), members, depth)
        if key in compiled:
            return compiled[key]
        groups: dict = {}
        ends = False
        for member in members:
            seq = seqs[member]
            if len(seq) > depth:
                groups.setdefault(seq[depth], []).append(member)
            else:
                ends = True
        targets = []
        if ends:
            targets.append(emit(IEmit()))
        for action in sorted(groups, key=repr):
            targets.append(
                compile_chain(leaf, seqs, tuple(groups[action]), depth)
            )
        idx = targets[0] if len(targets) == 1 else emit(IFork(targets))
        compiled[key] = idx
        return idx

    def compile_chain(leaf: Leaf, seqs, members: tuple, depth: int) -> int:
        """One trie edge: execute the shared action, continue the group."""
        key = ("c", id(leaf), members, depth)
        if key in compiled:
            return compiled[key]
        action = seqs[members[0]][depth]
        if isinstance(action, DropAction):
            idx = emit(IDrop())
            compiled[key] = idx
            return idx
        var = action.writes_state()
        if var is not None and state_owner(placement, var) != switch:
            idx = emit(IPause(index.cont_tag(leaf, min(members), depth), var))
            compiled[key] = idx
            return idx
        if isinstance(action, FieldAssign):
            idx = emit(ISet(action.field, action.value))
        elif isinstance(action, StateAssign):
            idx = emit(IStateWrite(action.var, action.index, action.value))
        else:
            idx = emit(IStateDelta(action.var, action.index, action.delta))
        compiled[key] = idx
        # Reserve the jump slot so the action always falls into it, then
        # patch it once the continuation's location is known.
        jump_slot = emit(IJump(-1))
        continuation = compile_group(leaf, seqs, members, depth + 1)
        instructions[jump_slot] = IJump(continuation)
        return idx

    def compile_node(node: XFDD) -> int:
        if isinstance(node, Branch):
            return compile_branch(node)
        return compile_leaf(node)

    # Local store: only the variables this switch owns.
    local_defaults = {
        var: state_defaults.get(var) for var, owner in placement.items() if owner == switch
    }
    store = Store(local_defaults)

    # Entry: root for port switches.
    if has_ports:
        root_idx = compile_node(index.root)
        entries[0] = root_idx  # ROOT_TAG

    # Entries for every node this switch owns.
    stack = [index.root]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Branch):
            test = node.test
            if isinstance(test, StateVarTest) and state_owner(placement, test.var) == switch:
                tag = index.branch_tag(node)
                entries[tag] = compile_branch(node)
            stack.append(node.hi)
            stack.append(node.lo)
        else:
            seqs = _ordered_seqs(node)
            for members, depth in leaf_groups(node):
                action = seqs[members[0]][depth]
                var = action.writes_state()
                if var is not None and state_owner(placement, var) == switch:
                    tag = index.cont_tag(node, min(members), depth)
                    entries[tag] = compile_chain(node, seqs, members, depth)
    return SwitchProgram(switch, instructions, entries, store)
