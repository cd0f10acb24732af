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

A program executes as generated straight-line Python
(:meth:`SwitchProgram.functions`); a packet's run is atomic with respect
to the switch's state tables, mirroring NetASM's atomic table updates.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.dataplane.header import DONE_TAG, SNAP_NODE
from repro.dataplane.split import (
    NodeIndex,
    owned_entries,
    state_owner,
)
from repro.lang import ast
from repro.lang.errors import DataPlaneError
from repro.lang.packet import Packet
from repro.lang.state import Store
from repro.lang.values import matches
from repro.obs.metrics import counter, histogram
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


# -- wire opcodes: the tags of the pure-data LoweredProgram form (below) ---------

OP_BRANCH = 0
OP_PAUSE = 1
OP_FORK = 2
OP_JUMP = 3
OP_SET = 4
OP_STWRITE = 5
OP_STDELTA = 6
OP_DROP = 7
OP_EMIT = 8


# -- the generated executor ------------------------------------------------------
#
# The instruction objects above are the readable, reportable program.  To
# run, a program is compiled on its first packet to one module of
# straight-line Python: a function ``b<idx>(f, out)`` per *function root*
# runs the packet copy that owns the mutable field dict ``f`` from
# instruction ``idx`` and appends a raw ``(fields, tag)`` outcome per copy
# to ``out`` — ``tag`` is the PAUSE tag, ``DONE_TAG`` for EMIT, ``None``
# for DROP; the SNAP header is the walker's business, the text never
# names it.  Field tests are inline comparisons (a field tested again on
# the same straight-line path is loaded once, into ``v``), a branch's
# false arm continues at the same indent (every true arm returns), SET
# writes ``f`` in place, state instructions call the bound
# ``StateVariable`` methods and FORK copies ``f`` per extra copy.  Roots
# are the entries, whatever :meth:`SwitchProgram.resolve_inport_entry`
# can return, fork targets, instructions with several predecessors and
# branches nested deeper than ``_MAX_NEST``; the rest is inlined into its
# one predecessor.
# State tables and non-literal constants reach the code through the
# ``exec`` namespace, never the text, so the text can key the code cache.
# The same ``block()`` emits the fused walk's per-entry templates, which
# only read ``f``, a trace packet's own fields: ``inport`` (the context's
# ``U``) and each field a SET wrote are constants in the text, a SET emits
# nothing.  EMIT's table miss and FORK hand on an owned copy, ``{**f,
# <known fields>}``; a PAUSE or split-off root gets ``f`` itself until a SET
# writes a field other than ``inport``, whose value names the callee.

#: Deepest ``if`` nest inside one generated function (CPython's tokenizer
#: stops at 100 indent levels).
_MAX_NEST = 40
#: ``compile()`` is most of the cost of generating a program; rebuilt
#: networks regenerate the same text, so code objects are kept
#: process-wide, keyed by source, least recently used evicted first.
_CODE_CACHE: dict = {}
_CODE_CACHE_LIMIT = 256
_CODE_LOCK = threading.Lock()
#: Values emitted as ``repr()`` literals; any other constant is bound by name.
_LITERAL_TYPES = (int, str, bool, type(None))
#: ``inport`` in a template no SET has written: the context's ``U``.
ARRIVAL = object()

_CODEGEN_TOTAL = counter(
    "snap_netasm_codegen_total",
    "Switch-program executors generated, by whether compile() ran",
)
_CODEGEN_SECONDS = histogram(
    "snap_netasm_codegen_seconds",
    "Wall-clock time to generate one switch program's executor",
)


def _is_inport_branch(instr) -> bool:
    return (
        type(instr) is IBranch
        and type(instr.test) is FieldValueTest
        and instr.test.field == "inport"
    )


def _function_roots(instructions, entries: dict) -> set:
    """Indices that get a generated function of their own."""
    roots: set = set()
    seen: set = set()
    for idx, instr in enumerate(instructions):
        if type(instr) is IBranch:
            successors = (instr.on_true, instr.on_false)
        elif type(instr) is IFork:
            successors = instr.targets
            roots.update(successors)
        elif type(instr) is IJump:
            successors = (instr.target,)
        elif type(instr) in (ISet, IStateWrite, IStateDelta):
            successors = (idx + 1,)
        else:
            continue
        for successor in successors:
            (roots if successor in seen else seen).add(successor)  # 2nd edge in
    stack = list(entries.values())
    while stack:
        idx = stack.pop()
        roots.add(idx)
        if _is_inport_branch(instructions[idx]):
            stack += (instructions[idx].on_true, instructions[idx].on_false)
    return roots


def _generate_source(program: "SwitchProgram", traced: bool, entry=None):
    """``(source, namespace, functions)`` of ``program``'s executor:
    ``functions`` are the root indices it defines a ``b<idx>`` for.

    ``traced`` selects the postcard specialisation: every function takes
    a recorder ``rec`` and reports state tests/writes/deltas and each
    copy's outcome, reading only values the plain code computes anyway.

    ``entry`` selects the fused-walk template of that entry: ``b<idx>(f)``
    for the roots it reaches, each terminal returning a path id — PAUSE
    ``p<tag>(f)``, EMIT ``E.get(outport) or emit(copy)``, DROP ``D``,
    FORK ``fork(copy, targets)`` — and third ``(link name, tag, inport)``
    of its PAUSEs, ``inport`` a SET's value or :data:`ARRIVAL`.
    """
    instructions, store = program.instructions, program.store
    if program._roots is None:
        program._roots = _function_roots(instructions, program.entries)
    roots = set(program._roots)  # grows while nests are split off
    names: dict = {}  # (kind, index, inport) -> function or link name
    pending: list = []  # (name, root index, inport) of each function
    links: list = []  # (name, tag, inport) of each of a template's PAUSE links
    namespace: dict = {"matches": matches}
    slots: dict = {}  # state variable -> suffix of its bound accessors
    lines: list = []
    params = "f" if entry is not None else "f, out, rec" if traced else "f, out"

    def const(value) -> str:
        if type(value) in _LITERAL_TYPES:
            return repr(value)
        name = f"c{len(namespace)}"
        namespace[name] = value
        return name

    def slot(var: str) -> int:
        if var not in slots:
            slots[var] = len(slots)
            variable = store.variable(var)
            namespace[f"get{slots[var]}"] = variable.get
            namespace[f"put{slots[var]}"] = variable.set
            namespace[f"add{slots[var]}"] = variable.increment
        return slots[var]

    def field(name, known) -> str:
        if name not in known:
            return f"f.get({const(name)})"
        return "U" if known[name] is ARRIVAL else const(known[name])

    def expr(e, known) -> str:
        return field(e.name, known) if isinstance(e, ast.Field) else const(e.value)

    def key(exprs, known) -> str:
        return "(" + "".join(expr(e, known) + "," for e in exprs) + ")"

    def packed(exprs, known) -> str:
        return expr(exprs[0], known) if len(exprs) == 1 else key(exprs, known)

    def owned(known) -> str:
        """The copy a template's exit hands on: ``f`` with every known
        field written out, ``inport`` included."""
        writes = ", ".join(f"{const(k)}: {field(k, known)}" for k in known)
        return "{**f, " + writes + "}"

    def carried(known) -> str:
        """What a PAUSE or a split-off root is handed: ``f`` itself
        until a SET writes a field other than ``inport``, whose value
        the callee's name carries."""
        return "f" if len(known) <= 1 else owned(known)

    def target(kind: str, num: int, known) -> str:
        """The name of function ``b<num>`` or PAUSE link ``p<num>`` with
        ``inport`` as ``known`` has it, suffixed once a SET wrote it."""
        inport = known.get("inport", ARRIVAL)
        ident = (kind, num, type(inport), inport)
        if ident not in names:
            suffix = "" if inport is ARRIVAL else f"_{len(names)}"
            names[ident] = f"{kind}{num}{suffix}"
            (pending if kind == "b" else links).append((names[ident], num, inport))
        return names[ident]

    def call(idx: int, known, fields: str = "f") -> str:
        return f"{target('b', idx, known)}({fields}{params[1:]})"

    def condition(test, pad: str, held, known) -> tuple:
        """The test as an expression (after any statements it needs) and
        the field the local ``v`` holds once it has been evaluated."""
        if isinstance(test, FieldValueTest):
            value, loaded = test.value, field(test.field, known)
            if held == test.field:
                loaded = "v"
            elif isinstance(value, IPPrefix):
                lines.append(f"{pad}v = {loaded}")
                held = test.field
            if not isinstance(value, IPPrefix):
                return f"{loaded} == {const(value)}", held
            return (  # exact type: a bool is not an address
                f"(v & {value.mask}) == {value.network} if type(v) is int "
                f"else matches(v, {const(value)})"
            ), held
        if isinstance(test, FieldFieldTest):
            return f"{field(test.field1, known)} == {field(test.field2, known)}", held
        if not isinstance(test, StateVarTest):
            raise DataPlaneError(f"cannot compile test {test!r}")
        get, k = f"get{slot(test.var)}", key(test.index, known)
        if not traced:
            return f"{get}({k}) == {packed(test.value, known)}", held
        lines.append(f"{pad}k = {k}")
        lines.append(f"{pad}v = {get}(k)")
        lines.append(f"{pad}r = v == {packed(test.value, known)}")
        lines.append(f"{pad}rec.state_test({const(test.var)}, k, v, r)")
        return "r", None

    def finish(pad: str, kind: str, tag, var, known) -> None:
        if entry is not None:
            if kind == "pause":
                terminal = f"{target('p', tag, known)}({carried(known)})"
            elif kind == "drop":
                terminal = "D"
            else:
                terminal = f"E.get({field('outport', known)}) or emit({owned(known)})"
            return lines.append(f"{pad}return {terminal}")
        lines.append(f"{pad}out.append((f, {const(tag)}))")
        if traced:
            lines.append(f"{pad}rec.outcome({kind!r}, {const(var)})")
        lines.append(f"{pad}return")

    def block(idx: int, pad: str, known, root: bool = False, held=None) -> None:
        """Emit the code that runs from ``idx`` to every terminal;
        ``known`` maps the fields a template knows to their values,
        ``held`` is the field whose value the local ``v`` holds here."""
        while True:
            instr = instructions[idx]
            kind = type(instr)
            if kind is IBranch and len(pad) > _MAX_NEST:
                roots.add(idx)
            if idx in roots and not root:
                lines.append(f"{pad}return {call(idx, known, carried(known))}")
                return
            root = False
            if kind is IBranch:
                test, held = condition(instr.test, pad, held, known)
                lines.append(f"{pad}if {test}:")
                block(instr.on_true, pad + " ", known, held=held)
                idx = instr.on_false
            elif kind is IJump:
                idx = instr.target
            elif kind is ISet:
                if entry is None:
                    lines.append(f"{pad}f[{const(instr.field)}] = {const(instr.value)}")
                else:  # copy on write: the true arms hold the same dict
                    known = {**known, instr.field: instr.value}
                if instr.field == held:
                    held = None
                idx += 1
            elif kind is IStateWrite:
                k, v = key(instr.index, known), packed(instr.value, known)
                if traced:
                    lines.append(f"{pad}k = {k}")
                    lines.append(f"{pad}v = {v}")
                    lines.append(
                        f"{pad}rec.state_write({const(instr.var)}, k, v)"
                    )
                    k, v, held = "k", "v", None
                lines.append(f"{pad}put{slot(instr.var)}({k}, {v})")
                idx += 1
            elif kind is IStateDelta:
                k, delta = key(instr.index, known), const(instr.delta)
                if traced:
                    lines.append(f"{pad}k = {k}")
                    lines.append(
                        f"{pad}rec.state_delta({const(instr.var)}, k, {delta})"
                    )
                    k = "k"
                lines.append(f"{pad}add{slot(instr.var)}({k}, {delta})")
                idx += 1
            elif kind is IFork:
                if entry is not None:
                    lines.append(f"{pad}return fork({owned(known)}, {instr.targets!r})")
                    return
                for target_idx in instr.targets[:-1]:
                    lines.append(f"{pad}{call(target_idx, known, 'dict(f)')}")
                lines.append(f"{pad}return {call(instr.targets[-1], known)}")
                return
            elif kind is IPause:
                return finish(pad, "pause", instr.tag, instr.var, known)
            elif kind is IEmit:
                return finish(pad, "emit", DONE_TAG, None, known)
            elif kind is IDrop:
                return finish(pad, "drop", None, None, known)
            else:
                raise DataPlaneError(f"unknown instruction {instr!r}")

    for idx in sorted(roots) if entry is None else [entry]:
        target("b", idx, {} if entry is None else {"inport": ARRIVAL})
    for name, idx, inport in pending:  # grows while roots are reached
        lines.append(f"def {name}({params}):")
        block(idx, " ", {} if entry is None else {"inport": inport}, root=True)
    return "\n".join(lines) + "\n", namespace, (
        [idx for _, idx, _ in pending] if entry is None else links
    )


def _compiled(source: str):
    """``source``'s code object: cached (the hit refreshes its entry) or
    compiled, least recently used evicted first."""
    with _CODE_LOCK:
        code = _CODE_CACHE.pop(source, None)
        result = "cache_hit"
        if code is None:
            result = "compiled"
            code = compile(source, "<netasm>", "exec")
        _CODE_CACHE[source] = code
        while len(_CODE_CACHE) > _CODE_CACHE_LIMIT:
            del _CODE_CACHE[next(iter(_CODE_CACHE))]
    _CODEGEN_TOTAL.labels(result=result).inc()
    return code


def _generate_functions(program: "SwitchProgram", traced: bool) -> dict:
    """``{root index: function}``: generate, compile (or reuse), bind."""
    started = time.perf_counter()
    source, namespace, roots = _generate_source(program, traced)
    exec(_compiled(source), namespace)  # noqa: S102 - our own generated source
    _CODEGEN_SECONDS.observe(time.perf_counter() - started)
    return {idx: namespace[f"b{idx}"] for idx in roots}


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
        self.pause_vars: dict = {}  # PAUSE tag -> the variable awaited
        # A table for every variable the program touches, whether or not
        # it ever runs: global_store() names them before any traffic.
        for instr in instructions:
            if type(instr) in (IStateWrite, IStateDelta):
                store.variable(instr.var)
            elif type(instr) is IBranch and type(instr.test) is StateVarTest:
                store.variable(instr.test.var)
            elif type(instr) is IPause:
                self.pause_vars[instr.tag] = instr.var
        # The generated executor, plain and traced; built by `functions`
        # on the first packet, so a program that is never run costs nothing.
        self._functions: list = [None, None]
        self._templates: dict = {}  # entry -> template(entry)
        self._roots = None  # _function_roots, once per program
        # (tag, inport) -> pre-resolved entry, see resolve_inport_entry.
        self._inport_entries: dict = {}

    def resolve_inport_entry(self, tag: int, port: int) -> int:
        """Entry index with leading ``inport``-only branches pre-resolved.

        Packets of one ingress port all take the same side of every
        branch whose test reads only the ``inport`` field (the shape
        :func:`~repro.analysis.sharding.shard_by_inport` compiles to), so
        the resolution is computed once per (tag, port) — on the first
        such packet — and cached.  Every walker enters a program through
        it; each index it can return has a generated function.
        """
        key = (tag, port)
        cached = self._inport_entries.get(key)
        if cached is not None:
            return cached
        idx = self.entries[tag]
        instructions = self.instructions
        while _is_inport_branch(instructions[idx]):
            instr = instructions[idx]
            taken = matches(port, instr.test.value)
            idx = instr.on_true if taken else instr.on_false
        self._inport_entries[key] = idx
        return idx

    def functions(self, traced: bool = False) -> dict:
        """The generated executor: ``{index: b(f, out)}`` (``traced``:
        ``b(f, out, rec)``), one function per entry, resolved entry and
        internal function root.  ``b`` runs the copy that owns the field
        dict ``f`` — mutating it — and appends a raw ``(fields, tag)``
        outcome per copy to ``out``, in emission order: ``tag`` is the
        PAUSE tag (see :attr:`pause_vars`), ``DONE_TAG`` for an emitted
        copy, ``None`` for a dropped one.
        """
        functions = self._functions[traced]
        if functions is None:
            functions = self._functions[traced] = _generate_functions(self, traced)
        return functions

    def template(self, entry: int) -> tuple:
        """``(code, namespace, PAUSE links)`` of the fused-walk template at
        ``entry``, generated once per program (states adopted from another
        network unbind it) and ``exec``-ed once per context by
        ``network._Fold``."""
        if entry not in self._templates:
            source, namespace, links = _generate_source(self, False, entry)
            self._templates[entry] = (_compiled(source), namespace, links)
        return self._templates[entry]

    def process(
        self, packet: Packet, entry: int | None = None, recorder=None
    ) -> list:
        """Run the packet (and its forked copies) to pause/emit/drop.

        A thin adapter over :meth:`functions` for callers that hold
        packets (``inject_concurrent``, tests); a packet's run is atomic
        with respect to the switch's state tables; a paused copy comes
        back carrying its tag in ``snap.node``.  ``entry`` overrides the
        tag-derived entry point (for pre-resolved entries from
        :meth:`resolve_inport_entry`).

        ``recorder`` is a :class:`repro.obs.postcards.PostcardRecorder`
        for a sampled packet: the traced specialisation then also reports
        the switch, every state test/write/delta and each copy's
        outcome, with exactly the effects of an unrecorded run.
        """
        if entry is None:
            tag = packet.get(SNAP_NODE)
            entry = self.entries.get(tag)
            if entry is None:
                raise DataPlaneError(
                    f"switch {self.switch} cannot process tag {tag!r}"
                )
        run = self.functions(recorder is not None).get(entry)
        if run is None:
            raise DataPlaneError(
                f"switch {self.switch} has no entry at instruction @{entry}"
            )
        out: list = []
        if recorder is None:
            run(dict(packet._fields), out)
        else:
            recorder.process(self.switch)
            run(dict(packet._fields), out, recorder)
        outcomes = []
        for fields, tag in out:
            if tag is None or tag == DONE_TAG:
                kind = "drop" if tag is None else "emit"
                outcomes.append(Outcome(kind, Packet._wrap(fields)))
            else:
                fields[SNAP_NODE] = tag
                outcomes.append(
                    Outcome("pause", Packet._wrap(fields), self.pause_vars[tag])
                )
        return outcomes

    def to_lowered(self) -> "LoweredProgram":
        """The pure-data serialization of this program (see
        :class:`LoweredProgram`)."""
        return LoweredProgram(
            switch=self.switch,
            ops=tuple(_serialize_instr(i) for i in self.instructions),
            entries=dict(self.entries),
            state_defaults=self.store.defaults(),
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

    def source(self) -> str:
        """The Python text this program executes as (see :meth:`functions`)."""
        return _generate_source(self, False)[0]

    def __repr__(self):
        return (
            f"SwitchProgram({self.switch}, {len(self.instructions)} instrs, "
            f"{len(self.entries)} entries)"
        )


# -- the lowered, shippable program form ---------------------------------------
#
# The generated executor above is bound to live state tables and does not
# pickle.  Following Open Packet Processor's observation that a lowered,
# platform-independent stateful program form is what makes shipping
# programs to independent execution units tractable, `LoweredProgram` is a
# *pure-data* twin of `SwitchProgram`: flat opcode tuples whose operands
# are constants (test/expression descriptors, literal values, jump
# targets) plus the local store's default table.  `from_lowered` rebuilds
# a behaviorally identical `SwitchProgram` — reconstructing the readable
# instruction objects, from which the worker generates (lazily, like the
# parent) the same executor text — so a worker process can rehydrate a
# shipped program once and run the same code the parent does.
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
    only — shard state is installed separately); the executor is
    generated on the program's first packet.  The result is
    behaviorally identical to the program ``to_lowered`` was called on,
    and ``to_lowered`` of the result round-trips equal.
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
    owned=None,
) -> SwitchProgram:
    """Compile the per-switch program.

    Entry points: the root (switches with attached OBS ports) and every
    node whose state variable lives on this switch — ``owned``, this
    switch's list from :func:`~repro.dataplane.split.owned_entries` (a
    network makes that walk once for all its switches).  Stateless tests
    and field writes compile anywhere; a remote state test or state
    action compiles to PAUSE with the node's tag.  A switch with no port
    that owns nothing compiles nothing and never looks at the xFDD.
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
        seqs = leaf.ordered_seqs()
        idx = compile_group(leaf, seqs, tuple(range(len(seqs))), 0)
        compiled[key] = idx
        return idx

    def compile_group(leaf: Leaf, seqs, members: tuple, depth: int) -> int:
        key = ("g", id(leaf), members, depth)
        if key in compiled:
            return compiled[key]
        targets = []
        if any(len(seqs[member]) <= depth for member in members):
            targets.append(emit(IEmit()))
        for _, subgroup in leaf.trie()[(members, depth)]:
            targets.append(compile_chain(leaf, seqs, subgroup, depth))
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
    if owned is None:
        owned = owned_entries(index.root, index, placement).get(switch, ())
    for tag, node, *group in owned:
        if group:
            entries[tag] = compile_chain(node, node.ordered_seqs(), *group)
        else:
            entries[tag] = compile_branch(node)
    return SwitchProgram(switch, instructions, entries, store)
