"""The generated NetASM executor against the reference opcode loop.

``SwitchProgram.functions`` compiles a switch program to straight-line
Python; ``tests/reference_netasm.py`` is the opcode-dispatch interpreter
it replaced.  Differential half: on generated policies and on every
Table-3 app, from every function root, both produce the same outcome
sequence (kind, fields, var — in emission order), leave equal stores and
— traced — the same recorder events.  Robustness half: indent limit,
hostile strings, deterministic text, the code cache and lazy generation.
"""

import os
import random
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro import obs
from repro.analysis.dependency import analyze_dependencies
from repro.apps import ALL_APPS, assign_egress, default_subnets
from repro.dataplane import netasm
from repro.dataplane.header import ROOT_TAG, SNAP_NODE
from repro.dataplane.netasm import (
    IBranch,
    IDrop,
    IEmit,
    IJump,
    IPause,
    ISet,
    IStateDelta,
    IStateWrite,
    SwitchProgram,
    compile_switch,
    from_lowered,
)
from repro.dataplane.split import NodeIndex
from repro.lang import ast
from repro.lang.errors import (
    CompileError,
    DataPlaneError,
    RaceConditionError,
    SnapError,
)
from repro.lang.packet import Packet
from repro.lang.state import Store
from repro.obs.postcards import PostcardRecorder
from repro.util.ipaddr import IPPrefix
from repro.xfdd.build import build_xfdd, to_xfdd
from repro.xfdd.compose import Composer
from repro.xfdd.order import TestOrder
from repro.xfdd.tests import FieldFieldTest, FieldValueTest, StateVarTest

from tests.reference_netasm import ReferenceProgram
from tests.strategies import STATE_VARS, packets, policies, registry, stores

SWITCHES = ("s0", "s1")


def split_programs(xfdd, defaults: dict) -> list:
    """The xFDD compiled for two switches with the state variables dealt
    alternately: each program tests and writes some state locally and
    pauses on the rest."""
    placement = {
        var: SWITCHES[i % 2] for i, var in enumerate(sorted(defaults))
    }
    index = NodeIndex(xfdd)
    return [
        compile_switch(name, xfdd, index, placement, defaults, has_ports=True)
        for name in SWITCHES
    ]


def attempt(call):
    """The call's result, or the data-plane error it raised, as data."""
    try:
        return call()
    except SnapError as exc:
        return ("raised", type(exc).__name__, str(exc))


def view(outcomes):
    """Outcomes of either implementation as ``(kind, fields, var)``."""
    if isinstance(outcomes, tuple):
        return outcomes  # a raised error
    rows = []
    for outcome in outcomes:
        kind, packet, var = (
            outcome if isinstance(outcome, tuple)
            else (outcome.kind, outcome.packet, outcome.var)
        )
        rows.append((kind, packet.fields(), var))
    return rows


def assert_agrees(program: SwitchProgram, arrivals) -> None:
    """From every function root, on every packet, plain and traced: the
    generated code and the reference loop agree on outcomes, recorder
    events and the store they leave."""
    reference = ReferenceProgram(program, program.store.copy())
    assert set(program.entries.values()) <= set(program.functions())
    assert set(program.functions()) == set(program.functions(traced=True))
    for entry in sorted(program.functions()):
        for packet in arrivals:
            expected = attempt(lambda: reference.process(packet, entry))
            got = attempt(lambda: program.process(packet, entry))
            assert view(got) == view(expected)
            assert program.store == reference.store

            ours, theirs = PostcardRecorder(0, 0), PostcardRecorder(0, 0)
            expected = attempt(lambda: reference.process(packet, entry, theirs))
            got = attempt(lambda: program.process(packet, entry, ours))
            assert view(got) == view(expected)
            assert ours.events == theirs.events
            assert program.store == reference.store


def probe_packets(program: SwitchProgram, rng, count: int) -> list:
    """Packets drawn from the constants the program itself tests, so
    that both arms of its field tests are taken and state keys collide."""
    pool: dict = {}

    def note(field, *values):
        pool.setdefault(field, [None, 0, 7]).extend(values)

    def note_exprs(exprs):
        for expr in exprs:
            if isinstance(expr, ast.Field):
                note(expr.name)

    for instr in program.instructions:
        if isinstance(instr, IBranch):
            test = instr.test
            if isinstance(test, FieldValueTest):
                if isinstance(test.value, IPPrefix):
                    note(test.field, test.value.network, test.value.network + 1)
                else:
                    note(test.field, test.value)
            elif isinstance(test, FieldFieldTest):
                note(test.field1, 1)
                note(test.field2, 1)
            else:
                note_exprs(test.index + test.value)
        elif isinstance(instr, IStateWrite):
            note_exprs(instr.index + instr.value)
        elif isinstance(instr, IStateDelta):
            note_exprs(instr.index)
    fields = sorted(pool)
    return [
        Packet({field: rng.choice(pool[field]) for field in fields})
        for _ in range(count)
    ]


def codegen_counts() -> dict:
    family = obs.REGISTRY.counter("snap_netasm_codegen_total")
    return {
        result: family.labels(result=result).value
        for result in ("compiled", "cache_hit")
    }


@pytest.fixture
def metrics_on(monkeypatch):
    monkeypatch.setattr(obs.REGISTRY, "enabled", True)


# -- differential: generated policies ---------------------------------------------


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    policy=policies(),
    arrivals=st.lists(packets(), min_size=1, max_size=4),
    store=stores(),
)
def test_generated_executor_matches_the_reference_loop(policy, arrivals, store):
    try:
        deps = analyze_dependencies(policy)
        xfdd = to_xfdd(policy, Composer(TestOrder(registry(), deps.state_rank)))
    except (RaceConditionError, CompileError):
        assume(False)
    for program in split_programs(xfdd, {var: 0 for var in STATE_VARS}):
        for name in program.store.defaults():
            for key, value in store.variable(name).items():
                program.store.write(name, key, value)
        assert_agrees(program, arrivals)


# -- differential: the Table-3 apps ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_every_app_program_matches_the_reference_loop(name):
    app = ALL_APPS[name]()
    policy = ast.Seq(app.policy, assign_egress(default_subnets(6)))
    defaults = {**ast.infer_state_defaults(policy), **app.state_defaults}
    xfdd = build_xfdd(
        policy, state_rank=analyze_dependencies(policy).state_rank
    )
    rng = random.Random(name)
    for program in split_programs(xfdd, defaults):
        assert_agrees(program, probe_packets(program, rng, 25))
        # A shipped program regenerates the same text on the other side.
        assert from_lowered(program.to_lowered()).source() == program.source()
        # The SNAP header is the walker's: the plain text never names it.
        assert "'snap." not in program.source()


# -- the errors the interpreter raised are still raised ---------------------------


def counter_program(delta=1) -> SwitchProgram:
    return SwitchProgram(
        "s0",
        [IStateDelta("hits", (ast.Field("fa"),), delta), IJump(2), IEmit()],
        {ROOT_TAG: 0},
        Store({"hits": 0}),
    )


def test_unknown_tag_raises_a_dataplane_error():
    program = counter_program()
    with pytest.raises(DataPlaneError, match="cannot process tag 99"):
        program.process(Packet({"fa": 1, SNAP_NODE: 99}))
    with pytest.raises(DataPlaneError, match="no entry at instruction @2"):
        program.process(Packet({"fa": 1}), entry=2)


def test_increment_on_a_non_numeric_cell_raises():
    program = counter_program()
    program.store.write("hits", (1,), "text")
    with pytest.raises(SnapError, match="non-numeric"):
        program.process(Packet({"fa": 1, SNAP_NODE: ROOT_TAG}))
    assert program.store.read("hits", (1,)) == "text"
    (outcome,) = program.process(Packet({"fa": 2, SNAP_NODE: ROOT_TAG}))
    assert outcome.kind == "emit"
    assert program.store.read("hits", (2,)) == 1


def test_store_names_do_not_depend_on_whether_the_program_ran():
    """``global_store()`` (and snapbench's round digest) list a table for
    every variable a program touches, even one no packet has reached —
    but not for the remote variables it only pauses on."""
    program = SwitchProgram(
        "s0",
        [IBranch(StateVarTest("seen", (ast.Field("fa"),), (ast.Value(1),)), 1, 5),
         IStateDelta("hits", (ast.Field("fa"),), 1), IJump(3),
         IStateWrite("last", (ast.Field("fa"),), (ast.Field("fb"),)), IJump(5),
         IPause(7, "remote")],
        {ROOT_TAG: 0}, Store({"hits": 0}),
    )
    assert program._functions == [None, None]
    assert program.store.names() == ("seen", "hits", "last")
    program.process(Packet({"fa": 1, SNAP_NODE: ROOT_TAG}))
    assert program.store.names() == ("seen", "hits", "last")


def test_process_leaves_the_callers_packet_alone():
    program = SwitchProgram(
        "s0", [ISet("fa", 9), IJump(2), IPause(5, "x")], {ROOT_TAG: 0}, Store()
    )
    packet = Packet({"fa": 1, SNAP_NODE: ROOT_TAG})
    (outcome,) = program.process(packet)
    assert (outcome.kind, outcome.var) == ("pause", "x")
    assert outcome.packet.fields() == {"fa": 9, SNAP_NODE: 5}
    assert packet.fields() == {"fa": 1, SNAP_NODE: ROOT_TAG}


def test_a_template_reads_the_packet_and_carries_its_writes():
    """A fused-walk template only reads the field dict it is handed: its
    SETs are constants in the text, a split-off root reached after them
    is handed an owned copy, and the written ``inport`` is carried by
    that root's name, as the plain module computes it."""
    program = SwitchProgram(
        "s0",
        [ISet("inport", 7), ISet("fb", 5),
         IBranch(FieldValueTest("fa", 0), 3, 4), IJump(5), IJump(5),
         IStateDelta("hits", (ast.Field("inport"), ast.Field("fb")), 1),
         IEmit()],
        {ROOT_TAG: 0}, Store({"hits": 0}),
    )
    code, namespace, links = program.template(0)
    assert links == [] and "def b5_" in netasm._generate_source(program, False, 0)[0]
    emitted: list = []
    namespace = dict(namespace, E={}, D=0, U=3, emit=emitted.append, fork=None)
    exec(code, namespace)
    packet = {"fa": 0, "inport": 3}
    namespace["b0"](packet)
    assert packet == {"fa": 0, "inport": 3}
    (outcome,) = program.process(Packet(packet), entry=0)
    assert emitted == [outcome.packet.fields()] == [{"fa": 0, "inport": 7, "fb": 5}]
    assert program.store.read("hits", (7, 5)) == 2


# -- generator robustness ------------------------------------------------------------

DEPTH = 150


def nested_chain() -> SwitchProgram:
    """``if f0: if f1: ... if f149: emit`` — every false arm drops."""
    instructions = [
        IBranch(FieldValueTest(f"f{i}", 1), i + 1, DEPTH + 1)
        for i in range(DEPTH)
    ]
    instructions += [IEmit(), IDrop()]
    return SwitchProgram("deep", instructions, {ROOT_TAG: 0}, Store())


def false_chain() -> SwitchProgram:
    """``if fa == 0: outport <- 0 elif fa == 1: ...`` — 150 arms."""
    instructions = [
        IBranch(FieldValueTest("fa", i), DEPTH + 1 + 3 * i, i + 1)
        for i in range(DEPTH)
    ]
    instructions.append(IDrop())
    for i in range(DEPTH):
        base = len(instructions)
        instructions += [ISet("outport", i), IJump(base + 2), IEmit()]
    return SwitchProgram("wide", instructions, {ROOT_TAG: 0}, Store())


def indent_levels(source: str) -> int:
    return max(len(line) - len(line.lstrip(" ")) for line in source.splitlines())


def test_deep_nests_are_split_below_the_tokenizer_limit():
    program = nested_chain()
    assert indent_levels(program.source()) < 100
    every = {f"f{i}": 1 for i in range(DEPTH)}
    arrivals = [Packet(every)] + [
        Packet({**every, f"f{i}": 0}) for i in (0, 39, 40, 41, 77, DEPTH - 1)
    ]
    assert_agrees(program, arrivals)
    kinds = [program.process(p, 0)[0].kind for p in arrivals]
    assert kinds == ["emit"] + ["drop"] * 6


def test_false_chains_stay_flat():
    program = false_chain()
    assert indent_levels(program.source()) == 2
    arrivals = [Packet({"fa": i}) for i in (0, 1, 75, DEPTH - 1, DEPTH, None)]
    assert_agrees(program, arrivals)
    outports = [program.process(p, 0)[0].packet.get("outport") for p in arrivals]
    assert outports == [0, 1, 75, DEPTH - 1, None, None]


def test_a_field_is_loaded_once_per_straight_line_path():
    """Six prefixes of ``dstip`` tested down one false-chain share one
    ``f.get('dstip')``; a SET of the field, another function and the
    traced temporaries each force a reload."""
    prefixes = [IPPrefix(f"10.0.{i}.0/24") for i in range(1, 7)]
    instructions = [
        IBranch(FieldValueTest("dstip", prefix), 6 + 3 * i, i + 1)
        for i, prefix in enumerate(prefixes)
    ]
    for i in range(6):
        instructions += [ISet("outport", i + 1), IJump(8 + 3 * i), IEmit()]
    instructions.append(IDrop())
    instructions[5] = IBranch(instructions[5].test, 21, 24)
    program = SwitchProgram("s0", instructions, {ROOT_TAG: 0}, Store())
    source = program.source()
    assert source.count("f.get('dstip')") == 1
    assert source.count("if (v & ") == 6
    arrivals = [Packet({"dstip": p.network + 9}) for p in prefixes]
    arrivals += [Packet({"dstip": 1}), Packet({"dstip": "10.0.3.9"}), Packet({})]
    assert_agrees(program, arrivals)
    outports = [program.process(p, 0)[0].packet.get("outport") for p in arrivals]
    assert outports == [1, 2, 3, 4, 5, 6, None, None, None]

    rewritten = IPPrefix("10.0.9.0/24")
    program = SwitchProgram(
        "s0",
        [IBranch(FieldValueTest("dstip", prefixes[0]), 1, 7),
         IBranch(StateVarTest("seen", (ast.Field("dstip"),), (ast.Value(1),)), 2, 7),
         IBranch(FieldValueTest("dstip", prefixes[1]), 6, 3),
         ISet("dstip", rewritten.network + 1), IJump(5),
         IBranch(FieldValueTest("dstip", rewritten), 6, 7),
         IEmit(), IDrop()],
        {ROOT_TAG: 0}, Store({"seen": 0}),
    )
    # Plain: @0 loads, @2 reuses it, the SET forces a reload for @5.
    # Traced: the state test at @1 takes ``v`` for the value it read.
    assert program.source().count("v = f.get('dstip')") == 2
    traced = netasm._generate_source(program, True)[0]
    assert traced.count("v = f.get('dstip')") == 3
    program.store.write("seen", (prefixes[0].network + 3,), 1)
    assert_agrees(program, [
        Packet({"dstip": prefixes[0].network + 3}),
        Packet({"dstip": prefixes[0].network + 4}),
        Packet({"dstip": prefixes[1].network + 3}), Packet({"dstip": 5}),
    ])
    (outcome,) = program.process(Packet({"dstip": prefixes[0].network + 3}), 0)
    assert outcome.kind == "emit"
    assert outcome.packet.get("dstip") == rewritten.network + 1


def test_strings_that_look_like_code_stay_data():
    nasty = '"]); import os #'
    worse = "'''\\\n)] + __import__('os').system('true') #"
    instructions = [
        IBranch(FieldValueTest(nasty, worse), 1, 8),
        IBranch(
            StateVarTest(worse, (ast.Field(nasty),), (ast.Value(nasty),)), 2, 7
        ),
        ISet(worse, nasty),
        IJump(4),
        IStateWrite(worse, (ast.Field(worse),), (ast.Value(worse),)),
        IJump(6),
        IEmit(),
        IPause(3, nasty),
        IDrop(),
    ]
    program = SwitchProgram(
        "s0", instructions, {ROOT_TAG: 0, 3: 4}, Store({worse: nasty})
    )
    for traced in (False, True):
        source, namespace, _ = netasm._generate_source(program, traced)
        compile(source, "<test>", "exec")
        # Strings reach the text through repr() only; everything else
        # (here: nothing) would be bound by name in the namespace.
        assert repr(nasty) in source and repr(worse) in source
        assert all(callable(bound) for bound in namespace.values())
    arrivals = [
        Packet({nasty: worse}), Packet({nasty: nasty}), Packet({worse: 1}),
    ]
    assert_agrees(program, arrivals)
    program.store.write(worse, (worse,), 0)
    (hit,) = program.process(arrivals[0], 0)
    assert (hit.kind, hit.var) == ("pause", nasty)
    (miss,) = program.process(arrivals[1], 0)
    assert miss.kind == "drop"


def test_non_literal_constants_are_bound_not_printed():
    prefix, low = IPPrefix("10.0.1.0/24"), IPPrefix("0.0.0.0/31")
    program = SwitchProgram(
        "s0",
        [IBranch(FieldValueTest("srcip", prefix), 2, 1),
         IBranch(FieldValueTest("srcip", low), 2, 5),
         ISet("weight", 0.5), IJump(4), IEmit(), IDrop()],
        {ROOT_TAG: 0}, Store(),
    )
    source, namespace, _ = netasm._generate_source(program, False)
    assert "0.5" not in source and "IPPrefix" not in source
    assert {prefix, low, 0.5} <= set(namespace.values())
    inside, outside = prefix.network + 9, prefix.network + 256
    # A bool is not an address, though ``True & mask`` is 0/31's network.
    values = (inside, outside, 1, True, None, "10.0.1.9", prefix)
    arrivals = [Packet({"srcip": v}) for v in values]
    assert_agrees(program, arrivals)
    kinds = [program.process(p, 0)[0].kind for p in arrivals]
    assert kinds == ["emit", "drop", "emit", "drop", "drop", "drop", "emit"]


def test_same_program_same_text_one_compile(metrics_on):
    def build():
        return SwitchProgram(
            "s0",
            [IBranch(FieldValueTest("probe", "one-compile-only"), 1, 2),
             IEmit(), IDrop()],
            {ROOT_TAG: 0}, Store(),
        )

    first, second = build(), build()
    assert first.source() == second.source()
    before = codegen_counts()
    first.functions()
    first.functions()
    second.functions()
    after = codegen_counts()
    assert after["compiled"] - before["compiled"] == 1
    assert after["cache_hit"] - before["cache_hit"] == 1
    histogram = obs.REGISTRY.histogram("snap_netasm_codegen_seconds")
    assert histogram.labels().count >= 2
    # Same code object, separate namespaces: the two programs' state
    # and constants never meet.
    assert (
        first.functions()[0].__code__ is second.functions()[0].__code__
        and first.functions()[0].__globals__
        is not second.functions()[0].__globals__
    )


_SOURCE_DIGEST = """
import hashlib
from repro.analysis.dependency import analyze_dependencies
from repro.apps import ALL_APPS, assign_egress, default_subnets
from repro.dataplane.netasm import compile_switch
from repro.dataplane.split import NodeIndex
from repro.lang import ast
from repro.xfdd.build import build_xfdd

digest = hashlib.blake2b(digest_size=16)
for name in ("dns-tunnel-detect", "stateful-firewall", "tcp-state-machine"):
    app = ALL_APPS[name]()
    policy = ast.Seq(app.policy, assign_egress(default_subnets(6)))
    defaults = {**ast.infer_state_defaults(policy), **app.state_defaults}
    xfdd = build_xfdd(policy, state_rank=analyze_dependencies(policy).state_rank)
    placement = {var: "s0" for var in defaults}
    program = compile_switch("s0", xfdd, NodeIndex(xfdd), placement, defaults, True)
    digest.update(program.source().encode())
print(digest.hexdigest())
"""


def test_source_text_does_not_depend_on_the_hash_seed():
    digests = set()
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-c", _SOURCE_DIGEST], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        digests.add(result.stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 32


def test_policy_updates_that_are_never_replayed_generate_nothing(metrics_on):
    from repro.core.controller import SnapController
    from repro.topology.campus import campus_topology
    from tests.test_controller import campus_program, dns_response

    controller = SnapController(campus_topology(), campus_program())
    try:
        controller.submit()
        controller.network()
        before = codegen_counts()
        for threshold in (4, 5, 6):
            controller.update_policy(campus_program(threshold=threshold))
        network = controller.network()
        assert codegen_counts() == before
        assert all(
            program._functions == [None, None]
            for program in network.switches.values()
        )
        network.inject(dns_response(IPPrefix("10.0.6.10").network, 0), 1)
        after = codegen_counts()
        assert sum(after.values()) > sum(before.values())
        # Only the switches the packet was processed on paid.
        built = [p for p in network.switches.values() if p._functions[0]]
        assert 0 < len(built) < len(network.switches)
        assert sum(after.values()) - sum(before.values()) == len(built)
    finally:
        controller.close()


def test_code_cache_is_bounded():
    for i in range(1000):
        program = SwitchProgram(
            "s0", [ISet("outport", i), IJump(2), IEmit()], {ROOT_TAG: 0}, Store()
        )
        (outcome,) = program.process(Packet({}), 0)
        assert outcome.packet.get("outport") == i
        assert len(netasm._CODE_CACHE) <= netasm._CODE_CACHE_LIMIT
    assert len(netasm._CODE_CACHE) == netasm._CODE_CACHE_LIMIT
    assert program.source() in netasm._CODE_CACHE  # oldest out, newest kept


def test_code_cache_keeps_the_entries_it_hits(monkeypatch):
    """Least recently used out: a module hit between every two inserts
    survives ``_CODE_CACHE_LIMIT`` of them."""
    monkeypatch.setattr(netasm, "_CODE_CACHE", {})

    def program(value):
        return SwitchProgram(
            "s0", [ISet("outport", value), IJump(2), IEmit()], {ROOT_TAG: 0},
            Store(),
        )

    hot = program("hot")
    hot.functions()
    for i in range(netasm._CODE_CACHE_LIMIT):
        program(i).functions()
        assert hot.source() in netasm._CODE_CACHE
        program("hot").functions()  # a hit: the entry is the newest again
    assert len(netasm._CODE_CACHE) == netasm._CODE_CACHE_LIMIT
