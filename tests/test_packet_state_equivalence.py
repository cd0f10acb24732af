"""S_uv: the production walk against the path-enumeration reference.

``packet_state_mapping`` attributes the states of each feasible path
(:func:`repro.xfdd.paths.feasible_paths`) to per-pair frozensets, with
no sort anywhere on the way: the result must not depend on set-hash
order (CI runs this file under ``PYTHONHASHSEED`` 0 and 2) or on what a
persistent session's root memo already holds.
``tests/reference_packet_state.py`` enumerates every root-to-leaf path
instead and is the oracle — also of the per-port state footprint the
shard planner takes from the same walk.  The two part only on an arm
earlier tests decide, which the walk skips and the reference keeps.
"""

import pytest

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.lint import lint_diagram
from repro.analysis.packet_state import packet_state_mapping
from repro.apps import ALL_APPS
from repro.apps.routing import assign_egress, default_subnets
from repro.core.program import Program
from repro.dataplane.engine import ingress_state_footprint
from repro.lang import ast
from repro.xfdd.actions import DROP_ACTION, FieldAssign, StateAssign
from repro.xfdd.diagram import DROP, IDENTITY, make_branch, make_leaf
from repro.xfdd.incremental import CompileSession
from repro.xfdd.tests import FieldValueTest, StateVarTest

from tests.reference_packet_state import (
    ingress_state_footprint_paths,
    packet_state_mapping_paths,
)
from tests.snapbench_programs import WORKLOADS, workload

PORTS = list(range(1, 7))


def assert_same_mapping(fast, slow):
    """Equal pair for pair, and the pairs in sorted order."""
    assert dict(fast.items()) == dict(slow.items())
    assert list(dict(fast.items())) == sorted(dict(slow.items()))


def compile_in(session: CompileSession, program: Program):
    full = program.full_policy()
    deps = analyze_dependencies(full, slicer=session.dep_slicer)
    session.begin_compile(program.registry, deps.state_rank)
    return session.build(full)


def test_every_app_through_one_session():
    """All 21 Table-3 apps compiled into one persistent session, each
    mapped with the root memo the ones before it filled."""
    session = CompileSession()
    egress = assign_egress(default_subnets(len(PORTS)))
    for name, make in ALL_APPS.items():
        app = make()
        program = Program(
            ast.Seq(app.policy, egress), state_defaults=app.state_defaults,
            name=name,
        )
        xfdd = compile_in(session, program)
        fast = packet_state_mapping(
            xfdd, PORTS, PORTS, memo=session.mapping_memo
        )
        assert_same_mapping(fast, packet_state_mapping_paths(xfdd, PORTS, PORTS))
        # The bare app (no egress assignment: every egress unknown).
        bare = compile_in(session, Program(app.policy, name=name))
        fast = packet_state_mapping(
            bare, PORTS, PORTS, memo=session.mapping_memo
        )
        assert_same_mapping(fast, packet_state_mapping_paths(bare, PORTS, PORTS))


@pytest.mark.parametrize("name", WORKLOADS)
def test_snapbench_program_and_every_edit(name):
    """A snapbench program and each of its edits, in the benchmark's
    order, through one session; a memo-less call agrees as well."""
    wl = workload(name)
    ports = sorted(wl.topology.ports)
    session = CompileSession()
    for program in [wl.program(), *wl.edits]:
        xfdd = compile_in(session, program)
        fast = packet_state_mapping(
            xfdd, ports, ports, memo=session.mapping_memo
        )
        assert_same_mapping(fast, packet_state_mapping_paths(xfdd, ports, ports))
        assert_same_mapping(packet_state_mapping(xfdd, ports, ports), fast)
        assert ingress_state_footprint(xfdd, ports) == (
            ingress_state_footprint_paths(xfdd, ports)
        )
        # Same root again: the finished mapping is the memo's.
        again = packet_state_mapping(
            xfdd, ports, ports, memo=session.mapping_memo
        )
        assert again is fast


def test_root_memo_is_keyed_by_ports():
    """One memo, two port sets: neither answer leaks into the other."""
    wl = workload("monitor-replay")
    program = wl.program()
    session = CompileSession()
    xfdd = compile_in(session, program)
    ports = sorted(wl.topology.ports)
    memo = session.mapping_memo
    whole = packet_state_mapping(xfdd, ports, ports, memo=memo)
    fewer = packet_state_mapping(xfdd, ports[:3], ports[:3], memo=memo)
    assert_same_mapping(
        fewer, packet_state_mapping_paths(xfdd, ports[:3], ports[:3])
    )
    assert packet_state_mapping(xfdd, ports, ports, memo=memo) is whole


def _state_test(var):
    return StateVarTest(var, ast.Field("srcip"), ast.Value(1))


def test_a_subdiagram_shared_under_both_inport_arms():
    """One interned sub-diagram below both arms of an ``inport`` test,
    with an emitting leaf, a leaf of unknown egress and a pure drop
    that writes state: each arm attributes it to its own sources."""
    shared = make_branch(
        _state_test("sA"),
        make_leaf({(FieldAssign("outport", 3),)}),
        make_branch(
            FieldValueTest("srcport", 80),
            make_leaf({(StateAssign("sB", ast.Field("srcip"), ast.Value(1)),)}),
            make_leaf({(StateAssign("sC", ast.Field("srcip"), ast.Value(1)),
                        DROP_ACTION)}),
        ),
    )
    root = make_branch(
        FieldValueTest("inport", 1),
        shared,
        make_branch(FieldValueTest("dstport", 53), shared, DROP),
    )
    ports = [1, 2, 3, 4]
    walked = packet_state_mapping(root, ports, ports)
    assert_same_mapping(walked, packet_state_mapping_paths(root, ports, ports))
    assert walked.states_for(1, 3) == {"sA", "sB", "sC"}
    assert ingress_state_footprint(root, ports) == (
        ingress_state_footprint_paths(root, ports)
    )


def test_a_decided_arm_is_the_named_difference():
    """``srcport = 1 ? (srcport = 2 ? <test of s> : id) : drop``: on the
    outer test's true arm srcport is 1, so the inner test's true arm is
    dead.  The walk skips it and reports the deciding test (SNAP-W201);
    the reference does not prune and attributes ``s`` to every flow.
    ``Composer.refine`` never builds such an arm."""
    inner = make_branch(
        FieldValueTest("srcport", 2),
        make_branch(_state_test("s"), IDENTITY, DROP),
        IDENTITY,
    )
    root = make_branch(FieldValueTest("srcport", 1), inner, DROP)
    ports = [1, 2, 3]
    assert packet_state_mapping(root, ports, ports).all_state_vars() == set()
    assert packet_state_mapping_paths(root, ports, ports).all_state_vars() == {"s"}
    assert ingress_state_footprint(root, ports) == dict.fromkeys(ports, frozenset())
    assert [f.code for f in lint_diagram(root)] == ["SNAP-W201"]
