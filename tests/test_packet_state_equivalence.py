"""S_uv: the production fold against the path-enumeration reference.

``packet_state_mapping`` folds memoised sub-diagram summaries — sets of
``(constraints, states, targets)`` — into per-pair frozensets, with no
sort anywhere on the way: the result must not depend on set-hash order
(CI runs this file under ``PYTHONHASHSEED`` 0 and 2), on what a
persistent session's memo already holds, or on how many paths collapsed
into one triple.  ``tests/reference_packet_state.py`` enumerates every
root-to-leaf path instead and is the oracle — also of the per-port
state footprint the shard planner folds from the same summaries.
"""

import pytest

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import packet_state_mapping
from repro.apps import ALL_APPS
from repro.apps.routing import assign_egress, default_subnets
from repro.core.program import Program
from repro.dataplane.engine import ingress_state_footprint
from repro.lang import ast
from repro.xfdd.incremental import CompileSession

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
    mapped with the memo the ones before it filled."""
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
