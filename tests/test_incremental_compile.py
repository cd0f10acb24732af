"""Incremental delta compilation: equivalence, invalidation, provenance.

The claim is that ``update_policy`` on a warm
:class:`~repro.xfdd.incremental.CompileSession` (and the content-keyed
solve memo) produces snapshots *semantically identical* to a fresh
session's compile of the same program — same placement, same routing,
byte-identical data-plane behaviour — while reusing unchanged
sub-policies' diagrams.
"""

import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import packet_state_mapping
from repro.apps import ALL_APPS
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.lang import ast, make_packet
from repro.lang.ast import state_variables
from repro.lang.fingerprint import fingerprint
from repro.topology.campus import campus_topology
from repro.xfdd.build import build_xfdd
from repro.xfdd.incremental import CompileSession, split_units

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from workloads import composed_program, dns_tunnel_program  # noqa: E402
from test_te_program import binding_campus  # noqa: E402

from tests.reference_dependency import st_dep  # noqa: E402
from tests.reference_packet_state import packet_state_mapping_paths  # noqa: E402

NUM_APPS = 4
NUM_PORTS = 6


# -- helpers ------------------------------------------------------------------


def flatten_parallel(policy):
    if isinstance(policy, ast.Parallel):
        return flatten_parallel(policy.left) + flatten_parallel(policy.right)
    return [policy]


def edit_arm(program: Program, k: int, salt: int) -> Program:
    """A single-app edit: wrap arm ``k`` in a guard that drops packets
    with ``srcport = 40000 + salt`` — a behavioural change that leaves
    every state variable's reads/writes (hence S_uv and the dependency
    graph) untouched."""
    par, egress = program.policy.left, program.policy.right
    arms = flatten_parallel(par)
    arms[k % len(arms)] = ast.Seq(
        ast.Not(ast.Test("srcport", 40000 + salt)), arms[k % len(arms)]
    )
    return Program(
        ast.Seq(ast.par_all(arms), egress),
        assumption=program.assumption,
        state_defaults=dict(program.state_defaults),
        name=program.name,
    )


def record_view(records):
    return [(r.egress, r.hops, r.packet) for r in records]


def replay_trace(snapshot):
    """Deterministic packet workload injected into a fresh data plane."""
    network = snapshot.build_network()
    packets = [
        (
            make_packet(
                srcip=f"10.0.{src}.2",
                dstip=f"10.0.{dst}.1",
                srcport=40000 + src,
                dstport=53,
            ),
            src,
        )
        for src in range(1, NUM_PORTS + 1)
        for dst in range(1, NUM_PORTS + 1)
        if src != dst
    ]
    return [record_view(r) for r in network.inject_many(packets)]


# -- fingerprints -------------------------------------------------------------


class TestFingerprint:
    def test_identity_insensitive(self):
        a = composed_program(NUM_APPS, NUM_PORTS).full_policy()
        b = composed_program(NUM_APPS, NUM_PORTS).full_policy()
        assert a is not b
        assert fingerprint(a) == fingerprint(b)

    def test_distinguishes_edits(self):
        base = composed_program(NUM_APPS, NUM_PORTS)
        seen = {fingerprint(base.full_policy())}
        for k in range(NUM_APPS):
            fp = fingerprint(edit_arm(base, k, 0).full_policy())
            assert fp not in seen
            seen.add(fp)

    def test_pinned_vectors(self):
        # The encoding is a persistent cache key: these break ONLY if the
        # canonical encoding changes, which invalidates cross-session
        # artifact comparison and must be deliberate.
        assert fingerprint(ast.Id()).hex() == "6bcaff488d3449ff36d5b9025380bd13"
        assert fingerprint(ast.Drop()).hex() == "799072067350cd4c11039e51206730a3"
        assert (
            fingerprint(ast.Test("srcport", 53)).hex()
            == "fd459ea1bc136aafe7cf9514c55708c9"
        )

    def test_pickle_roundtrip_recomputes(self):
        policy = dns_tunnel_program(NUM_PORTS).full_policy()
        fp = fingerprint(policy)
        clone = pickle.loads(pickle.dumps(policy))
        # The cached digest is not serialized; recomputation agrees.
        assert getattr(clone, "_fingerprint", None) is None
        assert fingerprint(clone) == fp


# -- analysis delta paths -----------------------------------------------------


#: Every Table-3 app alone, and the two composites the suite compiles.
DEPENDENCY_CASES = {
    **{name: (lambda make=make: make().policy) for name, make in ALL_APPS.items()},
    "dns-tunnel-program": lambda: dns_tunnel_program(NUM_PORTS).full_policy(),
    "composed-program": lambda: composed_program(NUM_APPS, NUM_PORTS).full_policy(),
}


class TestAnalysisEquivalence:
    @pytest.mark.parametrize("name", sorted(DEPENDENCY_CASES))
    def test_slicer_matches_st_dep(self, name):
        """The slicer's graph is Figure 14's, transcribed in
        ``tests/reference_dependency.py``."""
        policy = DEPENDENCY_CASES[name]()
        graph = analyze_dependencies(policy).graph
        assert set(graph.edges) == st_dep(policy)
        assert set(graph.nodes) == state_variables(policy)

    @pytest.mark.parametrize("make", [
        lambda: dns_tunnel_program(NUM_PORTS),
        lambda: composed_program(NUM_APPS, NUM_PORTS),
    ])
    def test_mapping_matches_path_enumeration(self, make):
        program = make()
        xfdd = build_xfdd(program.full_policy(), program.registry)
        ports = list(range(1, NUM_PORTS + 1))
        fast = packet_state_mapping(xfdd, ports, ports, memo={})
        slow = packet_state_mapping_paths(xfdd, ports, ports)
        assert dict(fast.items()) == dict(slow.items())


# -- the session --------------------------------------------------------------


class TestCompileSession:
    def test_splice_reuses_unchanged_arms(self):
        base = composed_program(NUM_APPS, NUM_PORTS)
        session = CompileSession()
        deps = analyze_dependencies(base.full_policy())
        session.begin_compile(base.registry, deps.state_rank)
        session.build(base.full_policy())

        edited = edit_arm(base, 0, 7)
        deps2 = analyze_dependencies(edited.full_policy())
        session.begin_compile(edited.registry, deps2.state_rank)
        session.build(edited.full_policy())
        arms = flatten_parallel(edited.policy.left)
        assert not session.was_reused(arms[0])  # the dirty arm
        assert all(session.was_reused(arm) for arm in arms[1:])

    def test_rank_change_invalidates_subtree(self):
        session = CompileSession()
        program = dns_tunnel_program(NUM_PORTS)
        policy = program.full_policy()
        deps = analyze_dependencies(policy)
        session.begin_compile(program.registry, deps.state_rank)
        session.build(policy)
        # Shift every rank: no entry *containing state* may be served
        # (state-free subtrees are order-insensitive and may survive).
        shifted = {v: r + 1 for v, r in deps.state_rank.items()}
        session.begin_compile(program.registry, shifted)
        session.build(policy)
        assert not session.was_reused(policy)
        for sub in (policy.left, policy.right):
            if state_variables(sub):
                assert not session.was_reused(sub)


# -- controller equivalence (the property) ------------------------------------


def submitted_controller():
    controller = SnapController(
        campus_topology(), composed_program(NUM_APPS, NUM_PORTS)
    )
    controller.submit()
    return controller


@pytest.fixture(scope="module")
def warm_controller():
    return submitted_controller()


@pytest.fixture
def fresh_controller():
    """A session of its own: what a test counts as recompiled must not
    depend on which edits the module's shared session has already seen."""
    return submitted_controller()


class TestIncrementalEquivalence:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(k=st.integers(min_value=0, max_value=NUM_APPS - 1),
           salt=st.integers(min_value=0, max_value=999))
    # The edit the provenance test makes: run on the shared session, it
    # must not change what that test counts.
    @example(k=0, salt=55)
    def test_single_app_edit_matches_forced_cold(self, warm_controller, k, salt):
        """Random single-app edits: the warm snapshot is semantically
        equivalent to a fresh, empty session's compile of the same
        program, and its data plane replays byte-identically."""
        edited = edit_arm(
            composed_program(NUM_APPS, NUM_PORTS), k, salt
        )
        warm = warm_controller.update_policy(edited)
        cold = SnapController(campus_topology(), edited).submit()
        assert dict(warm.placement) == dict(cold.placement)
        assert dict(warm.mapping.items()) == dict(cold.mapping.items())
        assert warm.routing.paths == cold.routing.paths
        assert replay_trace(warm) == replay_trace(cold)

    def test_solve_reused_when_mapping_unchanged(self, warm_controller):
        edited = edit_arm(composed_program(NUM_APPS, NUM_PORTS), 1, 123)
        before = warm_controller.backend.calls["st_solves"]
        snap = warm_controller.update_policy(edited)
        assert snap.model_stats["solve_reused"] is True
        assert warm_controller.backend.calls["st_solves"] == before

    def test_artifact_provenance_counts(self, fresh_controller):
        base = composed_program(NUM_APPS, NUM_PORTS)
        snap = fresh_controller.update_policy(edit_arm(base, 0, 55))
        stats = snap.model_stats
        # Units: NUM_APPS parallel arms + the egress segment + the
        # assumption segment; exactly one arm was dirtied.
        assert (
            stats["incremental_reused"] + stats["incremental_recompiled"]
            == NUM_APPS + 2
        )
        assert stats["incremental_recompiled"] == 1

    def test_the_recompiled_unit_is_the_edited_arm(self, fresh_controller):
        """The one unit the session compiles is the dirtied arm; every
        unit's memo key names each state variable the unit touches."""
        edited = edit_arm(composed_program(NUM_APPS, NUM_PORTS), 0, 55)
        fresh_controller.update_policy(edited)
        session = fresh_controller._session
        units = split_units(edited.full_policy())
        assert len(units) == NUM_APPS + 2
        recompiled = [u for u in units if not session.was_reused(u)]
        assert recompiled == [flatten_parallel(edited.policy.left)[0]]
        for unit in units:
            touched = session.dep_slicer.slice(unit)
            assert touched.reads | touched.writes == frozenset(
                state_variables(unit)
            )


_A, _B, _C, _D = (ast.Mod(f, 1) for f in ("srcport", "dstport", "vlan", "tos"))
_T = ast.Test("srcport", 7)

#: policy -> its units: the sequential spine left to right, a parallel
#: segment flattened into its arms, anything else one unit.
SPLIT_CASES = {
    "atom": (_A, [_A]),
    "left-nested seq": (ast.Seq(ast.Seq(_A, _B), _C), [_A, _B, _C]),
    "right-nested seq": (ast.Seq(_A, ast.Seq(_B, _C)), [_A, _B, _C]),
    "parallel segment": (
        ast.Seq(_A, ast.Seq(ast.Parallel(_B, _C), _D)), [_A, _B, _C, _D]
    ),
    "nested parallel": (
        ast.Parallel(ast.Parallel(_A, _B), ast.Parallel(_C, _D)),
        [_A, _B, _C, _D],
    ),
    "seq inside an arm": (
        ast.Parallel(ast.Seq(_A, _B), _C), [ast.Seq(_A, _B), _C]
    ),
    "if is one unit": (
        ast.Seq(ast.If(_T, ast.Seq(_A, _B), _C), _D),
        [ast.If(_T, ast.Seq(_A, _B), _C), _D],
    ),
}


class TestSplitUnits:
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_units_of_a_shape(self, case):
        policy, units = SPLIT_CASES[case]
        assert split_units(policy) == units

    @pytest.mark.parametrize("name", [
        "campus-ops", "isp-compile", "policy-churn", "monitor-replay",
    ])
    def test_a_unit_is_reused_iff_an_earlier_generation_compiled_it(
        self, name
    ):
        """Over a workload's edits in one session, the counts the explain
        record reads: a composite unit is spliced exactly when some
        earlier generation had a unit of its fingerprint, and each edit
        compiles one."""
        from tests.snapbench_programs import workload

        wl = workload(name)
        controller = SnapController(wl.topology, wl.program())
        seen = set()
        for k, program in enumerate([wl.program(), *wl.edits]):
            snap = (
                controller.update_policy(program) if k else controller.submit()
            )
            units = split_units(program.full_policy())
            reused = sum(
                isinstance(u, ast.COMPOSITE) and fingerprint(u) in seen
                for u in units
            )
            stats = snap.model_stats
            assert (
                stats["incremental_reused"], stats["incremental_recompiled"]
            ) == (reused, len(units) - reused)
            assert k == 0 or stats["incremental_recompiled"] == 1
            seen |= {fingerprint(u) for u in units}


class TestInterleavedEvents:
    def test_fail_link_between_policy_updates(self):
        controller = SnapController(
            campus_topology(), composed_program(NUM_APPS, NUM_PORTS)
        )
        base = composed_program(NUM_APPS, NUM_PORTS)
        controller.submit()
        controller.fail_link("C1", "C5")
        # update_policy under failure solves against the degraded graph:
        # the solve key differs from the cold-start one, so no stale
        # reuse — and the routing avoids the dead link.
        snap = controller.update_policy(edit_arm(base, 0, 1))
        assert snap.model_stats["solve_reused"] is False
        path = snap.routing.path(1, 6)
        assert ("C1", "C5") not in set(zip(path, path[1:]))
        controller.restore_link("C1", "C5")
        # Same edit again, now on the restored graph: key matches the
        # earlier full-graph solve for this mapping -> reused.
        snap2 = controller.update_policy(edit_arm(base, 0, 2))
        assert snap2.model_stats["solve_reused"] is True
        assert snap2.routing.path(1, 6) == snap2.routing.path(1, 6)

    def test_topology_change_invalidates_solve_reuse(self):
        controller = SnapController(
            campus_topology(), composed_program(NUM_APPS, NUM_PORTS)
        )
        controller.submit()
        bigger = campus_topology()
        bigger.add_link("C1", "C4", 10.0)
        controller.update_topology(bigger)
        snap = controller.update_policy(
            composed_program(NUM_APPS, NUM_PORTS)
        )
        # New graph -> new solve key -> genuine re-solve.
        assert snap.model_stats["solve_reused"] is False

    def test_resubmit_resets_session(self):
        controller = SnapController(
            campus_topology(), composed_program(NUM_APPS, NUM_PORTS)
        )
        controller.submit()
        snap = controller.submit()
        assert snap.model_stats["incremental_reused"] == 0
        assert snap.model_stats["solve_reused"] is False

    def test_topology_update_drops_the_certificates(self):
        # Where the shortest walks do not fit, a link event solves the LP
        # and leaves a certificate a second failure of the link reuses.
        controller = SnapController(binding_campus(), dns_tunnel_program(NUM_PORTS))
        controller.submit()
        controller.fail_link("C1", "C5")
        controller.restore_link("C1", "C5")
        controller.update_topology(binding_campus())
        again = controller.fail_link("C1", "C5")
        assert again.model_stats["solve_reused"] is False

    def test_topology_update_resets_failures(self):
        controller = SnapController(binding_campus(), dns_tunnel_program(NUM_PORTS))
        controller.submit()
        controller.fail_link("C1", "C5")
        controller.update_topology(campus_topology())
        assert controller.failed_links == frozenset()
        assert controller.fail_link("C1", "C5").model_stats["solve_reused"] is False

    def test_an_unchanged_policy_update_keeps_the_certificates(self):
        # Same program, same graph: the solve inputs (hence the placement)
        # are provably unchanged, so the link's certificate still routes.
        controller = SnapController(binding_campus(), dns_tunnel_program(NUM_PORTS))
        controller.submit()
        controller.fail_link("C1", "C5")
        controller.restore_link("C1", "C5")
        solves = controller.backend.calls["te_solves"]
        controller.update_policy(dns_tunnel_program(NUM_PORTS))
        again = controller.fail_link("C1", "C5")
        assert again.model_stats["solve_reused"] is True
        assert controller.backend.calls["te_solves"] == solves
