"""The apply-cache and factory scoping of the composition engine.

Two guarantees:

* caching is *invisible*: a cached Composer and the uncached reference
  (``tests/reference_compose.py``) sharing one DiagramFactory produce the
  **same interned node** (``is``-identity) for every generated policy;
* hash-consing sessions are *isolated*: one compilation cannot grow (or
  alias into) the intern table of another.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.dependency import analyze_dependencies
from repro.apps import ALL_APPS
from repro.apps.chimera import dns_tunnel_detect
from repro.apps.routing import assign_egress, default_subnets, port_assumption
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.lang import ast
from repro.lang.errors import CompileError, RaceConditionError
from repro.topology.campus import campus_topology
from repro.xfdd.actions import FieldAssign
from repro.xfdd.build import to_xfdd
from repro.xfdd.compose import Composer
from repro.xfdd.diagram import DROP, IDENTITY, DiagramFactory, default_factory
from repro.xfdd.incremental import CompileSession
from repro.xfdd.order import TestOrder as XFDDTestOrder
from repro.xfdd.tests import FieldFieldTest, FieldValueTest
from repro.workloads import replay

from tests.reference_compose import UncachedComposer
from tests.snapbench_programs import store_digest, traffic, workload
from tests.test_packet_state_equivalence import compile_in
from tests.strategies import policies, registry

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _order():
    return XFDDTestOrder(registry(), {"sA": 0, "sB": 1})


def _campus_program():
    subnets = default_subnets(6)
    app = dns_tunnel_detect()
    return Program(
        ast.Seq(app.policy, assign_egress(subnets)),
        assumption=port_assumption(subnets),
        state_defaults=app.state_defaults,
        name=f"{app.name}+egress",
    )


class TestCacheEquivalence:
    @SETTINGS
    @given(policies())
    def test_cached_composition_is_node_identical(self, policy):
        """Cached and reference composition agree to the node (``is``)."""
        factory = DiagramFactory()
        cached = Composer(_order(), factory=factory)
        reference = UncachedComposer(_order(), factory=factory)
        try:
            d_ref = to_xfdd(policy, reference)
        except (RaceConditionError, CompileError):
            return
        d_cached = to_xfdd(policy, cached)
        assert d_cached is d_ref

    @SETTINGS
    @given(policies(), policies())
    def test_cached_union_and_sequence_identical(self, p, q):
        factory = DiagramFactory()
        cached = Composer(_order(), factory=factory)
        reference = UncachedComposer(_order(), factory=factory)
        try:
            dp_ref, dq_ref = to_xfdd(p, reference), to_xfdd(q, reference)
            u_ref = reference.union(dp_ref, dq_ref)
            s_ref = reference.sequence(dp_ref, dq_ref)
        except (RaceConditionError, CompileError):
            return
        dp, dq = to_xfdd(p, cached), to_xfdd(q, cached)
        assert dp is dp_ref and dq is dq_ref
        assert cached.union(dp, dq) is u_ref
        assert cached.sequence(dp, dq) is s_ref

    @pytest.mark.parametrize("name", list(ALL_APPS))
    def test_every_app_is_node_identical(self, name):
        """Each Table-3 app, sequenced with the egress assignment."""
        app = ALL_APPS[name]()
        policy = ast.Seq(app.policy, assign_egress(default_subnets(6)))
        order = XFDDTestOrder(
            state_rank=analyze_dependencies(policy).state_rank
        )
        factory = DiagramFactory()
        composer = Composer(order, factory=factory)
        cached = to_xfdd(policy, composer)
        reference = UncachedComposer(order, factory=factory)
        assert to_xfdd(policy, reference) is cached
        # The cache must be caching *something* on every app; the
        # reference nothing.
        assert composer.cache_stats()["cache_hit_rate"] > 0
        assert reference.cache_stats()["cache_entries"] == 0

    def test_churn_edits_in_one_session_are_node_identical(self):
        """The twelve ``policy-churn`` edits, in the benchmark's order,
        through one session: each generation's root — assembled from
        memoised arms and apply-cache entries of every generation before
        it, hit under contexts projected onto operand supports — is the
        node an uncached composer builds from scratch on the same
        factory."""
        wl = workload("policy-churn")
        session = CompileSession()
        for program in [wl.program(), *wl.edits]:
            root = compile_in(session, program)
            reference = UncachedComposer(
                session.composer.order, factory=session.factory
            )
            assert to_xfdd(program.full_policy(), reference) is root
        assert session.composer.cache_stats()["cache_hits"] > 0

    def test_projected_key_keeps_what_the_operands_can_ask(self):
        """Facts about the operands' support decide the result and stay
        in the key; a fact about anything else shares the entry."""
        comp = Composer(_order(), factory=DiagramFactory())
        d = to_xfdd(
            ast.If(ast.Test("fa", 1), ast.Mod("fb", 2), ast.Mod("fb", 3)), comp
        )
        root = comp.root_context
        is_one = FieldValueTest("fa", 1)
        assert comp.union(d, DROP, root) is d
        assert comp.union(d, DROP, root.add(is_one, True)) is d.hi
        assert comp.union(d, DROP, root.add(is_one, False)) is d.lo
        # fa is known only through fc: the equality pulls fc's facts in.
        via_fc = root.add(FieldFieldTest("fa", "fc"), True)
        assert comp.union(d, DROP, via_fc.add(FieldValueTest("fc", 1), True)) is d.hi
        assert comp.union(d, DROP, via_fc.add(FieldValueTest("fc", 7), True)) is d.lo
        sequenced = comp.sequence(d, IDENTITY)
        hits = comp.cache_hits
        elsewhere = root.add(FieldValueTest("fc", 9), False)
        assert comp.union(d, DROP, elsewhere) is d
        assert comp.sequence(d, IDENTITY, elsewhere) is sequenced
        assert comp.cache_hits == hits + 2

    def test_cache_counters_advance(self):
        factory = DiagramFactory()
        comp = Composer(_order(), factory=factory)
        policy = ast.Seq(
            ast.Parallel(ast.Test("fa", 1), ast.Test("fb", 2)),
            ast.Parallel(ast.Mod("fc", 3), ast.Test("fa", 1)),
        )
        to_xfdd(policy, comp)
        stats = comp.cache_stats()
        assert stats["cache_misses"] > 0
        assert stats["cache_entries"] == stats["cache_misses"]
        assert stats["intern_size"] == len(factory)


def _outcome(controller, trace) -> str:
    """What a replay leaves observable, as snapbench digests a round."""
    network = controller.network()
    stats = replay(trace, network)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(repr((stats.delivered, stats.dropped, stats.total_hops)).encode())
    store_digest(hasher, network.global_store())
    return hasher.hexdigest()


def test_incremental_updates_match_forced_cold_after_replay():
    """``update_policy(edit)`` on the warm session against a fresh
    session's ``submit()`` of the same edit, whose data plane adopts the
    previous reference's state as a hot swap would: same placement, same
    routing, and the same deliveries and state after replaying the same
    traffic through both state-carrying data planes."""
    wl = workload("campus-ops")
    trace = list(traffic.mixed(default_subnets(6), 400, seed=3).trace)
    warm = SnapController(wl.topology, wl.program())
    cold = SnapController(wl.topology, wl.program())
    sessions = [warm, cold]
    try:
        for controller in (warm, cold):
            controller.submit()
        assert _outcome(warm, trace) == _outcome(cold, trace)
        for edit in wl.edits:
            a = warm.update_policy(edit)
            previous = cold.network()
            cold = SnapController(wl.topology, edit)
            sessions.append(cold)
            b = cold.submit()
            cold.network().adopt_state(previous)
            assert dict(a.placement) == dict(b.placement)
            assert a.routing.paths == b.routing.paths
            assert _outcome(warm, trace) == _outcome(cold, trace)
    finally:
        for controller in sessions:
            controller.close()


class TestFactoryScoping:
    def test_singletons_shared_across_factories(self):
        f1, f2 = DiagramFactory(), DiagramFactory()
        assert f1.leaf([()]) is IDENTITY
        assert f2.leaf([()]) is IDENTITY
        assert f1.leaf([]) is DROP is f2.leaf([])

    def test_clear_keeps_singletons(self):
        factory = DiagramFactory()
        factory.leaf([(FieldAssign("fa", 1),)])
        assert len(factory) > 2
        factory.clear()
        assert len(factory) == 2
        assert factory.leaf([()]) is IDENTITY

    def test_clear_invalidates_bound_composer_caches(self):
        """factory.clear() must flush id()-keyed apply-caches, or recycled
        node addresses could alias stale entries."""
        factory = DiagramFactory()
        comp = Composer(_order(), factory=factory)
        policy = ast.Seq(ast.Test("fa", 1), ast.Mod("fb", 2))
        to_xfdd(policy, comp)
        assert comp.cache_stats()["cache_entries"] > 0
        factory.clear()
        assert comp.cache_stats()["cache_entries"] == 0
        # The composer keeps working against the cleared factory.
        d = to_xfdd(policy, comp)
        assert d is to_xfdd(policy, comp)

    def test_default_factory_backs_module_constructors(self):
        from repro.xfdd.diagram import make_leaf

        before = len(default_factory())
        assert make_leaf([()]) is IDENTITY
        assert len(default_factory()) == before

    def test_second_compilation_does_not_grow_first_intern_table(self):
        """Back-to-back controller sessions use disjoint hash-consing sessions."""
        topology = campus_topology()
        first = SnapController(topology, _campus_program()).submit()
        factory_one = first.diagram_factory
        assert factory_one is not None
        size_one = len(factory_one)
        assert size_one > 2  # it actually interned this program's nodes
        second = SnapController(topology, _campus_program()).submit()
        assert len(factory_one) == size_one
        assert second.diagram_factory is not factory_one
        assert len(second.diagram_factory) == size_one  # same program, same table

    def test_compilation_exposes_cache_stats(self):
        result = SnapController(campus_topology(), _campus_program()).submit()
        assert result.model_stats["xfdd_cache_hits"] > 0
        assert result.model_stats["xfdd_cache_misses"] > 0
        assert result.model_stats["xfdd_intern_size"] == len(result.diagram_factory)
