"""Tests for the static state-effect analyzer (``repro.analysis.effects``).

Four load-bearing properties:

* every state write in every Table-3 application classifies into the
  update-kind lattice — no UNKNOWNs, and the per-variable joins match a
  hand-checked table;
* seeded ``Parallel`` races are flagged with the right severity:
  conflicting constant writes are order-dependent (SNAP-E001), parallel
  increments are benign-commutative (SNAP-W101), read/write overlaps
  warn (SNAP-W102) — and none of the shard-safe apps report an
  order-dependent race;
* the analyzer's safety verdict is *sound*: whenever
  ``interleaving_safe`` holds, every adversarial interleaving of
  concurrent in-flight packets lands on a store some serial (OBS) order
  also produces (hypothesis property over random policies);
* shard-collapse reasons (SNAP-W104) surface through ``plan_for``,
  engine ``last_run_stats``, and lane-failure messages.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.effects import (
    EffectKind,
    analyze_effects,
    xfdd_effects,
)
from repro.apps import ALL_APPS, assign_egress, default_subnets, port_assumption
from repro.core.controller import SnapController
from repro.core.program import Program
from repro.dataplane.engine import (
    ShardedEngine,
    _raise_lane_failure,
    plan_for,
)
from repro.dataplane.network import Network
from repro.lang import ast
from repro.lang.errors import (
    CompileError,
    DataPlaneError,
    InconsistentStateError,
    PlacementError,
    RaceConditionError,
)
from repro.lang.semantics import eval_policy
from repro.lang.state import Store
from repro.milp.placement import build_placement_model
from repro.milp.results import extract_paths, validate_solution
from repro.topology.graph import Topology
from repro.topology.traffic import uniform_traffic_matrix
from repro.xfdd.build import build_xfdd
from repro import workloads

from tests.strategies import STATE_VARS, VALUES, packets, registry
from tests.test_property_network import diamond_topology, egress_policy

K = EffectKind

# Hand-checked per-app expectations: written variable -> joined kind.
# Apps listed in SAFE_APPS have no transaction hazard (at most one
# order-sensitive atomic group); HAZARD_APPS carry exactly one SNAP-W103
# finding.  *No* Table-3 app has a Parallel-arm race.
SAFE_APPS = {
    "spam-detect": {"MTA-dir": K.CONST_WRITE, "mail-counter": K.GENERAL_RMW},
    "stateful-firewall": {"established": K.IDEMPOTENT_INSERT},
    "ftp-monitoring": {"ftp-data-chan": K.IDEMPOTENT_INSERT},
    "heavy-hitter": {
        "heavy-hitter": K.IDEMPOTENT_INSERT,
        "hh-counter": K.INCREMENT,
    },
    "global-heavy-hitter": {"global-hh": K.INCREMENT},
    "super-spreader": {
        "spreader": K.INCREMENT,
        "super-spreader": K.IDEMPOTENT_INSERT,
    },
    "selective-packet-dropping": {"dep-count": K.GENERAL_RMW},
    "connection-affinity": {},
    "syn-flood": {
        "syn-count": K.INCREMENT,
        "syn-flooder": K.IDEMPOTENT_INSERT,
    },
    "dns-amplification": {"benign-request": K.IDEMPOTENT_INSERT},
    "udp-flood": {
        "udp-counter": K.INCREMENT,
        "udp-flooder": K.IDEMPOTENT_INSERT,
    },
    "tcp-state-machine": {"tcp-state": K.CONST_WRITE},
    "snort-flowbits": {"kindle": K.IDEMPOTENT_INSERT},
    "sidejack-detect": {
        "active-session": K.IDEMPOTENT_INSERT,
        "sid2agent": K.GENERAL_RMW,
        "sid2ip": K.GENERAL_RMW,
    },
}
HAZARD_APPS = (
    "many-ip-domains",
    "many-domain-ips",
    "dns-ttl-change",
    "dns-tunnel-detect",
    "sampling-by-flow-size",
    "elephant-flows",
    "flow-size-detect",
)


# -- Table-3 classification ---------------------------------------------------


class TestTableThreeClassification:
    @pytest.mark.parametrize("name", sorted(ALL_APPS))
    def test_every_write_classified_no_parallel_races(self, name):
        report = analyze_effects(ALL_APPS[name]().policy)
        for effect in report.variables.values():
            assert isinstance(effect.kind, EffectKind)
        # No Table-3 app composes conflicting writes in Parallel.
        assert report.races == ()
        assert report.order_dependent_races == ()

    @pytest.mark.parametrize("name", sorted(SAFE_APPS))
    def test_safe_app_kinds(self, name):
        report = analyze_effects(ALL_APPS[name]().policy)
        written = {
            var: effect.kind
            for var, effect in report.variables.items()
            if effect.sites
        }
        assert written == SAFE_APPS[name]
        assert report.hazards == ()
        assert report.interleaving_safe

    @pytest.mark.parametrize("name", HAZARD_APPS)
    def test_hazard_app_flags_one_transaction_hazard(self, name):
        report = analyze_effects(ALL_APPS[name]().policy)
        assert len(report.hazards) == 1
        finding = report.hazards[0]
        assert finding.code == "SNAP-W103"
        assert finding.category == "transaction"
        assert not report.interleaving_safe
        # ... but still no Parallel-arm race: shard-level replay of these
        # apps stays sound, only cross-variable atomicity is at risk.
        assert report.order_dependent_races == ()

    @pytest.mark.parametrize("name", sorted(ALL_APPS))
    def test_atomic_groups_partition_the_written_variables(self, name):
        """Each written variable sits in exactly one group, and every
        variable the MILP co-locates with it is in the same group (so W103
        never asks to co-locate what is already co-located)."""
        policy = ALL_APPS[name]().policy
        report = analyze_effects(policy)
        written = {v for v, effect in report.variables.items() if effect.sites}
        groups = report.atomic_groups
        assert sum(len(g) for g in groups) == len(written)
        assert set().union(*groups) == written
        group_of = {var: group for group in groups for var in group}
        dependencies = analyze_dependencies(policy)
        for pair in dependencies.tied:
            a, b = sorted(pair)
            if a in written and b in written:
                assert group_of[a] == group_of[b]
        # The report on request names every variable the ST solve places.
        assert set(report.variables) == set(dependencies.order)

    def test_dns_tunnel_kinds(self):
        report = analyze_effects(ALL_APPS["dns-tunnel-detect"]().policy)
        assert report.kind("blacklist") is K.IDEMPOTENT_INSERT
        assert report.kind("orphan") is K.CONST_WRITE
        assert report.kind("susp-client") is K.INCREMENT
        assert report.mergeable_vars >= {"blacklist", "susp-client"}


# -- seeded races -------------------------------------------------------------


def _idx():
    return ast.Value(0)


class TestSeededRaces:
    def test_conflicting_const_writes_are_order_dependent(self):
        policy = ast.Parallel(
            ast.StateMod("s", _idx(), ast.Value(1)),
            ast.StateMod("s", _idx(), ast.Value(2)),
        )
        report = analyze_effects(policy)
        assert len(report.order_dependent_races) == 1
        finding = report.order_dependent_races[0]
        assert finding.code == "SNAP-E001"
        assert finding.variable == "s"
        assert finding.severity == "order-dependent"
        assert not report.interleaving_safe

    def test_parallel_increments_are_benign(self):
        policy = ast.Parallel(
            ast.StateIncr("s", _idx()), ast.StateIncr("s", _idx())
        )
        report = analyze_effects(policy)
        assert report.order_dependent_races == ()
        codes = [f.code for f in report.races]
        assert codes == ["SNAP-W101"]
        assert report.races[0].severity == "benign-commutative"
        assert report.kind("s") is K.INCREMENT

    def test_parallel_read_write_warns(self):
        policy = ast.Parallel(
            ast.If(
                ast.StateTest("s", (_idx(),), ast.Value(1)),
                ast.Drop(),
                ast.Id(),
            ),
            ast.StateIncr("s", _idx()),
        )
        report = analyze_effects(policy)
        codes = sorted(f.code for f in report.races)
        assert "SNAP-W102" in codes
        assert report.order_dependent_races == ()

    def test_same_literal_parallel_insert_is_benign(self):
        policy = ast.Parallel(
            ast.StateMod("s", _idx(), ast.Value(1)),
            ast.StateMod("s", _idx(), ast.Value(1)),
        )
        report = analyze_effects(policy)
        assert report.kind("s") is K.IDEMPOTENT_INSERT
        assert report.order_dependent_races == ()


# -- lattice joins ------------------------------------------------------------


class TestLatticeJoins:
    def test_watermark_is_monotone(self):
        level = lambda v: ast.StateTest("level", ast.Field("fa"), ast.Value(v))
        step = lambda v: ast.StateMod("level", ast.Field("fa"), ast.Value(v))
        policy = ast.If(
            level(0), step(1), ast.If(level(1), step(2), ast.Id())
        )
        report = analyze_effects(policy)
        effect = report.variables["level"]
        assert effect.kind is K.MONOTONE
        assert effect.direction == +1
        assert effect.mergeable
        assert not effect.order_independent  # interleavings can skip rungs

    def test_downward_watermark_direction(self):
        level = lambda v: ast.StateTest("level", ast.Field("fa"), ast.Value(v))
        step = lambda v: ast.StateMod("level", ast.Field("fa"), ast.Value(v))
        policy = ast.If(
            level(2), step(1), ast.If(level(1), step(0), ast.Id())
        )
        effect = analyze_effects(policy).variables["level"]
        assert effect.kind is K.MONOTONE
        assert effect.direction == -1

    def test_unguarded_multi_literal_is_const_write(self):
        policy = ast.If(
            ast.Test("fa", 0),
            ast.StateMod("s", _idx(), ast.Value(1)),
            ast.StateMod("s", _idx(), ast.Value(2)),
        )
        effect = analyze_effects(policy).variables["s"]
        assert effect.kind is K.CONST_WRITE
        assert not effect.mergeable

    def test_field_valued_write_is_general_rmw(self):
        policy = ast.StateMod("s", _idx(), ast.Field("fa"))
        assert analyze_effects(policy).kind("s") is K.GENERAL_RMW

    def test_mixed_incr_and_assign_is_general_rmw(self):
        policy = ast.Seq(
            ast.StateIncr("s", _idx()),
            ast.StateMod("s", _idx(), ast.Value(0)),
        )
        assert analyze_effects(policy).kind("s") is K.GENERAL_RMW

    def test_read_only_variable_reported(self):
        policy = ast.If(
            ast.StateTest("s", (_idx(),), ast.Value(1)), ast.Drop(), ast.Id()
        )
        effect = analyze_effects(policy).variables["s"]
        assert effect.sites == ()
        assert effect.read


# -- xFDD-level effects --------------------------------------------------------


def _build(policy):
    deps = analyze_dependencies(policy)
    return build_xfdd(policy, state_rank=deps.state_rank)


class TestXfddEffects:
    def test_delta_only_is_increment(self):
        root = _build(
            ast.Seq(ast.StateIncr("c", _idx()), ast.Mod("outport", 2))
        )
        kinds = xfdd_effects(root)
        assert kinds["c"] is K.INCREMENT

    def test_single_literal_assign_is_idempotent_insert(self):
        root = _build(
            ast.Seq(
                ast.StateMod("m", _idx(), ast.Value(1)),
                ast.Mod("outport", 2),
            )
        )
        assert xfdd_effects(root)["m"] is K.IDEMPOTENT_INSERT

    def test_tested_delta_var_is_not_commutative(self):
        root = _build(
            ast.Seq(
                ast.StateIncr("c", _idx()),
                ast.If(
                    ast.StateTest("c", (_idx(),), ast.Value(3)),
                    ast.Drop(),
                    ast.Mod("outport", 2),
                ),
            )
        )
        assert xfdd_effects(root)["c"] is K.INCREMENT


# -- shard-collapse reasons ---------------------------------------------------


def _tiny_topology() -> Topology:
    topo = Topology("tiny")
    topo.add_switch("A")
    topo.add_switch("B")
    topo.add_link("A", "B", 1000.0)
    topo.attach_port(1, "A")
    topo.attach_port(2, "A")
    topo.attach_port(3, "B")
    topo.validate()
    return topo


def _mixed_snapshot():
    """Ports 1 and 2 share ``v`` (increment at 1, test at 2): the plan
    must collapse them onto one lane and say why."""
    subnets = default_subnets(3)
    policy = ast.Seq(
        ast.If(
            ast.Test("inport", 1),
            ast.StateIncr("v", ast.Value(0)),
            ast.Id(),
        ),
        ast.Seq(
            ast.If(
                ast.And(
                    ast.Test("inport", 2),
                    ast.StateTest("v", (ast.Value(0),), ast.Value(3)),
                ),
                ast.Drop(),
                ast.Id(),
            ),
            assign_egress(subnets),
        ),
    )
    program = Program(
        policy, assumption=port_assumption(subnets),
        state_defaults={"v": 0}, name="collapse-tiny",
    )
    return SnapController(_tiny_topology(), program).submit()


class TestCollapseReasons:
    def test_plan_carries_reasons(self):
        plan = plan_for(_mixed_snapshot().build_network())
        assert "v" in plan.collapse_reasons
        reason = plan.collapse_reasons["v"]
        assert reason.startswith("SNAP-W104")
        assert "'v'" in reason
        assert "[1, 2]" in reason
        assert "(INCREMENT)" in reason
        assert plan.summary()["collapse_reasons"] == plan.collapse_reasons

    def test_every_kind_gets_the_same_message(self):
        from tests.test_engine import compiled
        from repro.apps.chimera import dns_tunnel_detect

        snapshot, _ = compiled(app=dns_tunnel_detect(threshold=3))
        plan = plan_for(snapshot.build_network())
        reasons = plan.collapse_reasons
        assert reasons  # dns-tunnel shares state across many ports
        for var, kind in (("orphan", "CONST_WRITE"), ("susp-client", "INCREMENT")):
            reason = reasons[var]
            assert reason.startswith(f"SNAP-W104: state variable '{var}' ({kind})")
            assert reason.endswith("collapsing them into one lane")

    def test_sharded_engine_last_run_stats(self):
        snapshot = _mixed_snapshot()
        net = snapshot.build_network()
        subnets = default_subnets(3)
        trace = list(
            workloads.background_traffic(subnets, count=40, seed=11)
        )
        engine = ShardedEngine()
        engine.run(net, trace)
        stats = engine.last_run_stats
        assert stats["lanes"] >= 1
        assert stats["parallelism"] >= 1
        assert "v" in stats["collapse_reasons"]

    def test_lane_failure_names_collapse_reason(self):
        plan = plan_for(_mixed_snapshot().build_network())
        index = next(
            i for i, s in enumerate(plan.shards) if "v" in s.variables
        )
        with pytest.raises(DataPlaneError) as excinfo:
            _raise_lane_failure(plan, index, RuntimeError("boom"))
        assert "lane collapse" in str(excinfo.value)
        assert "SNAP-W104" in str(excinfo.value)


# -- soundness: analyzer-safe => adversarial schedules serialize --------------


def _concurrent_bodies():
    """Stateful bodies that stress the safety verdict: increments,
    idempotent inserts, guarded RMWs, parallel arms, atomic pairs."""
    idx = st.sampled_from([ast.Field("fb"), ast.Value(0)])
    var = st.sampled_from(STATE_VARS)
    incr = st.builds(ast.StateIncr, var, idx)
    insert = st.builds(
        ast.StateMod, var, idx, st.just(ast.Value(1))
    )
    rmw = st.builds(
        lambda v, i, val, wval: ast.If(
            ast.StateTest(v, i, ast.Value(val)),
            ast.StateMod(v, i, ast.Value(wval)),
            ast.StateIncr(v, i),
        ),
        var, idx, st.sampled_from(VALUES), st.sampled_from(VALUES),
    )
    par = st.builds(ast.Parallel, incr, st.one_of(incr, insert))
    atomic_pair = st.builds(
        lambda a, b: ast.Atomic(ast.Seq(a, b)),
        st.one_of(insert, rmw),
        st.one_of(incr, insert),
    )
    body = st.one_of(incr, insert, rmw, par, atomic_pair)
    return st.lists(body, min_size=1, max_size=2).map(ast.seq_all)


def _obs_serializations(policy, arrivals, defaults):
    """Final OBS stores of every serial order of the arrivals."""
    from itertools import permutations

    stores = []
    for order in permutations(arrivals):
        store = Store(dict(defaults))
        for packet, port in order:
            tagged = packet.modify("inport", port)
            store, _, _ = eval_policy(policy, store, tagged)
        stores.append(store)
    return stores


class TestInterleavingSoundness:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.filter_too_much,
            HealthCheck.data_too_large,
        ],
    )
    @given(
        body=_concurrent_bodies(),
        arrivals=st.lists(
            st.tuples(packets(), st.sampled_from((1, 2, 3))),
            min_size=2,
            max_size=3,
        ),
        picks=st.lists(
            st.integers(min_value=0, max_value=7), max_size=30
        ),
    )
    def test_safe_policies_serialize_under_adversarial_schedules(
        self, body, arrivals, picks
    ):
        policy = ast.Seq(body, egress_policy())
        report = analyze_effects(policy)
        assume(report.interleaving_safe)

        reg = registry()
        try:
            deps = analyze_dependencies(policy)
            xfdd = build_xfdd(policy, registry=reg, state_rank=deps.state_rank)
        except (RaceConditionError, CompileError):
            assume(False)
            return
        topo = diamond_topology()
        from repro.analysis.packet_state import packet_state_mapping

        ports = (1, 2, 3)
        mapping = packet_state_mapping(xfdd, ports, ports)
        demands = uniform_traffic_matrix(ports, 1.0)
        try:
            solution = build_placement_model(
                topo, demands, mapping, deps
            ).solve()
            routing = extract_paths(solution, topo, mapping, deps)
            validate_solution(routing, topo, mapping, deps)
        except PlacementError:
            assume(False)
            return
        defaults = {v: 0 for v in STATE_VARS}
        net = Network(
            topo, xfdd, solution.placement, routing, mapping, demands,
            defaults,
        )

        choices = iter(picks)

        def scheduler(pending):
            return next(choices, 0) % len(pending)

        try:
            net.inject_concurrent(list(arrivals), scheduler=scheduler)
            serializations = _obs_serializations(policy, arrivals, defaults)
        except InconsistentStateError:
            assume(False)
            return
        assert net.global_store() in serializations
