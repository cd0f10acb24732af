"""The copy-on-write store and the identity merge against the reference.

``tests/reference_semantics.py`` keeps the whole-copy store and the
content-compare merge; ``eval`` over shared tables must give the same
per-packet outputs and a final store ``==`` to it, on every Table 3 app,
on the campus composite and on generated policies.  The rest pins the
sharing rules themselves: copies are independent, reads and ``==``
create and copy nothing, and conflicts raise before any merge.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tests.reference_semantics as reference
from repro import workloads
from repro.apps import ALL_APPS, assign_egress, default_subnets
from repro.lang import ast, semantics
from repro.lang.errors import InconsistentStateError
from repro.lang.packet import make_packet
from repro.lang.semantics import eval_policy
from repro.lang.state import StateVariable, Store
from repro.workloads import replay_obs
from tests.snapbench_programs import traffic, workload
from tests.strategies import packets, policies, stores

SUBNETS = default_subnets(6)


def host(port: int, n: int) -> int:
    return SUBNETS[port].host(n)


@lru_cache(maxsize=None)
def behaviour_trace() -> workloads.Trace:
    """Every behaviour ``repro.workloads`` synthesizes, interleaved with
    background chatter: DNS lookups, a tunnel and an amplification, TCP
    sessions and a SYN flood, FTP, MPEG with a lost I-frame, a UDP flood."""
    client, resolver, server = host(6, 10), host(1, 53), host(2, 80)
    parts = [
        workloads.dns_tunnel_attack(client, 6, resolver, 1, 6, seed=1),
        workloads.benign_dns_usage(
            client, 6, resolver, 1, [server, host(2, 81)], 2, seed=2
        ),
        workloads.dns_amplification_attack(client, resolver, 1, count=6, seed=3),
        workloads.tcp_session(client, server, 6, 2),
        workloads.tcp_session(host(3, 7), server, 3, 2, sport=40001,
                              teardown=False),
        workloads.syn_flood(host(4, 66), 4, server, count=12, seed=4),
        workloads.ftp_session(client, host(5, 21), 6, 5),
        workloads.mpeg_stream(host(5, 9), client, 5, gop=4,
                              lose_iframe_group=1),
        workloads.udp_flood(host(3, 66), 3, client, count=12, seed=5),
    ]
    behaviour = parts[0]
    for part in parts[1:]:
        behaviour = behaviour + part
    background = workloads.background_traffic(SUBNETS, count=60, seed=6)
    return behaviour.interleaved_with(background, seed=7)


def assert_matches_reference(trace, policy, store) -> None:
    expected_store, expected = reference.replay_obs(trace, policy, store)
    got_store, got = replay_obs(trace, policy, store)
    assert got == expected
    assert got_store == expected_store
    assert expected_store == got_store


# -- against the reference ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_every_app_matches_the_reference(name):
    app = ALL_APPS[name]()
    policy = ast.Seq(app.policy, assign_egress(SUBNETS))
    defaults = {**ast.infer_state_defaults(policy), **app.state_defaults}
    assert_matches_reference(behaviour_trace(), policy, Store(defaults))


def test_campus_composite_prefix_matches_the_reference():
    program = workload("campus-ops").program()
    trace = traffic.mixed(default_subnets(6), 300, seed=11).trace
    assert len(trace) == 300
    assert_matches_reference(
        trace, program.full_policy(), Store(program.state_defaults)
    )


def outcome(run):
    try:
        return run()
    except InconsistentStateError:
        return "inconsistent"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    policy=policies(),
    arrivals=st.lists(packets(), min_size=1, max_size=4),
    store=stores(),
)
def test_generated_policies_match_the_reference(policy, arrivals, store):
    trace = [(packet, 1) for packet in arrivals]
    before = reference.ReferenceStore.of(store).as_store()
    expected = outcome(lambda: reference.replay_obs(trace, policy, store))
    got = outcome(lambda: replay_obs(trace, policy, store))
    assert got == expected
    assert store == before


# -- copies share tables until one side writes ---------------------------------


def counter_store() -> Store:
    store = Store({"c": 0})
    store.write("c", (1,), 5)
    store.write("d", (1,), "x")
    return store


class TestSharedTables:
    def test_write_to_the_copy_leaves_the_original(self):
        store = counter_store()
        dup = store.copy()
        dup.write("c", (1,), 9)
        dup.variable("c").increment((2,))
        assert store.read("c", (1,)) == 5 and store.read("c", (2,)) == 0
        assert dup.read("c", (1,)) == 9 and dup.read("c", (2,)) == 1
        assert [var.name for var in dup.written_since(store)] == ["c"]

    def test_write_to_the_original_after_a_copy_leaves_the_copy(self):
        store = counter_store()
        dup = store.copy()
        store.write("c", (1,), 7)
        store.write("new", (1,), True)
        assert dup.read("c", (1,)) == 5
        assert dup.names() == ("c", "d")
        assert store.read("c", (1,)) == 7

    def test_declare_defaults_on_a_shared_empty_table(self):
        store = Store()
        store.variable("c")
        dup = store.copy()
        dup.declare_defaults({"c": 0})
        assert dup.read("c", (1,)) == 0
        assert store.read("c", (1,)) is False

    def test_copy_copies_no_table(self, monkeypatch):
        store = counter_store()

        def forbidden(self):
            raise AssertionError("Store.copy copied a table")

        monkeypatch.setattr(StateVariable, "copy", forbidden)
        dup = store.copy()
        assert dup == store and dup.written_since(store) == []

    def test_read_never_creates_a_variable(self):
        store = Store({"c": 0})
        assert store.read("c", (1,)) == 0
        assert store.read("undeclared", (1,)) is False
        assert store.names() == ()

    def test_equality_changes_neither_side(self):
        a, b = counter_store(), Store({"c": 0, "e": 3})
        b.write("e", (1,), 4)
        a_tables, b_tables = a.copy(), b.copy()
        assert a != b
        assert (a.names(), b.names()) == (("c", "d"), ("e",))
        assert a.written_since(a_tables) == b.written_since(b_tables) == []
        assert a == a_tables and b == b_tables

    def test_replay_obs_leaves_the_callers_store_untouched(self):
        store = counter_store()
        snapshot = store.copy()
        policy = ast.Seq(
            ast.StateIncr("c", ast.Field("inport")), assign_egress(SUBNETS)
        )
        trace = workloads.background_traffic(SUBNETS, count=20, seed=9)
        final, _ = replay_obs(trace, policy, store)
        assert store.written_since(snapshot) == []
        assert store == snapshot and store.read("c", (1,)) == 5
        assert final.read("d", (1,)) == "x"
        assert final.read("c", (1,)) == 5 + sum(port == 1 for _, port in trace)


# -- the identity merge ---------------------------------------------------------


def write(var, value=1):
    return ast.StateMod(var, ast.Field("srcport"), ast.Value(value))


class TestIdentityMerge:
    packet = make_packet(srcport=53, dstport=80)

    def test_no_writer_returns_the_base_itself(self):
        store = counter_store()
        policy = ast.Parallel(ast.Id(), ast.Test("srcport", 53))
        assert eval_policy(policy, store, self.packet)[0] is store

    def test_one_writer_shares_every_other_table(self):
        store = counter_store()
        merged, _, _ = eval_policy(
            ast.Parallel(write("c", 8), ast.Id()), store, self.packet
        )
        assert [var.name for var in merged.written_since(store)] == ["c"]
        assert merged.read("c", (53,)) == 8 and store.read("c", (53,)) == 0

    def test_two_writers_each_hand_over_their_table(self):
        store = counter_store()
        merged, _, log = eval_policy(
            ast.Parallel(write("c", 8), write("d", "y")), store, self.packet
        )
        assert log.writes == {"c", "d"}
        assert merged.read("c", (53,)) == 8 and merged.read("d", (53,)) == "y"
        assert merged.read("d", (1,)) == "x"
        assert store == counter_store()

    def test_a_write_of_the_default_value_is_kept(self):
        store = Store({"c": 0})
        merged, _, _ = eval_policy(
            ast.Parallel(write("c", 0), ast.Id()), store, self.packet
        )
        assert merged.names() == ("c",) and merged == store


class TestConflictsRaiseBeforeAnyMerge:
    packet = make_packet(srcport=53, dstport=80)

    @pytest.fixture
    def merges(self, monkeypatch):
        calls = []
        real = semantics._merge_stores

        def recording(base, variants):
            calls.append(len(variants))
            return real(base, variants)

        monkeypatch.setattr(semantics, "_merge_stores", recording)
        return calls

    def test_write_write_in_parallel(self, merges):
        with pytest.raises(InconsistentStateError):
            eval_policy(
                ast.Parallel(write("c"), write("c", 2)), counter_store(), self.packet
            )
        assert merges == []

    def test_read_write_in_parallel(self, merges):
        read = ast.StateTest("c", ast.Field("srcport"), ast.Value(0))
        with pytest.raises(InconsistentStateError):
            eval_policy(ast.Parallel(read, write("c")), counter_store(), self.packet)
        assert merges == []

    def test_write_write_across_the_runs_of_a_seq(self, merges):
        fork = ast.Parallel(ast.Id(), ast.Mod("srcport", 54))
        with pytest.raises(InconsistentStateError):
            eval_policy(ast.Seq(fork, write("c")), counter_store(), self.packet)
        assert merges == [2]  # the fork's own, which wrote nothing
