"""Unit tests for the composition context (inference engine)."""

from repro.lang import ast
from repro.util.ipaddr import IPPrefix
from repro.xfdd.context import EMPTY_CONTEXT, Context
from repro.xfdd.tests import FieldFieldTest, FieldValueTest, StateVarTest


def fv(field, value):
    return FieldValueTest(field, value)


def ff(f1, f2):
    return FieldFieldTest(f1, f2)


def st(var, index, value):
    return StateVarTest(var, index, value)


class TestFieldValueInference:
    def test_exact_value_decides(self):
        ctx = EMPTY_CONTEXT.add(fv("f", 5), True)
        assert ctx.implies(fv("f", 5)) is True
        assert ctx.implies(fv("f", 6)) is False

    def test_negative_knowledge(self):
        ctx = EMPTY_CONTEXT.add(fv("f", 5), False)
        assert ctx.implies(fv("f", 5)) is False
        assert ctx.implies(fv("f", 6)) is None

    def test_prefix_positive(self):
        p24 = IPPrefix("10.0.6.0/24")
        ctx = EMPTY_CONTEXT.add(fv("dstip", p24), True)
        assert ctx.implies(fv("dstip", IPPrefix("10.0.0.0/16"))) is True
        assert ctx.implies(fv("dstip", IPPrefix("10.0.7.0/24"))) is False
        assert ctx.implies(fv("dstip", IPPrefix("10.0.6.0/25"))) is None

    def test_prefix_negative(self):
        p16 = IPPrefix("10.0.0.0/16")
        ctx = EMPTY_CONTEXT.add(fv("dstip", p16), False)
        assert ctx.implies(fv("dstip", IPPrefix("10.0.6.0/24"))) is False
        assert ctx.implies(fv("dstip", IPPrefix("11.0.0.0/16"))) is None

    def test_host_prefix_becomes_exact(self):
        host = IPPrefix("10.0.6.1")
        ctx = EMPTY_CONTEXT.add(fv("dstip", host), True)
        assert ctx.resolve("dstip") == host.network


class TestFieldFieldInference:
    def test_equality_propagates_values(self):
        ctx = EMPTY_CONTEXT.add(ff("a", "b"), True).add(fv("a", 5), True)
        assert ctx.resolve("b") == 5
        assert ctx.implies(fv("b", 5)) is True

    def test_inequality(self):
        ctx = EMPTY_CONTEXT.add(ff("a", "b"), False)
        assert ctx.implies(ff("a", "b")) is False

    def test_equality_chains(self):
        ctx = (
            EMPTY_CONTEXT.add(ff("a", "b"), True)
            .add(ff("b", "c"), True)
            .add(fv("c", 9), True)
        )
        assert ctx.resolve("a") == 9

    def test_values_decide_field_equality(self):
        ctx = EMPTY_CONTEXT.add(fv("a", 1), True).add(fv("b", 2), True)
        assert ctx.implies(ff("a", "b")) is False
        ctx2 = EMPTY_CONTEXT.add(fv("a", 1), True).add(fv("b", 1), True)
        assert ctx2.implies(ff("a", "b")) is True

    def test_disjoint_prefix_constraints_decide(self):
        ctx = (
            EMPTY_CONTEXT.add(fv("a", IPPrefix("10.0.6.0/24")), True)
            .add(fv("b", IPPrefix("10.0.7.0/24")), True)
        )
        assert ctx.implies(ff("a", "b")) is False


class TestStateInference:
    def test_recorded_test_reused(self):
        t = st("s", ast.Field("srcip"), ast.Value(True))
        ctx = EMPTY_CONTEXT.add(t, True)
        assert ctx.implies(t) is True

    def test_same_index_different_constant_value(self):
        yes = st("s", ast.Value(0), ast.Value(5))
        other = st("s", ast.Value(0), ast.Value(6))
        ctx = EMPTY_CONTEXT.add(yes, True)
        assert ctx.implies(other) is False

    def test_different_index_unknown(self):
        ctx = EMPTY_CONTEXT.add(st("s", ast.Value(0), ast.Value(5)), True)
        assert ctx.implies(st("s", ast.Value(1), ast.Value(5))) is None

    def test_negative_record_gives_no_cross_info(self):
        ctx = EMPTY_CONTEXT.add(st("s", ast.Value(0), ast.Value(5)), False)
        assert ctx.implies(st("s", ast.Value(0), ast.Value(6))) is None

    def test_index_resolution_through_fields(self):
        ctx = EMPTY_CONTEXT.add(fv("srcip", 7), True).add(
            st("s", ast.Value(7), ast.Value(True)), True
        )
        assert ctx.implies(st("s", ast.Field("srcip"), ast.Value(True))) is True


class TestWithAssignments:
    def test_assigned_field_gets_exact_value(self):
        ctx = EMPTY_CONTEXT.add(fv("f", 1), True)
        post = ctx.with_assignments({"f": 9})
        assert post.resolve("f") == 9

    def test_unassigned_constraints_survive(self):
        ctx = EMPTY_CONTEXT.add(fv("g", 3), True)
        post = ctx.with_assignments({"f": 9})
        assert post.resolve("g") == 3

    def test_equalities_involving_assigned_dropped(self):
        ctx = EMPTY_CONTEXT.add(ff("f", "g"), True).add(fv("g", 4), True)
        post = ctx.with_assignments({"f": 9})
        assert post.resolve("f") == 9
        assert post.resolve("g") == 4
        assert post.implies(ff("f", "g")) is False  # 9 != 4

    def test_state_records_rebased_with_known_old_value(self):
        ctx = EMPTY_CONTEXT.add(fv("f", 1), True).add(
            st("s", ast.Field("f"), ast.Value(True)), True
        )
        post = ctx.with_assignments({"f": 9})
        # Old record s[f]=True becomes s[1]=True.
        assert post.implies(st("s", ast.Value(1), ast.Value(True))) is True
        # And says nothing about s[9] (the new f).
        assert post.implies(st("s", ast.Field("f"), ast.Value(True))) is None

    def test_state_records_dropped_without_old_value(self):
        ctx = EMPTY_CONTEXT.add(st("s", ast.Field("f"), ast.Value(True)), True)
        post = ctx.with_assignments({"f": 9})
        assert post.implies(st("s", ast.Value(1), ast.Value(True))) is None

    def test_empty_assignment_returns_self(self):
        ctx = EMPTY_CONTEXT.add(fv("f", 1), True)
        assert ctx.with_assignments({}) is ctx


class TestExprsCompare:
    def test_equal_constants(self):
        verdict, _ = EMPTY_CONTEXT.exprs_compare((ast.Value(1),), (ast.Value(1),))
        assert verdict is True

    def test_unequal_constants(self):
        verdict, _ = EMPTY_CONTEXT.exprs_compare((ast.Value(1),), (ast.Value(2),))
        assert verdict is False

    def test_arity_mismatch(self):
        verdict, _ = EMPTY_CONTEXT.exprs_compare(
            (ast.Value(1),), (ast.Value(1), ast.Value(2))
        )
        assert verdict is False

    def test_same_field(self):
        verdict, _ = EMPTY_CONTEXT.exprs_compare(
            (ast.Field("srcip"),), (ast.Field("srcip"),)
        )
        assert verdict is True

    def test_unknown_pair_returned(self):
        verdict, detail = EMPTY_CONTEXT.exprs_compare(
            (ast.Field("srcip"),), (ast.Field("dstip"),)
        )
        assert verdict is None
        assert detail is not None

    def test_vector_decided_elementwise(self):
        verdict, _ = EMPTY_CONTEXT.exprs_compare(
            (ast.Field("a"), ast.Value(1)), (ast.Field("a"), ast.Value(2))
        )
        assert verdict is False


class TestProjectedKey:
    """``projected_key(support)``: what an apply-cache entry is keyed by."""

    def test_unrelated_facts_drop_out(self):
        base = Context().add(fv("a", 1), True)
        noisy = base.add(fv("z", 9), False).add(fv("y", IPPrefix("10.0.0.0/8")), True)
        support = frozenset(("a", "b"))
        assert noisy.projected_key(support) == base.projected_key(support)
        assert noisy.projected_key(support) != Context().projected_key(support)
        assert noisy.projected_key(frozenset("q")) == Context().projected_key(
            frozenset("q")
        )

    def test_each_kind_of_fact_about_the_support_is_kept(self):
        support = frozenset(("a",))
        empty = Context().projected_key(support)
        for test, result in (
            (fv("a", 1), True), (fv("a", 1), False),
            (fv("a", IPPrefix("10.0.0.0/8")), True), (ff("a", "b"), True),
        ):
            assert Context().add(test, result).projected_key(support) != empty

    def test_equalities_pull_in_the_other_field(self):
        support = frozenset(("a",))
        linked = Context().add(ff("a", "b"), True).add(ff("b", "c"), True)
        assert linked.add(fv("c", 5), True).projected_key(support) != (
            linked.projected_key(support)
        )
        assert linked.add(fv("d", 5), True).projected_key(support) == (
            linked.projected_key(support)
        )

    def test_inequality_needs_both_ends(self):
        apart = Context().add(ff("a", "b"), False)
        assert apart.projected_key(frozenset(("a",))) == Context().projected_key(
            frozenset(("a",))
        )
        both = frozenset(("a", "b"))
        assert apart.projected_key(both) != Context().projected_key(both)

    def test_state_records_follow_their_variable(self):
        record = st("s", ast.Field("k"), ast.Value(True))
        ctx = Context().add(record, True)
        tests_s = frozenset((("s",),))
        assert ctx.projected_key(tests_s) != Context().projected_key(tests_s)
        # A field named like the variable is not the variable.
        assert ctx.projected_key(frozenset(("s",))) == Context().projected_key(
            frozenset(("s",))
        )
        # The record's index field comes with it: a fact about ``k``
        # decides whether ``s[k]`` and ``s[7]`` are the same cell.
        assert ctx.add(fv("k", 7), True).projected_key(tests_s) != (
            ctx.projected_key(tests_s)
        )
        assert ctx.add(fv("j", 7), True).projected_key(tests_s) == (
            ctx.projected_key(tests_s)
        )

    def test_memoised_per_context_and_support(self):
        ctx = Context().add(fv("a", 1), True)
        support = frozenset(("a",))
        assert ctx.projected_key(support) is ctx.projected_key(frozenset(("a",)))
