"""Translating SNAP policies to xFDDs — ``to-xfdd`` of Figure 6::

    to-xfdd(a)                    = {a}
    to-xfdd(f = v)                = f = v ? {id} : {drop}
    to-xfdd(!x)                   = ⊖ to-xfdd(x)
    to-xfdd(s[e1] = e2)           = s[e1] = e2 ? {id} : {drop}
    to-xfdd(atomic(p))            = to-xfdd(p)
    to-xfdd(p + q)                = to-xfdd(p) ⊕ to-xfdd(q)
    to-xfdd(p ; q)                = to-xfdd(p) ⊙ to-xfdd(q)
    to-xfdd(if x then p else q)   = (to-xfdd(x) ⊙ to-xfdd(p))
                                    ⊕ (⊖ to-xfdd(x) ⊙ to-xfdd(q))

Conjunction and disjunction of predicates translate through ⊙ and ⊕.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import SnapError
from repro.lang.fields import DEFAULT_REGISTRY, FieldRegistry
from repro.xfdd.actions import FieldAssign, StateAssign, StateDelta
from repro.xfdd.compose import Composer
from repro.xfdd.diagram import DROP, IDENTITY, XFDD
from repro.xfdd.order import TestOrder
from repro.xfdd.tests import FieldValueTest, StateVarTest


def to_xfdd(policy: ast.Policy, composer: Composer, translate=None) -> XFDD:
    """Translate a policy using the given composition engine.

    Nodes are built through ``composer.factory``, so the whole translation
    lives in one hash-consing session.  Sub-policies are translated by
    ``translate`` (default: ``to_xfdd`` itself, on the same composer); a
    :class:`~repro.xfdd.incremental.CompileSession` passes its memoised
    build, so each composite child goes through its memo.
    """
    if translate is None:
        def translate(sub):
            return to_xfdd(sub, composer, translate)

    factory = composer.factory
    if isinstance(policy, ast.Id):
        return IDENTITY
    if isinstance(policy, ast.Drop):
        return DROP
    if isinstance(policy, ast.Test):
        return factory.branch(
            FieldValueTest(policy.field, policy.value), IDENTITY, DROP
        )
    if isinstance(policy, ast.StateTest):
        test = StateVarTest(policy.var, policy.index, policy.value)
        return factory.branch(test, IDENTITY, DROP)
    if isinstance(policy, ast.Not):
        return composer.negate(translate(policy.pred))
    if isinstance(policy, (ast.And, ast.Seq)):
        return composer.sequence(translate(policy.left), translate(policy.right))
    if isinstance(policy, (ast.Or, ast.Parallel)):
        return composer.union(translate(policy.left), translate(policy.right))
    if isinstance(policy, ast.Mod):
        return factory.leaf([(FieldAssign(policy.field, policy.value),)])
    if isinstance(policy, ast.StateMod):
        return factory.leaf([(StateAssign(policy.var, policy.index, policy.value),)])
    if isinstance(policy, ast.StateIncr):
        return factory.leaf([(StateDelta(policy.var, policy.index, +1),)])
    if isinstance(policy, ast.StateDecr):
        return factory.leaf([(StateDelta(policy.var, policy.index, -1),)])
    if isinstance(policy, ast.If):
        guard = translate(policy.pred)
        then_d = composer.sequence(guard, translate(policy.then))
        else_d = composer.sequence(composer.negate(guard), translate(policy.orelse))
        return composer.union(then_d, else_d)
    if isinstance(policy, ast.Atomic):
        return translate(policy.body)
    raise SnapError(f"cannot translate {policy!r} to an xFDD")


def build_xfdd(
    policy: ast.Policy,
    registry: FieldRegistry | None = None,
    state_rank: dict | None = None,
) -> XFDD:
    """Convenience entry point: compute the test order and translate.

    When ``state_rank`` is omitted the dependency analysis supplies it
    (§4.2: the state-test order derives from the dependency graph).
    """
    if state_rank is None:
        from repro.analysis.dependency import analyze_dependencies

        state_rank = analyze_dependencies(policy).state_rank
    order = TestOrder(registry or DEFAULT_REGISTRY, state_rank)
    return to_xfdd(policy, Composer(order))
