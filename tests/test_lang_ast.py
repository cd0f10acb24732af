"""The policy AST's shape: ``ast.COMPOSITE`` and the walkers built on it.

``walk``, ``rebuild`` and ``retarget`` read every node through its
``__slots__``, so the declaration has to be complete: a composite's slots
are exactly its policy operands, in constructor order, and no leaf holds a
policy.  ``fingerprint`` encodes the same public-slot convention, which
gives an independent preorder to hold ``walk`` to.
"""

import inspect

import pytest

from repro.apps import ALL_APPS
from repro.lang import ast
from repro.lang.fingerprint import _slot_names, fingerprint


def _every_class():
    """One hand-built policy holding every concrete node class."""
    count = ast.StateIncr("c", ast.Field("srcip"))
    return ast.Atomic(ast.If(
        ast.Not(ast.And(ast.Test("dstport", 53), ast.Or(ast.Id(), ast.Drop()))),
        ast.Seq(ast.StateMod("s", ("srcip", 1), True), count),
        ast.Parallel(
            ast.Seq(ast.StateTest("s", ("srcip", 1), True), ast.Mod("outport", 2)),
            ast.StateDecr("c", ast.Field("srcip")),
        ),
    ))


SAMPLES = {
    "every-class": _every_class,
    **{name: (lambda make=make: make().policy) for name, make in ALL_APPS.items()},
}


def _concrete_classes():
    classes, stack = [], [ast.Policy]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls not in (ast.Policy, ast.Predicate):
            classes.append(cls)
    return classes


def _preorder(node):
    """Nodes under ``node`` through its public slots, as fingerprint reads them."""
    nodes = [node]
    for name in _slot_names(type(node)):
        if isinstance(value := getattr(node, name), ast.Policy):
            nodes.extend(_preorder(value))
    return nodes


class TestShapeDeclaration:
    def test_composite_slots_are_the_constructor_operands(self):
        for cls in ast.COMPOSITE:
            params = list(inspect.signature(cls).parameters)
            assert params == list(cls.__slots__), cls.__name__

    def test_every_class_is_composite_or_a_leaf(self):
        seen = set()
        for make in SAMPLES.values():
            for node in ast.walk(make()):
                seen.add(type(node))
                values = [getattr(node, name) for name in _slot_names(type(node))]
                policies = [v for v in values if isinstance(v, ast.Policy)]
                if type(node) in ast.COMPOSITE:
                    assert policies == values, type(node).__name__
                else:
                    assert not policies, type(node).__name__
        assert seen == set(_concrete_classes())

    def test_state_access_slots_start_var_index(self):
        for cls in ast.STATE_ACCESS:
            assert cls.__slots__[:2] == ("var", "index"), cls.__name__

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_rebuild_and_walk_follow_the_slots(self, name):
        policy = SAMPLES[name]()
        copy = ast.rebuild(policy, lambda node: node)
        assert copy == policy and copy is not policy
        assert fingerprint(copy) == fingerprint(policy)
        assert list(map(id, ast.walk(policy))) == list(map(id, _preorder(policy)))


class TestRetarget:
    def test_keeps_every_other_slot(self):
        for node in ast.walk(_every_class()):
            if isinstance(node, ast.STATE_ACCESS):
                moved = ast.retarget(node, "t")
                assert type(moved) is type(node) and moved.var == "t"
                assert ast.retarget(moved, node.var) == node
                assert ast.retarget(node, "t", ast.Value(0)).index == ast.Value(0)
