"""xFDD leaf actions (Figure 6)::

    a ::= id | drop | f <- v | s[e1] <- e2 | s[e1]++ | s[e1]--

``id`` is the empty action sequence and ``drop`` the empty *leaf*, so only
the three effectful actions are materialized.  Action sequences are tuples
of actions, executed left to right; expressions are flattened scalar
tuples, exactly as in :mod:`repro.xfdd.tests`.
"""

from __future__ import annotations

from repro.lang import ast
from repro.xfdd.tests import flatten


def substitute_scalar(expr, resolver):
    """Replace a Field with a Value when ``resolver(name)`` knows it."""
    if isinstance(expr, ast.Field):
        value = resolver(expr.name)
        if value is not None:
            return ast.Value(value)
    return expr


def substitute_exprs(exprs: tuple, resolver) -> tuple:
    return tuple(substitute_scalar(e, resolver) for e in exprs)


class Action:
    """Base class for leaf actions."""

    __slots__ = ()


class DropAction(Action):
    """``drop`` — terminates an action sequence; prior state writes persist.

    Appendix A's semantics threads the store through ``p ; drop``: the
    packet dies but p's writes remain.  A sequence therefore may end with
    ``drop``, keeping its state effects while emitting no packet.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def writes_state(self):
        return None

    def __eq__(self, other):
        return isinstance(other, DropAction)

    def __hash__(self):
        return hash("DropAction")

    def __repr__(self):
        return "drop"


DROP_ACTION = DropAction()


class FieldAssign(Action):
    """``f <- v``."""

    __slots__ = ("field", "value", "_hash")

    def __init__(self, field: str, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("FA", field, value)))

    def writes_state(self):
        return None

    def __eq__(self, other):
        return (
            isinstance(other, FieldAssign)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.field}<-{self.value}"

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class StateAssign(Action):
    """``s[e1] <- e2``."""

    __slots__ = ("var", "index", "value", "_hash")

    def __init__(self, var: str, index, value):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "index", flatten(index))
        object.__setattr__(self, "value", flatten(value))
        object.__setattr__(self, "_hash", hash(("SA", var, self.index, self.value)))

    def writes_state(self):
        return self.var

    def __eq__(self, other):
        return (
            isinstance(other, StateAssign)
            and other.var == self.var
            and other.index == self.index
            and other.value == self.value
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        idx = "][".join(str(e) for e in self.index)
        val = ",".join(str(e) for e in self.value)
        return f"{self.var}[{idx}]<-{val}"

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class StateDelta(Action):
    """``s[e]++`` (delta=+1) or ``s[e]--`` (delta=-1)."""

    __slots__ = ("var", "index", "delta", "_hash")

    def __init__(self, var: str, index, delta: int):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "index", flatten(index))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "_hash", hash(("SD", var, self.index, delta)))

    def writes_state(self):
        return self.var

    def __eq__(self, other):
        return (
            isinstance(other, StateDelta)
            and other.var == self.var
            and other.index == self.index
            and other.delta == self.delta
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        idx = "][".join(str(e) for e in self.index)
        op = "++" if self.delta > 0 else "--"
        return f"{self.var}[{idx}]{op}"

    def __setattr__(self, *a):
        raise AttributeError("immutable")


def seq_written_vars(seq: tuple) -> frozenset:
    """State variables written by one action sequence."""
    return frozenset(a.writes_state() for a in seq if a.writes_state() is not None)


def seq_read_fields(seq: tuple) -> frozenset:
    """Packet fields the sequence's state actions index or store."""
    return frozenset(
        e.name
        for a in seq if a.writes_state() is not None
        for e in a.index + getattr(a, "value", ())
        if isinstance(e, ast.Field)
    )


def field_map(seq: tuple) -> dict:
    """Algorithm 2 ``field-map``: net field assignments of a sequence."""
    fmap: dict = {}
    for action in seq:
        if isinstance(action, DropAction):
            break
        if isinstance(action, FieldAssign):
            fmap[action.field] = action.value
    return fmap


def state_ops_substituted(seq: tuple, var: str):
    """Algorithm 3 ``filter``: ops on ``var`` with incremental substitution.

    Walks the sequence maintaining the field assignments seen *so far* and
    substitutes them into each state operation's index/value expressions,
    so the returned ops are expressed over the packet as it was at the
    *start* of the sequence.  Returns ops in program order.
    """
    fmap: dict = {}
    ops = []
    for action in seq:
        if isinstance(action, DropAction):
            break
        if isinstance(action, FieldAssign):
            fmap[action.field] = action.value
        elif isinstance(action, StateAssign) and action.var == var:
            resolver = fmap.get
            ops.append(
                StateAssign(
                    var,
                    substitute_exprs(action.index, resolver),
                    substitute_exprs(action.value, resolver),
                )
            )
        elif isinstance(action, StateDelta) and action.var == var:
            resolver = fmap.get
            ops.append(
                StateDelta(var, substitute_exprs(action.index, resolver), action.delta)
            )
    return ops
