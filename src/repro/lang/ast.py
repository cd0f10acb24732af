"""Abstract syntax of SNAP (Figure 4 of the paper).

Expressions::

    e ::= v | f | (e1, ..., en)

Predicates (never modify packets or state; may *read* state)::

    x, y ::= id | drop | f = v | !x | x | y | x & y | s[e1] = e2

Policies::

    p, q ::= x | f <- v | p + q | p ; q | s[e1] <- e2
           | s[e]++ | s[e]-- | if x then p else q | atomic(p)

All nodes are immutable and hashable.  Python operator overloading gives
the NetCore-style combinator syntax used throughout tests and apps::

    (Test('dstip', prefix) & Test('srcport', 53)) >> Mod('outport', 6)
    policy_a + policy_b          # parallel composition
    policy_a >> policy_b         # sequential composition (';' in the paper)
    ~predicate                   # negation
"""

from __future__ import annotations

from repro.lang.errors import SnapError
from repro.lang.values import Symbol
from repro.util.ipaddr import IPPrefix

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _slot_reduce(node):
    """Pickle support for the immutable AST nodes.

    Every node's ``__init__`` takes exactly its *public* ``__slots__`` in
    order (and re-coercing an already-built sub-node is the identity), so
    rebuilding through the constructor round-trips — the default
    slot-state protocol would instead trip over the ``__setattr__``
    immutability guards.  Underscore-prefixed slots are derived caches
    (the ``_fingerprint`` digest), not constructor arguments; they are
    skipped and lazily recomputed on the unpickled node.
    """
    cls = type(node)
    args = tuple(
        getattr(node, name)
        for klass in cls.__mro__
        for name in getattr(klass, "__slots__", ())
        if not name.startswith("_")
    )
    return (cls, args)


class Expr:
    """Base class for index/value expressions (value, field, or vector)."""

    # ``_fingerprint`` caches the canonical structural digest computed by
    # :mod:`repro.lang.fingerprint`; it is derived state, never compared
    # or pickled.
    __slots__ = ("_fingerprint",)

    __reduce__ = _slot_reduce


class Value(Expr):
    """A literal value (int, bool, str, Symbol, IPPrefix)."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, Expr):
            raise SnapError("Value cannot wrap another expression")
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        return isinstance(other, Value) and other.value == self.value

    def __hash__(self):
        return hash(("Value", self.value))

    def __repr__(self):
        return f"Value({self.value!r})"

    def __setattr__(self, *args):  # immutability guard
        raise AttributeError("Value is immutable")


class Field(Expr):
    """A reference to a packet field, e.g. ``Field('srcip')``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        return isinstance(other, Field) and other.name == self.name

    def __hash__(self):
        return hash(("Field", self.name))

    def __repr__(self):
        return f"Field({self.name!r})"

    def __setattr__(self, *args):
        raise AttributeError("Field is immutable")


class Vector(Expr):
    """A vector of sub-expressions: multi-dimensional state indices."""

    __slots__ = ("items",)

    def __init__(self, items):
        items = tuple(as_expr(item) for item in items)
        if not items:
            raise SnapError("empty expression vector")
        object.__setattr__(self, "items", items)

    def __eq__(self, other):
        return isinstance(other, Vector) and other.items == self.items

    def __hash__(self):
        return hash(("Vector", self.items))

    def __repr__(self):
        return f"Vector({list(self.items)!r})"

    def __setattr__(self, *args):
        raise AttributeError("Vector is immutable")


def as_expr(value) -> Expr:
    """Coerce a Python value / field name shorthand into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (list, tuple)):
        return Vector(value)
    return Value(value)


def flatten_expr(expr: Expr) -> tuple:
    """Flatten an expression into a tuple of scalar (Value|Field) exprs."""
    if isinstance(expr, Vector):
        out = []
        for item in expr.items:
            out.extend(flatten_expr(item))
        return tuple(out)
    return (expr,)


# ---------------------------------------------------------------------------
# Policies (predicates are a subclass)
# ---------------------------------------------------------------------------


class Policy:
    """Base class for all SNAP policies."""

    # Cached structural digest (see :mod:`repro.lang.fingerprint`).
    __slots__ = ("_fingerprint",)

    __reduce__ = _slot_reduce

    def __add__(self, other):
        return Parallel(self, other)

    def __rshift__(self, other):
        return Seq(self, other)

    def __repr__(self):
        from repro.lang.pretty import pretty

        return f"<{type(self).__name__}: {pretty(self)}>"


class Predicate(Policy):
    """Policies that only pass/drop the packet (may read state)."""

    __slots__ = ()

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)


class Id(Predicate):
    """``id`` — pass the packet unchanged."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Id)

    def __hash__(self):
        return hash("Id")


class Drop(Predicate):
    """``drop`` — discard the packet."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Drop)

    def __hash__(self):
        return hash("Drop")


class Test(Predicate):
    """``f = v`` — pass iff field ``f`` matches value ``v``."""

    __slots__ = ("field", "value")

    def __init__(self, field: str, value):
        if isinstance(value, Expr):
            raise SnapError("Test value must be a literal; use FieldEq for f1=f2")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        return (
            isinstance(other, Test)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self):
        return hash(("Test", self.field, self.value))

    def __setattr__(self, *args):
        raise AttributeError("Test is immutable")


class Not(Predicate):
    """``!x`` — negation of a predicate."""

    __slots__ = ("pred",)

    def __init__(self, pred: Predicate):
        _require_predicate(pred, "!")
        object.__setattr__(self, "pred", pred)

    def __eq__(self, other):
        return isinstance(other, Not) and other.pred == self.pred

    def __hash__(self):
        return hash(("Not", self.pred))

    def __setattr__(self, *args):
        raise AttributeError("Not is immutable")


class And(Predicate):
    """``x & y`` — conjunction (reads of x, then reads of y)."""

    __slots__ = ("left", "right")

    def __init__(self, left: Predicate, right: Predicate):
        _require_predicate(left, "&")
        _require_predicate(right, "&")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        return (
            isinstance(other, And)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("And", self.left, self.right))

    def __setattr__(self, *args):
        raise AttributeError("And is immutable")


class Or(Predicate):
    """``x | y`` — disjunction."""

    __slots__ = ("left", "right")

    def __init__(self, left: Predicate, right: Predicate):
        _require_predicate(left, "|")
        _require_predicate(right, "|")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        return (
            isinstance(other, Or)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("Or", self.left, self.right))

    def __setattr__(self, *args):
        raise AttributeError("Or is immutable")


class StateTest(Predicate):
    """``s[e1] = e2`` — pass iff state variable ``s`` at ``e1`` equals ``e2``."""

    __slots__ = ("var", "index", "value")

    def __init__(self, var: str, index, value):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "index", as_expr(index))
        object.__setattr__(self, "value", as_expr(value))

    def __eq__(self, other):
        return (
            isinstance(other, StateTest)
            and other.var == self.var
            and other.index == self.index
            and other.value == self.value
        )

    def __hash__(self):
        return hash(("StateTest", self.var, self.index, self.value))

    def __setattr__(self, *args):
        raise AttributeError("StateTest is immutable")


class Mod(Policy):
    """``f <- v`` — set field ``f`` to literal value ``v``."""

    __slots__ = ("field", "value")

    def __init__(self, field: str, value):
        if isinstance(value, Expr):
            raise SnapError("field modification rhs must be a literal value")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        return (
            isinstance(other, Mod)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self):
        return hash(("Mod", self.field, self.value))

    def __setattr__(self, *args):
        raise AttributeError("Mod is immutable")


class StateMod(Policy):
    """``s[e1] <- e2`` — write ``e2`` into state variable ``s`` at ``e1``."""

    __slots__ = ("var", "index", "value")

    def __init__(self, var: str, index, value):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "index", as_expr(index))
        object.__setattr__(self, "value", as_expr(value))

    def __eq__(self, other):
        return (
            isinstance(other, StateMod)
            and other.var == self.var
            and other.index == self.index
            and other.value == self.value
        )

    def __hash__(self):
        return hash(("StateMod", self.var, self.index, self.value))

    def __setattr__(self, *args):
        raise AttributeError("StateMod is immutable")


class StateIncr(Policy):
    """``s[e]++`` — increment the counter at ``s[e]``."""

    __slots__ = ("var", "index")

    def __init__(self, var: str, index):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "index", as_expr(index))

    def __eq__(self, other):
        return (
            isinstance(other, StateIncr)
            and other.var == self.var
            and other.index == self.index
        )

    def __hash__(self):
        return hash(("StateIncr", self.var, self.index))

    def __setattr__(self, *args):
        raise AttributeError("StateIncr is immutable")


class StateDecr(Policy):
    """``s[e]--`` — decrement the counter at ``s[e]``."""

    __slots__ = ("var", "index")

    def __init__(self, var: str, index):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "index", as_expr(index))

    def __eq__(self, other):
        return (
            isinstance(other, StateDecr)
            and other.var == self.var
            and other.index == self.index
        )

    def __hash__(self):
        return hash(("StateDecr", self.var, self.index))

    def __setattr__(self, *args):
        raise AttributeError("StateDecr is immutable")


class Parallel(Policy):
    """``p + q`` — copy the packet and run both branches."""

    __slots__ = ("left", "right")

    def __init__(self, left: Policy, right: Policy):
        _require_policy(left, "+")
        _require_policy(right, "+")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        return (
            isinstance(other, Parallel)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("Parallel", self.left, self.right))

    def __setattr__(self, *args):
        raise AttributeError("Parallel is immutable")


class Seq(Policy):
    """``p ; q`` — run p, then q on each of p's outputs."""

    __slots__ = ("left", "right")

    def __init__(self, left: Policy, right: Policy):
        _require_policy(left, ";")
        _require_policy(right, ";")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        return (
            isinstance(other, Seq)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("Seq", self.left, self.right))

    def __setattr__(self, *args):
        raise AttributeError("Seq is immutable")


class If(Policy):
    """``if x then p else q`` — explicit conditional."""

    __slots__ = ("pred", "then", "orelse")

    def __init__(self, pred: Predicate, then: Policy, orelse: Policy):
        _require_predicate(pred, "if")
        _require_policy(then, "then")
        _require_policy(orelse, "else")
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "then", then)
        object.__setattr__(self, "orelse", orelse)

    def __eq__(self, other):
        return (
            isinstance(other, If)
            and other.pred == self.pred
            and other.then == self.then
            and other.orelse == self.orelse
        )

    def __hash__(self):
        return hash(("If", self.pred, self.then, self.orelse))

    def __setattr__(self, *args):
        raise AttributeError("If is immutable")


class Atomic(Policy):
    """``atomic(p)`` — network transaction: all state in p is co-located."""

    __slots__ = ("body",)

    def __init__(self, body: Policy):
        _require_policy(body, "atomic")
        object.__setattr__(self, "body", body)

    def __eq__(self, other):
        return isinstance(other, Atomic) and other.body == self.body

    def __hash__(self):
        return hash(("Atomic", self.body))

    def __setattr__(self, *args):
        raise AttributeError("Atomic is immutable")


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def _require_predicate(x, op: str) -> None:
    if not isinstance(x, Predicate):
        raise SnapError(f"operand of {op!r} must be a predicate, got {type(x).__name__}")


def _require_policy(p, op: str) -> None:
    if not isinstance(p, Policy):
        raise SnapError(f"operand of {op!r} must be a policy, got {type(p).__name__}")


#: The nodes with policy operands: each one's ``__slots__`` are exactly its
#: operands, in constructor order.  Every other node is a leaf.
COMPOSITE = (Not, And, Or, Parallel, Seq, If, Atomic)

#: The leaves that access a state variable: their slots start ``var, index``.
STATE_ACCESS = (StateTest, StateMod, StateIncr, StateDecr)

#: Operand slot names by exact class: the walkers' dispatch table.
_OPERANDS = {cls: cls.__slots__ for cls in COMPOSITE}


def walk(policy: Policy) -> list:
    """Every node of ``policy``, parents first, operands left to right."""
    nodes, stack = [], [policy]
    while stack:
        node = stack.pop()
        nodes.append(node)
        for name in reversed(_OPERANDS.get(type(node), ())):
            stack.append(getattr(node, name))
    return nodes


def rebuild(policy: Policy, leaf) -> Policy:
    """A new ``policy`` with the same composite nodes and each leaf
    replaced by ``leaf(node)``."""
    names = _OPERANDS.get(type(policy))
    if names is None:
        return leaf(policy)
    return type(policy)(*(rebuild(getattr(policy, name), leaf) for name in names))


def retarget(node: Policy, var: str, index=None) -> Policy:
    """The state access ``node`` on ``var`` instead (and at ``index``, if given)."""
    rest = (getattr(node, name) for name in node.__slots__[2:])
    return type(node)(var, node.index if index is None else index, *rest)


def state_reads(policy: Policy) -> frozenset:
    """r(p): names of state variables the policy may read (Appendix B)."""
    return frozenset(
        node.var for node in walk(policy) if isinstance(node, StateTest)
    )


def state_writes(policy: Policy) -> frozenset:
    """w(p): names of state variables the policy may write (Appendix B)."""
    return frozenset(
        node.var
        for node in walk(policy)
        if isinstance(node, (StateMod, StateIncr, StateDecr))
    )


def state_variables(policy: Policy) -> frozenset:
    """All state variables the policy touches."""
    return frozenset(
        node.var for node in walk(policy) if isinstance(node, STATE_ACCESS)
    )


def infer_state_defaults(policy: Policy) -> dict:
    """Guess sensible defaults for each state variable in the policy.

    Variables that are incremented/decremented default to 0; variables only
    written/tested with booleans default to False; anything else defaults
    to None (the "absent" value).  Programs can override via
    ``Program.state_defaults``.
    """
    numeric: set[str] = set()
    boolean: set[str] = set()
    other: set[str] = set()
    for node in walk(policy):
        if isinstance(node, (StateIncr, StateDecr)):
            numeric.add(node.var)
        elif isinstance(node, (StateMod, StateTest)):
            val = node.value
            if isinstance(val, Value) and isinstance(val.value, bool):
                boolean.add(node.var)
            elif isinstance(val, Value) and isinstance(val.value, int):
                numeric.add(node.var)
            else:
                other.add(node.var)
    defaults = {}
    for name in numeric | boolean | other:
        if name in numeric:
            defaults[name] = 0
        elif name in boolean:
            defaults[name] = False
        else:
            defaults[name] = None
    return defaults


def seq_all(policies) -> Policy:
    """Fold a list with ``;`` (identity for the empty list)."""
    policies = list(policies)
    if not policies:
        return Id()
    result = policies[0]
    for policy in policies[1:]:
        result = Seq(result, policy)
    return result


def par_all(policies) -> Policy:
    """Fold a list with ``+`` (drop for the empty list)."""
    policies = list(policies)
    if not policies:
        return Drop()
    result = policies[0]
    for policy in policies[1:]:
        result = Parallel(result, policy)
    return result


__all__ = [
    "Expr",
    "Value",
    "Field",
    "Vector",
    "as_expr",
    "flatten_expr",
    "Policy",
    "Predicate",
    "Id",
    "Drop",
    "Test",
    "Not",
    "And",
    "Or",
    "StateTest",
    "Mod",
    "StateMod",
    "StateIncr",
    "StateDecr",
    "Parallel",
    "Seq",
    "If",
    "Atomic",
    "COMPOSITE",
    "STATE_ACCESS",
    "walk",
    "rebuild",
    "retarget",
    "state_reads",
    "state_writes",
    "state_variables",
    "infer_state_defaults",
    "seq_all",
    "par_all",
    "Symbol",
    "IPPrefix",
]
