"""xFDD test nodes (Figure 6)::

    t ::= f = v | f1 = f2 | s[e1] = e2

Field-value tests come from the source program; field-field tests are
generated during sequential composition to answer index-equality questions
(§4.2); state tests guard reads of state variables.  Index and value
expressions are stored *flattened* — tuples of scalar ``ast.Field`` /
``ast.Value`` expressions — which makes the element-wise ``eequal``
comparison of Appendix E straightforward.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import SnapError
from repro.lang.values import value_sort_key


def flatten(expr) -> tuple:
    """Flatten an AST expression (or raw value) to a tuple of scalars."""
    expr = ast.as_expr(expr)
    parts = ast.flatten_expr(expr)
    for part in parts:
        if not isinstance(part, (ast.Field, ast.Value)):
            raise SnapError(f"cannot flatten expression component {part!r}")
    return parts


def expr_key(expr) -> tuple:
    """Deterministic sort key for a scalar expression."""
    if isinstance(expr, ast.Field):
        return (0, expr.name)
    return (1, value_sort_key(expr.value))


def exprs_key(exprs: tuple) -> tuple:
    return tuple(expr_key(e) for e in exprs)


class XTest:
    """Base class of xFDD tests."""

    __slots__ = ()

    def support(self) -> frozenset:
        """Field names and ``(state variable,)`` 1-tuples the test reads."""
        raise NotImplementedError


class FieldValueTest(XTest):
    """``f = v`` — the packet's field ``f`` matches value ``v``."""

    __slots__ = ("field", "value", "_hash")

    def __init__(self, field: str, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("FV", field, value)))

    def __eq__(self, other):
        return (
            isinstance(other, FieldValueTest)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self):
        return self._hash

    def support(self):
        return frozenset((self.field,))

    def __repr__(self):
        return f"{self.field}={self.value}"

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class FieldFieldTest(XTest):
    """``f1 = f2`` — two packet fields hold equal values.

    Canonicalized so ``field1 <= field2`` lexicographically; the test is
    symmetric.
    """

    __slots__ = ("field1", "field2", "_hash")

    def __init__(self, field1: str, field2: str):
        if field1 == field2:
            raise SnapError("trivial field-field test; caller should fold it")
        if field2 < field1:
            field1, field2 = field2, field1
        object.__setattr__(self, "field1", field1)
        object.__setattr__(self, "field2", field2)
        object.__setattr__(self, "_hash", hash(("FF", field1, field2)))

    def __eq__(self, other):
        return (
            isinstance(other, FieldFieldTest)
            and other.field1 == self.field1
            and other.field2 == self.field2
        )

    def __hash__(self):
        return self._hash

    def support(self):
        return frozenset((self.field1, self.field2))

    def __repr__(self):
        return f"{self.field1}={self.field2}"

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class StateVarTest(XTest):
    """``s[e1] = e2`` — state variable ``s`` at index ``e1`` equals ``e2``."""

    __slots__ = ("var", "index", "value", "_hash")

    def __init__(self, var: str, index, value):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "index", flatten(index))
        object.__setattr__(self, "value", flatten(value))
        object.__setattr__(self, "_hash", hash(("ST", var, self.index, self.value)))

    def __eq__(self, other):
        return (
            isinstance(other, StateVarTest)
            and other.var == self.var
            and other.index == self.index
            and other.value == self.value
        )

    def __hash__(self):
        return self._hash

    def support(self):
        fields = [
            e.name for e in self.index + self.value if isinstance(e, ast.Field)
        ]
        return frozenset(fields + [(self.var,)])

    def __repr__(self):
        idx = "][".join(str(e) for e in self.index)
        val = ",".join(str(e) for e in self.value)
        return f"{self.var}[{idx}]={val}"

    def __setattr__(self, *a):
        raise AttributeError("immutable")
