"""The total order on xFDD tests (§4.2).

"We ensure that all field-value tests precede all field-field tests,
themselves preceding all state tests.  Field-value tests themselves are
ordered by fixing an arbitrary order on fields and values. ... For state
tests, we first define a total order on state variables by looking at the
dependency graph ... break the dependency graph into strongly connected
components (SCCs) and fix an arbitrary order on state variables within
each SCC" — with SCC edges respected.

The field order comes from the :class:`~repro.lang.fields.FieldRegistry`;
the state-variable order is supplied by the dependency analysis
(:func:`repro.analysis.dependency.state_order`).
"""

from __future__ import annotations

from repro.lang.errors import SnapError
from repro.lang.fields import DEFAULT_REGISTRY, FieldRegistry
from repro.lang.values import value_sort_key
from repro.xfdd.tests import FieldFieldTest, FieldValueTest, StateVarTest, XTest, exprs_key


class TestOrder:
    """Total order over tests: FV < FF < state; see module docstring."""

    __test__ = False  # not a pytest class, whatever module imports it

    def __init__(self, registry: FieldRegistry | None = None, state_rank: dict | None = None):
        self.registry = registry or DEFAULT_REGISTRY
        self.state_rank = dict(state_rank or {})
        self._key_memo: dict = {}

    def _field_rank(self, name: str) -> tuple:
        if name in self.registry:
            return (0, self.registry.rank(name))
        # Unregistered fields sort after registered ones, by name.
        return (1, name)

    def _state_var_rank(self, var: str) -> tuple:
        if var in self.state_rank:
            return (0, self.state_rank[var], var)
        return (1, 0, var)

    def key(self, test: XTest) -> tuple:
        """Memoized per test object: composition compares the same few
        interned tests millions of times in deep recursions."""
        memo = self._key_memo
        key = memo.get(test)
        if key is None:
            key = self._key(test)
            memo[test] = key
        return key

    def _key(self, test: XTest) -> tuple:
        if isinstance(test, FieldValueTest):
            return (0, self._field_rank(test.field), value_sort_key(test.value))
        if isinstance(test, FieldFieldTest):
            return (1, self._field_rank(test.field1), self._field_rank(test.field2))
        if isinstance(test, StateVarTest):
            return (
                2,
                self._state_var_rank(test.var),
                exprs_key(test.index),
                exprs_key(test.value),
            )
        raise SnapError(f"cannot order test {test!r}")

    def lt(self, t1: XTest, t2: XTest) -> bool:
        return self.key(t1) < self.key(t2)


def trivial_order() -> TestOrder:
    """An order with no state-dependency information (tests/microbenches)."""
    return TestOrder()
