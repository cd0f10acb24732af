"""Path context for xFDD composition (Figure 8 / Appendix E).

While composing diagrams, we walk paths accumulating the tests seen so far
("context" in Figure 8, "T" in Algorithm 1).  The context answers three
questions:

* ``implies(test)`` — does the path already decide this test?  (the
  ``inferred`` helper of Algorithm 1; used by ``refine`` in Figure 8)
* ``resolve(field)`` — is the field's exact value known?  (the ``value``
  helper)
* ``add(test, result)`` / ``with_assignments(fmap)`` — extend the context
  with a new test outcome, or re-base it past a block of field
  assignments (the ``update`` helper).

Contexts are immutable; ``add`` returns a new context.  They are small
(path depth), so the closure computations below are deliberately simple.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import SnapError
from repro.lang.values import matches, value_implies, values_disjoint
from repro.util.ipaddr import IPPrefix
from repro.xfdd.tests import FieldFieldTest, FieldValueTest, StateVarTest, XTest


class _ContextKey:
    """A context's cache key with its hash computed exactly once.

    Apply-cache lookups hash the key on every probe; precomputing keeps a
    probe O(1) instead of re-hashing the full constraint tuple (which may
    contain IP prefixes, vectors, ...).
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple):
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (
            isinstance(other, _ContextKey) and self.parts == other.parts
        )

    def __repr__(self):
        return f"_ContextKey({self.parts!r})"


#: Per-context cap on memoized ``add``/``with_assignments`` children; above
#: this a context simply stops deduplicating (correctness is unaffected).
_CHILD_MEMO_LIMIT = 1024


class Context:
    __slots__ = (
        "exact", "pos", "neg", "eq_pairs", "neq_pairs", "state",
        "_projected", "_implies_memo", "_children",
    )

    def __init__(
        self,
        exact=None,
        pos=None,
        neg=None,
        eq_pairs=frozenset(),
        neq_pairs=frozenset(),
        state=(),
    ):
        # Owned, never mutated: extensions copy only the table they change.
        self.exact = exact if exact is not None else {}
        self.pos = pos if pos is not None else {}
        self.neg = neg if neg is not None else {}
        self.eq_pairs = eq_pairs
        self.neq_pairs = neq_pairs
        self.state = state
        self._projected: dict = {}
        self._implies_memo: dict = {}
        self._children: dict = {}

    def projected_key(self, support: frozenset) -> _ContextKey:
        """A hashable key over the facts that can matter below ``support``.

        ``support`` is what the operands of one composition step test:
        field names and ``(state variable,)`` 1-tuples (see
        :func:`repro.xfdd.diagram.Branch`).  The step asks this context
        only about those — ``implies`` on their tests, ``resolve`` on the
        fields of their expressions — and every fact it adds on the way
        down is again about them, so two contexts whose *projections*
        onto the support agree compose to the same node.  The projection
        keeps the state records of supported variables, and the
        constraints of every supported field, every field those records
        mention, and every field this context knows equal to one of
        them.  An ancestor fact about anything else — the reason a clean
        subtree used to miss under an edited spine — is not in the key.
        Memoized per (immutable) context and support.
        """
        key = self._projected.get(support)
        if key is None:
            key = self._projected[support] = self._project(support)
        return key

    def _project(self, support: frozenset) -> _ContextKey:
        state = tuple(rec for rec in self.state if (rec[0],) in support)
        fields = set(support)  # its ``(var,)`` members are inert below
        for _, index, value, _ in state:
            fields.update(e.name for e in index + value if isinstance(e, ast.Field))
        eq_pairs, neq_pairs = self.eq_pairs, self.neq_pairs
        grew = bool(eq_pairs)
        while grew:  # close over the known field-field equalities
            grew = False
            for a, b in eq_pairs:
                if (a in fields) != (b in fields):
                    fields.update((a, b))
                    grew = True
        return _ContextKey((
            *(
                tuple(sorted(kv for kv in table.items() if kv[0] in fields))
                for table in (self.exact, self.pos, self.neg)
            ),
            eq_pairs and frozenset(p for p in eq_pairs if p[0] in fields),
            neq_pairs and frozenset(
                p for p in neq_pairs if p[0] in fields and p[1] in fields
            ),
            state,
        ))

    # -- equality classes over fields --------------------------------------

    def _eq_class(self, field: str) -> frozenset:
        members = {field}
        changed = True
        while changed:
            changed = False
            for a, b in self.eq_pairs:
                if a in members and b not in members:
                    members.add(b)
                    changed = True
                elif b in members and a not in members:
                    members.add(a)
                    changed = True
        return frozenset(members)

    def resolve(self, field: str):
        """The exact value of ``field`` on this path, or None."""
        if field in self.exact:
            return self.exact[field]
        for member in self._eq_class(field):
            if member in self.exact:
                return self.exact[member]
        return None

    def resolve_expr(self, expr):
        """Substitute a scalar expression to a Value when resolvable."""
        if isinstance(expr, ast.Field):
            value = self.resolve(expr.name)
            if value is not None:
                return ast.Value(value)
        return expr

    def resolve_exprs(self, exprs: tuple) -> tuple:
        return tuple(self.resolve_expr(e) for e in exprs)

    # -- implication --------------------------------------------------------

    def _class_constraints(self, field: str):
        """Merged positive/negative constraints across the eq-class."""
        pos: list = []
        neg: list = []
        for member in self._eq_class(field):
            pos.extend(self.pos.get(member, ()))
            neg.extend(self.neg.get(member, ()))
        return pos, neg

    def _implies_fv(self, field: str, value):
        known = self.resolve(field)
        if known is not None:
            return matches(known, value)
        pos, neg = self._class_constraints(field)
        for constraint in pos:
            if value_implies(constraint, value):
                return True
            if values_disjoint(constraint, value):
                return False
        for excluded in neg:
            if value_implies(value, excluded):
                return False
        return None

    def _fields_unequal(self, f1: str, f2: str) -> bool:
        class1 = self._eq_class(f1)
        class2 = self._eq_class(f2)
        for a, b in self.neq_pairs:
            if (a in class1 and b in class2) or (a in class2 and b in class1):
                return True
        return False

    def _implies_ff(self, f1: str, f2: str):
        if f1 == f2 or f2 in self._eq_class(f1):
            return True
        if self._fields_unequal(f1, f2):
            return False
        v1 = self.resolve(f1)
        v2 = self.resolve(f2)
        if v1 is not None and v2 is not None:
            return v1 == v2
        if v1 is not None:
            return self._implies_fv(f2, v1)
        if v2 is not None:
            return self._implies_fv(f1, v2)
        pos1, _ = self._class_constraints(f1)
        pos2, _ = self._class_constraints(f2)
        for c1 in pos1:
            for c2 in pos2:
                if values_disjoint(c1, c2):
                    return False
        return None

    def exprs_compare(self, exprs1: tuple, exprs2: tuple):
        """Element-wise comparison of two flattened expression tuples.

        Returns ``(verdict, detail)`` where verdict is True (surely equal),
        False (surely unequal), or None (undecided); detail is the first
        undecided element pair (for generating a split test).
        """
        if len(exprs1) != len(exprs2):
            return False, None
        for e1, e2 in zip(exprs1, exprs2):
            r1 = self.resolve_expr(e1)
            r2 = self.resolve_expr(e2)
            if isinstance(r1, ast.Value) and isinstance(r2, ast.Value):
                if r1.value == r2.value:
                    continue
                return False, None
            if isinstance(r1, ast.Field) and isinstance(r2, ast.Field):
                verdict = self._implies_ff(r1.name, r2.name)
            elif isinstance(r1, ast.Field):
                verdict = self._implies_fv(r1.name, r2.value)
            else:
                verdict = self._implies_fv(r2.name, r1.value)
            if verdict is True:
                continue
            if verdict is False:
                return False, None
            return None, (r1, r2)
        return True, None

    def _implies_state(self, test: StateVarTest):
        for var, index, value, result in self.state:
            if var != test.var:
                continue
            idx_verdict, _ = self.exprs_compare(index, test.index)
            if idx_verdict is not True:
                continue
            val_verdict, _ = self.exprs_compare(value, test.value)
            if val_verdict is True:
                return result
            if val_verdict is False and result is True:
                # s[i] = v' holds and v' != v, so s[i] = v is false.
                return False
        return None

    def implies(self, test: XTest):
        """True/False when the path decides the test; None otherwise.

        Memoized per context: ``refine`` asks the same questions of the
        same (immutable) context many times while walking sibling subtrees.
        """
        memo = self._implies_memo
        if test in memo:
            return memo[test]
        if isinstance(test, FieldValueTest):
            verdict = self._implies_fv(test.field, test.value)
        elif isinstance(test, FieldFieldTest):
            verdict = self._implies_ff(test.field1, test.field2)
        elif isinstance(test, StateVarTest):
            verdict = self._implies_state(test)
        else:
            raise SnapError(f"cannot reason about test {test!r}")
        memo[test] = verdict
        return verdict

    # -- extension -----------------------------------------------------------

    def add(self, test: XTest, result: bool) -> "Context":
        """Extend the context with a test outcome.

        Children are memoized per parent: composition descends into the
        same ``(test, result)`` extension of the same context many times
        (sibling subtrees, repeated apply-cache probes), and returning the
        cached child also returns its warm ``implies`` memo and cache key.
        """
        memo_key = (test, result)
        child = self._children.get(memo_key)
        if child is not None:
            return child
        child = self._extend(test, result)
        if len(self._children) < _CHILD_MEMO_LIMIT:
            self._children[memo_key] = child
        return child

    def _extend(self, test: XTest, result: bool) -> "Context":
        exact, pos, neg = self.exact, self.pos, self.neg
        eq_pairs = self.eq_pairs
        neq_pairs = self.neq_pairs
        state = self.state
        if isinstance(test, FieldValueTest):
            value = test.value
            if result:
                if isinstance(value, IPPrefix) and not value.is_host:
                    pos = {**pos, test.field: pos.get(test.field, ()) + (value,)}
                else:
                    if isinstance(value, IPPrefix):
                        value = value.network
                    exact = {**exact, test.field: value}
            else:
                neg = {**neg, test.field: neg.get(test.field, ()) + (value,)}
        elif isinstance(test, FieldFieldTest):
            pair = (test.field1, test.field2)
            if result:
                eq_pairs = eq_pairs | {pair}
            else:
                neq_pairs = neq_pairs | {pair}
        elif isinstance(test, StateVarTest):
            state = state + ((test.var, test.index, test.value, result),)
        else:
            raise SnapError(f"cannot extend context with {test!r}")
        return Context(exact, pos, neg, eq_pairs, neq_pairs, state)

    def with_assignments(self, fmap: dict) -> "Context":
        """The context as seen *after* applying field assignments ``fmap``.

        Constraints on assigned fields are replaced by their new exact
        values; equality pairs involving them are dropped; state records
        mentioning them are rewritten with the field's *old* value when it
        was known, otherwise dropped (their meaning changed).
        """
        if not fmap:
            return self
        memo_key = ("assign", tuple(sorted(fmap.items(), key=lambda kv: kv[0])))
        child = self._children.get(memo_key)
        if child is not None:
            return child
        child = self._with_assignments(fmap)
        if len(self._children) < _CHILD_MEMO_LIMIT:
            self._children[memo_key] = child
        return child

    def _with_assignments(self, fmap: dict) -> "Context":
        assigned = set(fmap)
        exact = {f: v for f, v in self.exact.items() if f not in assigned}
        exact.update(fmap)
        pos = {f: v for f, v in self.pos.items() if f not in assigned}
        neg = {f: v for f, v in self.neg.items() if f not in assigned}
        eq_pairs = frozenset(
            (a, b) for a, b in self.eq_pairs if a not in assigned and b not in assigned
        )
        neq_pairs = frozenset(
            (a, b) for a, b in self.neq_pairs if a not in assigned and b not in assigned
        )
        state = []
        for var, index, value, result in self.state:
            rebuilt = self._rebase_exprs(index, assigned)
            if rebuilt is None:
                continue
            rebuilt_value = self._rebase_exprs(value, assigned)
            if rebuilt_value is None:
                continue
            state.append((var, rebuilt, rebuilt_value, result))
        return Context(exact, pos, neg, eq_pairs, neq_pairs, tuple(state))

    def _rebase_exprs(self, exprs: tuple, assigned: set):
        out = []
        for expr in exprs:
            if isinstance(expr, ast.Field) and expr.name in assigned:
                old = self.resolve(expr.name)
                if old is None:
                    return None
                out.append(ast.Value(old))
            else:
                out.append(expr)
        return tuple(out)

    def __repr__(self):
        parts = []
        parts.extend(f"{f}={v}" for f, v in self.exact.items())
        for f, vs in self.pos.items():
            parts.extend(f"{f}∈{v}" for v in vs)
        for f, vs in self.neg.items():
            parts.extend(f"{f}≠{v}" for v in vs)
        parts.extend(f"{a}={b}" for a, b in self.eq_pairs)
        parts.extend(f"{a}≠{b}" for a, b in self.neq_pairs)
        parts.extend(
            f"{var}[{idx}]{'=' if res else '≠'}{val}"
            for var, idx, val, res in self.state
        )
        return "Context(" + ", ".join(parts) + ")"


EMPTY_CONTEXT = Context()
