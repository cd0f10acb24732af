"""Reference ``st-dep``: Appendix B Figure 14 of the paper, transcribed.

This is the plain structural recursion ``repro.analysis.dependency`` ran
before every dependency analysis went through the fingerprint-memoized
:class:`~repro.analysis.dependency.DependencySlicer`.  It is kept,
unchanged in behaviour, as the oracle
``tests/test_incremental_compile.py`` holds
:func:`~repro.analysis.dependency.analyze_dependencies`' graph equal to::

    st-dep(p + q)             = st-dep(p) ∪ st-dep(q)
    st-dep(p ; q)             = (r(p) × w(q)) ∪ st-dep(p) ∪ st-dep(q)
    st-dep(if a then p else q)= (r(a) × (w(p) ∪ w(q)))
                                ∪ st-dep(p) ∪ st-dep(q)
    st-dep(atomic(p))         = (r(p) ∪ w(p)) × (r(p) ∪ w(p))
    st-dep(p)                 = ∅ otherwise
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.ast import state_reads, state_variables, state_writes


def st_dep(policy: ast.Policy) -> frozenset:
    """The set of dependency edges ``(s, t)`` — t depends on s."""
    if isinstance(policy, ast.Parallel):
        return st_dep(policy.left) | st_dep(policy.right)
    if isinstance(policy, ast.Seq):
        crossed = {
            (s, t)
            for s in state_reads(policy.left)
            for t in state_writes(policy.right)
        }
        return frozenset(crossed) | st_dep(policy.left) | st_dep(policy.right)
    if isinstance(policy, ast.If):
        written = state_writes(policy.then) | state_writes(policy.orelse)
        crossed = {(s, t) for s in state_reads(policy.pred) for t in written}
        return frozenset(crossed) | st_dep(policy.then) | st_dep(policy.orelse)
    if isinstance(policy, ast.Atomic):
        touched = state_variables(policy.body)
        return frozenset((s, t) for s in touched for t in touched) | st_dep(policy.body)
    if isinstance(policy, (ast.And, ast.Or)):
        return st_dep(policy.left) | st_dep(policy.right)
    if isinstance(policy, ast.Not):
        return st_dep(policy.pred)
    return frozenset()
