"""AST transformations on policies.

:func:`rename_state_vars` namespaces a policy's state variables — used
when composing several instances of library programs so each instance owns
its own state (the Figure 11 workload: "the dependency graph for the final
policy is a collection of the dependency graphs of the composed policies",
which only holds when instances do not alias each other's variables).
"""

from __future__ import annotations

from repro.lang import ast


def rename_state_vars(policy: ast.Policy, mapping) -> ast.Policy:
    """Rewrite state-variable names.

    ``mapping`` is either a dict ``old -> new`` or a callable applied to
    every variable name.
    """
    rename = mapping if callable(mapping) else lambda v: mapping.get(v, v)

    def leaf(node: ast.Policy) -> ast.Policy:
        if isinstance(node, ast.STATE_ACCESS):
            return ast.retarget(node, rename(node.var))
        return node

    return ast.rebuild(policy, leaf)


def namespace_state_vars(policy: ast.Policy, prefix: str) -> ast.Policy:
    """Prefix every state variable with ``prefix`` (instance isolation)."""
    return rename_state_vars(policy, lambda var: f"{prefix}{var}")
