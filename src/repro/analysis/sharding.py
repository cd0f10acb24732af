"""State sharding (§7.3, Appendix C).

"The compiler can partition s[inport] into k disjoint state variables,
each storing s for one port.  The MILP can decide placement and routing as
before, this time with the option of placing the partitions at different
places without worrying about synchronization, as the shards store
disjoint parts of s."

:func:`shard_by_inport` rewrites a policy: every access ``s[... inport ...]``
becomes an access to the per-port shard ``s@p`` under an ``inport = p``
guard.  The transformation is semantics-preserving for packets entering
through one of the given ports (i.e. all packets — inport is set by the
ingress), with shard ``s@p`` holding exactly the slice ``s[p]``.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import CompileError


def shard_name(var: str, port: int) -> str:
    return f"{var}@{port}"


def _substitute(policy: ast.Policy, var: str, port: int) -> ast.Policy:
    """Rewrite accesses to ``var`` for a fixed inport value."""

    def leaf(node: ast.Policy) -> ast.Policy:
        if not (isinstance(node, ast.STATE_ACCESS) and node.var == var):
            return node
        parts = ast.flatten_expr(node.index)
        if not any(isinstance(p, ast.Field) and p.name == "inport" for p in parts):
            raise CompileError(
                f"cannot shard {var!r} by inport: an access does not index "
                "by the inport field"
            )
        fixed = [
            ast.Value(port)
            if isinstance(p, ast.Field) and p.name == "inport"
            else p
            for p in parts
        ]
        index = fixed[0] if len(fixed) == 1 else ast.Vector(fixed)
        return ast.retarget(node, shard_name(var, port), index)

    return ast.rebuild(policy, leaf)


def shard_by_inport(policy: ast.Policy, var: str, ports) -> ast.Policy:
    """Split ``var`` into per-inport shards.

    ``ports`` must cover every OBS port packets can enter through; the
    final else-branch (unreachable in a correctly-attached network) drops.
    """
    ports = sorted(ports)
    if not ports:
        raise CompileError("shard_by_inport needs at least one port")
    if var not in ast.state_variables(policy):
        raise CompileError(f"policy does not use state variable {var!r}")
    result: ast.Policy = ast.Drop()
    for port in reversed(ports):
        result = ast.If(
            ast.Test("inport", port), _substitute(policy, var, port), result
        )
    return result


def shard_defaults(defaults: dict, var: str, ports) -> dict:
    """Propagate the original variable's default to its shards."""
    out = {name: value for name, value in defaults.items() if name != var}
    for port in ports:
        out[shard_name(var, port)] = defaults.get(var, False)
    return out
