"""Per-subpolicy compilation artifacts (incremental provenance).

An ST compilation decomposes the program's policy into *units* — the
segments of its top-level sequential spine, with parallel compositions
flattened into their arms — and records one :class:`SubPolicyArtifact`
per unit on the snapshot: the unit's structural fingerprint, its own
sub-xFDD, its dependency slice, its static effect report, and whether
the incremental session spliced it from an earlier generation or
recompiled it this generation.

The decomposition is provenance only: compilation still translates the
whole policy (memoizing every composite subtree), so there is no
left-distributivity rewriting here — ``p ; (q + r)`` is never rewritten
to ``(p;q) + (p;r)``, which would be unsound with state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.lang import ast


@dataclass(frozen=True)
class SubPolicyArtifact:
    """One unit's contribution to a compilation (see module docstring)."""

    #: Structural fingerprint (hex) — the cross-generation cache key.
    fingerprint: str
    #: Position label, e.g. ``"seq0.arm2"`` (stable across generations
    #: for unchanged spines).
    label: str
    policy: Any
    #: The unit's own xFDD (interned in the snapshot's factory).
    xfdd: Any
    #: st-dep edges contributed by this unit alone.
    dep_edges: frozenset
    #: State variables the unit reads or writes.
    state_vars: frozenset
    #: Static effect report for the unit (update-kind classification).
    effects: Any
    #: True when the incremental session reused a prior generation's
    #: diagram for this unit; False when it was (re)compiled.
    reused: bool


def _operands(policy: ast.Policy, composition: type) -> list:
    """The operands of ``policy``'s ``composition`` spine (``Seq`` or
    ``Parallel``), left to right."""
    operands, stack = [], [policy]
    while stack:
        node = stack.pop()
        if isinstance(node, composition):
            stack.extend((node.right, node.left))
        else:
            operands.append(node)
    return operands


def split_units(policy: ast.Policy) -> list:
    """``[(label, subpolicy)]`` — the top-level decomposition of ``policy``.

    Peels the sequential spine left-to-right, then flattens each
    segment's parallel composition into its arms, preserving order.
    Labels are positional (``seq<i>`` / ``seq<i>.arm<j>``) so a
    single-arm edit keeps every other unit's label stable.
    """
    units: list = []
    for i, segment in enumerate(_operands(policy, ast.Seq)):
        arms = _operands(segment, ast.Parallel)
        if len(arms) == 1:
            units.append((f"seq{i}", segment))
        else:
            units.extend(
                (f"seq{i}.arm{j}", arm) for j, arm in enumerate(arms)
            )
    return units
