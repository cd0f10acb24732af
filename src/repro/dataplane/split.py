"""Splitting the global xFDD into per-switch entry points (§4.5 phase 1).

Every xFDD node gets a stable integer id.  A packet's ``snap.node`` names
where processing should resume:

* a *branch id* — the packet paused before a state test whose variable
  lives elsewhere; the owner switch resumes at that branch;
* a *continuation id* ``(leaf, seq_index, action_index)`` — the packet
  paused inside a leaf action sequence before a remote state action.

"Splitting the xFDD is straightforward given placement information:
stateless tests and actions can happen anywhere, but reads and writes of
state variables must happen on switches storing them."
"""

from __future__ import annotations

from repro.lang.errors import DataPlaneError
from repro.xfdd.diagram import Branch, Leaf, XFDD
from repro.xfdd.tests import StateVarTest
from repro.dataplane.header import ROOT_TAG


def leaf_groups(leaf: Leaf):
    """Enumerate the leaf's execution trie (:meth:`Leaf.trie`), parents
    first.  Yields ``(members, depth)`` for every trie node where an
    action executes — ``members`` is the tuple of sequence indices (into
    :meth:`Leaf.ordered_seqs`) sharing the action at ``depth``.
    """
    trie = leaf.trie()

    def walk(members: tuple, depth: int):
        for _, subgroup in trie[(members, depth)]:
            yield subgroup, depth
            yield from walk(subgroup, depth + 1)

    yield from walk(tuple(range(len(leaf.seqs))), 0)


class NodeIndex:
    """Stable ids for branch nodes and leaf continuations of one xFDD."""

    def __init__(self, xfdd: XFDD):
        self.root = xfdd
        self._branch_id: dict[int, int] = {}
        self._cont_id: dict[tuple, int] = {}
        self._by_id: dict[int, tuple] = {}
        self._next = ROOT_TAG + 1  # ROOT_TAG is reserved for "fresh packet"
        self._assign(xfdd)

    def _fresh(self) -> int:
        tag = self._next
        self._next += 1
        return tag

    def _assign(self, node: XFDD) -> None:
        if isinstance(node, Branch):
            if id(node) in self._branch_id:
                return
            tag = self._fresh()
            self._branch_id[id(node)] = tag
            self._by_id[tag] = ("branch", node)
            self._assign(node.hi)
            self._assign(node.lo)
        else:
            for seq_idx, seq in enumerate(node.ordered_seqs()):
                for act_idx in range(len(seq) + 1):
                    key = (id(node), seq_idx, act_idx)
                    if key not in self._cont_id:
                        tag = self._fresh()
                        self._cont_id[key] = tag
                        self._by_id[tag] = ("cont", node, seq_idx, act_idx)

    def branch_tag(self, node: Branch) -> int:
        return self._branch_id[id(node)]

    def cont_tag(self, leaf: Leaf, seq_idx: int, act_idx: int) -> int:
        return self._cont_id[(id(leaf), seq_idx, act_idx)]

    def lookup(self, tag: int):
        try:
            return self._by_id[tag]
        except KeyError:
            raise DataPlaneError(f"unknown xFDD node tag {tag}") from None

    def __len__(self):
        return len(self._by_id)


def state_owner(placement: dict, var: str) -> str:
    try:
        return placement[var]
    except KeyError:
        raise DataPlaneError(f"state variable {var!r} has no placement") from None


def owned_entries(xfdd: XFDD, index: NodeIndex, placement: dict) -> dict:
    """One walk of the xFDD: per owner switch, where processing resumes
    there, in the walk's order — ``(tag, branch)`` for a test of a
    variable the switch stores, ``(tag, leaf, members, depth)`` for the
    trie edge of an action that writes one."""
    owners: dict[str, list] = {}
    stack = [xfdd]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Branch):
            if isinstance(node.test, StateVarTest):
                owner = state_owner(placement, node.test.var)
                owners.setdefault(owner, []).append(
                    (index.branch_tag(node), node)
                )
            stack.append(node.hi)
            stack.append(node.lo)
        else:
            seqs = node.ordered_seqs()
            for members, depth in leaf_groups(node):
                var = seqs[members[0]][depth].writes_state()
                if var is not None:
                    owners.setdefault(state_owner(placement, var), []).append(
                        (index.cont_tag(node, min(members), depth),
                         node, members, depth)
                    )
    return owners


def split_summary(xfdd: XFDD, index: NodeIndex, placement: dict) -> dict:
    """For reporting: per switch, which branch/continuation tags it owns."""
    return {
        owner: {entry[0] for entry in entries}
        for owner, entries in owned_entries(xfdd, index, placement).items()
    }
