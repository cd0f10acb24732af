"""Persistent compile session — incremental delta compilation (ROADMAP).

One :class:`CompileSession` lives on the controller across ``update_policy``
generations and owns everything whose lifetime used to be one compilation:
the hash-consing :class:`~repro.xfdd.diagram.DiagramFactory`, the
:class:`~repro.xfdd.compose.Composer` apply-cache, a fingerprint-keyed memo
of sub-policy xFDDs, a root-keyed memo of finished packet-state mappings,
and a :class:`~repro.analysis.dependency.DependencySlicer`.

The xFDD memo is the subtree-splice path: ``build(p)`` translates ``p``
with :func:`~repro.xfdd.build.to_xfdd`, handing it the memoized build as
its recursion, so every composite subtree is memoized by its structural
fingerprint and a recompilation after a single-app edit replays the
unchanged arms as O(1) lookups and only composes the dirty subtree (plus
the spine above it).  :meth:`CompileSession.unit_reuse` reports how
many of the policy's top-level units (:func:`split_units`) were spliced
and how many were compiled this generation.

Reuse validity.  A cached sub-diagram's internal branch ordering depends
on (i) the field registry's ranks and (ii) the absolute ``(rank, var)``
key of every state variable it tests (see
:class:`~repro.xfdd.order.TestOrder`).  Each memo entry therefore records
``tuple(sorted((var, rank)))`` over the subtree's state variables and is
only served while every one of those variables keeps its *exact* rank;
a registry change resets the whole session.  This is conservative —
inserting a new variable shifts ranks and invalidates bystander subtrees
— but it is sound, and rank-preserving edits (the common case: tweaking
one app of a composite) reuse everything else.

Session hygiene.  The factory is never ``clear()``-ed (old snapshots pin
old nodes); a reset allocates a *new* factory and drops every memo, which
is also the safety valve when the intern table outgrows
:data:`FACTORY_SIZE_CAP`.  A state-order change rebuilds the Composer
(fresh apply-cache) on the *same* factory — interning is order-blind, so
mixing generations of nodes stays sound.
"""

from __future__ import annotations

from repro.analysis.dependency import DependencySlicer
from repro.lang import ast
from repro.lang.fields import FieldRegistry
from repro.lang.fingerprint import fingerprint
from repro.xfdd.build import to_xfdd
from repro.xfdd.compose import Composer
from repro.xfdd.diagram import DiagramFactory, XFDD
from repro.xfdd.order import TestOrder

#: Intern-table (or apply-cache) size above which ``begin_compile``
#: resets the session.  A 6-app composite interns a few thousand nodes
#: and caches about as many operations per generation; the cap only
#: trips after hundreds of structurally novel generations, bounding
#: long-controller memory without ever firing in a steady-state workload.
FACTORY_SIZE_CAP = 400_000


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
    """The top-level units of ``policy``: the segments of its sequential
    spine, left to right, each parallel segment flattened into its arms.

    The split only counts reuse: compilation still translates the whole
    policy, so ``p ; (q + r)`` is never rewritten to ``(p;q) + (p;r)``
    (unsound with state).
    """
    return [
        arm
        for segment in _operands(policy, ast.Seq)
        for arm in _operands(segment, ast.Parallel)
    ]


class _MemoEntry:
    __slots__ = ("xfdd", "ranks", "born")

    def __init__(self, xfdd: XFDD, ranks: tuple, born: int):
        self.xfdd = xfdd
        self.ranks = ranks
        self.born = born


class CompileSession:
    """Cross-generation compilation caches (see module docstring)."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Drop every cache and start a fresh hash-consing session."""
        self.factory = DiagramFactory()
        self.composer: Composer | None = None
        self.dep_slicer = DependencySlicer()
        #: packet_state_mapping's answers by (root id, ports); sound
        #: while self.factory pins the roots, i.e. until the next reset.
        self.mapping_memo: dict = {}
        self._xfdd_memo: dict = {}
        self._registry_names: tuple | None = None
        self._state_rank: dict = {}
        self._order_sig: tuple | None = None
        self.memo_hits = 0
        self.memo_misses = 0
        self.compile_no = 0

    # -- per-compilation setup --------------------------------------------

    def begin_compile(self, registry: FieldRegistry, state_rank: dict) -> Composer:
        """Bind this generation's test order; return the composer to use.

        Resets the whole session on a field-registry change or when the
        intern table or the apply-cache (which never switches itself
        off) exceeds :data:`FACTORY_SIZE_CAP`; rebuilds only the
        Composer (same factory, fresh apply-cache) when the global state
        order changed; otherwise keeps everything.
        """
        names = registry.names()
        cached = self.composer.cache_stats()["cache_entries"] if self.composer else 0
        if (self._registry_names is not None and names != self._registry_names) or (
            max(len(self.factory), cached) > FACTORY_SIZE_CAP
        ):
            self.reset()
        self._registry_names = names
        self._state_rank = dict(state_rank)
        sig = tuple(sorted(self._state_rank.items()))
        if self.composer is None or sig != self._order_sig:
            order = TestOrder(registry, self._state_rank)
            self.composer = Composer(order, factory=self.factory)
        self._order_sig = sig
        self.compile_no += 1
        return self.composer

    # -- memoized translation ---------------------------------------------

    def build(self, policy: ast.Policy) -> XFDD:
        """``to_xfdd`` with fingerprint-memoized composite subtrees."""
        if self.composer is None:
            raise RuntimeError("begin_compile() must run before build()")
        return self._build(policy)

    def _build(self, policy: ast.Policy) -> XFDD:
        # Only composites are memoized: a leaf translates in O(1) through
        # the factory's intern table anyway.
        if not isinstance(policy, ast.COMPOSITE):
            return to_xfdd(policy, self.composer)
        key = fingerprint(policy)
        entry = self._xfdd_memo.get(key)
        if entry is not None and self._ranks_valid(entry.ranks):
            self.memo_hits += 1
            return entry.xfdd
        self.memo_misses += 1
        diagram = to_xfdd(policy, self.composer, self._build)
        touched = self.dep_slicer.slice(policy)  # memoized: P1 ran it
        ranks = tuple(sorted(
            (v, self._state_rank.get(v)) for v in touched.reads | touched.writes
        ))
        self._xfdd_memo[key] = _MemoEntry(diagram, ranks, self.compile_no)
        return diagram

    def _ranks_valid(self, ranks: tuple) -> bool:
        rank = self._state_rank
        return all(rank.get(var) == r for var, r in ranks)

    # -- provenance --------------------------------------------------------

    def was_reused(self, policy: ast.Policy) -> bool:
        """True when ``policy``'s diagram was spliced from an earlier
        generation (entry born before this ``begin_compile``)."""
        if not isinstance(policy, ast.COMPOSITE):
            return False
        entry = self._xfdd_memo.get(fingerprint(policy))
        return entry is not None and entry.born < self.compile_no

    def unit_reuse(self, policy: ast.Policy) -> tuple:
        """``(reused, recompiled)``: how many of ``policy``'s
        :func:`split_units` were spliced from an earlier generation, and
        how many were compiled by this one."""
        units = split_units(policy)
        reused = sum(map(self.was_reused, units))
        return reused, len(units) - reused

    def stats(self) -> dict:
        return {
            "session_memo_hits": self.memo_hits,
            "session_memo_misses": self.memo_misses,
            "session_memo_entries": len(self._xfdd_memo),
            "session_compile_no": self.compile_no,
        }
